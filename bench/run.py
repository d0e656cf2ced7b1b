"""fixlab benchmark: four pinned workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a fixlab checkout (the directory that holds
``src/fixlab``):

    python3 bench/run.py --workload sweep [--seed 1] [--seconds 20] [--trace 0]

Workloads are ``iterate``, ``sweep``, ``simulate`` and ``exact`` (see
``bench/README.md``). The run writes the workload's inputs from the seed
under ``bench/out/``, times set-up in fresh interpreters, then runs the
workload in a fresh interpreter with tracing off and checks every answer.
With ``--trace 1`` it instead runs one traced pass of every workload (and
one untraced pass of ``--workload``, for the tracing overhead) and
reports the per-layer metrics. ``--smoke`` shrinks every input so that a
run takes seconds.

End-to-end times are put on the scale of a fixed speed probe that runs
between questions (see ``probe.py``), so that they measure the program
rather than how busy the shared machine was; the unscaled figures are
printed beside them.

Each metric is printed on its own line with its unit and sample count;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from probe import NOMINAL_S

DEFAULT_SEED = 1
HOLDOUT_SEED = 2  # never used while writing a change; a claimed gain must hold here too
SETUP_REPEATS = 7
DEADLINE_S = 170
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "answer_p50_ms": "ms", "answer_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "graphs.load_s": "s", "graphs.scc_ms": "ms",
    "dynamics.kernel_build_ms": "ms", "dynamics.step_us.small": "us",
    "dynamics.step_us.mid": "us", "dynamics.step_us.large": "us",
    "solver.iterations": "count", "solver.us_per_iteration": "us",
    "solver.loop_us_per_iteration": "us", "solver.call_fixed_ms": "ms",
    "mttf.iterations": "count", "mttf.us_per_iteration": "us",
    "bounds.self_ms": "ms",
    "montecarlo.events": "count",
    **{f"montecarlo.events_per_s.{rule}": "1/s"
       for rule in ("bd", "bd-b", "bd-d", "db-b", "db-d", "ld")},
    "montecarlo.cpu_over_wall": "1",
    "oracle.nnz": "count", "oracle.build_s": "s", "oracle.factor_s": "s",
    "oracle.query_us": "us",
    "cli.import_s": "s", "cli.overhead_ms": "ms",
}
# printed with the per-layer metrics, but fixed by the inputs, so not compared
LAYER_FACTS = {
    "graphs.edges": "count", "dynamics.nnz.large": "count",
    "dynamics.bytes_per_step.large": "bytes", "solver.calls": "count",
    "montecarlo.capped_runs": "count", "oracle.states": "count", "cli.replayed": "count",
}

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def child_env(root):
    """The library resolves its own thread count, and no bytecode is written."""
    env = {k: v for k, v in os.environ.items() if k != "FIXLAB_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def worker(arguments, env, deadline):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    out = OUT / f"worker-{os.getpid()}.json"
    command = [sys.executable, str(BENCH / "worker.py"), *arguments, "--out", str(out)]
    subprocess.run(command, env=env, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def percentile(samples, p):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def latency_metrics(passes, scales):
    """wall_s, p50 and tail latency from the untraced passes, with notes.

    Each latency is first put on the probe's scale (see ``probe``): times
    the scale measured in its pass. A question's cost is its median
    scaled latency over the run's passes; wall_s is their sum, and the
    percentiles are taken across questions.
    """
    scaled = [[t * k for t in ts] for ts, k in zip(passes, scales)]
    cost = [statistics.median(col) for col in zip(*scaled)]
    raw = sum(min(col) for col in zip(*passes))
    k = f"median of {len(passes)} passes, probe-scaled"
    m = {
        "wall_s": (sum(cost), f"sum over {len(cost)} questions of each one's {k}; unscaled "
                              f"sum of best latencies {raw:.4f} s"),
        "answer_p50_ms": (statistics.median(cost) * 1e3,
                          f"median over {len(cost)} questions, each its {k}"),
    }
    for p in TAIL_PERCENTILES:
        if len(cost) * (1 - p / 100) >= 10:
            m["answer_tail_ms"] = (percentile(cost, p) * 1e3,
                                   f"p{p:g} over {len(cost)} questions, each its {k}")
            break
    else:
        m["answer_tail_ms"] = (max(cost) * 1e3,
                               f"slowest of {len(cost)} questions, each its {k}; no "
                               f"percentile has 10 questions beyond it")
    return m


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def show(workload, name, value, unit, note=""):
    print(f"{workload:9s} {name:34s} {value:>16.6g} {unit:6s} {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fixlab" / "__init__.py").is_file():
        print("bench: no src/fixlab here; run from the root of a fixlab checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    tag = f"s{args.seed}" + ("-smoke" if args.smoke else "")
    names = inputs.WORKLOADS if args.trace else (args.workload,)
    dirs, edges, rows_below_one = {}, 0, 0
    for w in names:
        dirs[w] = OUT / "inputs" / f"{w}-{tag}"
        manifest = inputs.generate(w, args.seed, dirs[w], smoke=args.smoke)
        edges += manifest["edges"]
        rows_below_one += manifest["rows_below_one"]

    setups = [worker(["setup", str(dirs[args.workload])], env, deadline)
              for _ in range(SETUP_REPEATS)]
    runs = {}
    for w in names:
        arguments = ["run", str(dirs[w]), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)]
        if args.trace and w == args.workload:
            arguments.append("--baseline")
        runs[w] = worker(arguments, env, deadline)

    env_info = dict(runs[args.workload]["env"], commit=git_commit(root), seed=args.seed,
                    holdout_seed=HOLDOUT_SEED, smoke=args.smoke)
    print("environment " + json.dumps(env_info))
    print(f"inputs: {edges} directed edges; {rows_below_one} rows whose float cumsum "
          f"ends below 1")
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    for w, r in runs.items():
        for qid, reason in r["reasons"].items():
            print(f"FAILED {w} question {qid}: {reason}", file=sys.stderr)

    if not args.trace:
        r = runs[args.workload]
        results = latency_metrics(r["passes"], r["scales"])
        results["setup_s"] = (
            statistics.median(s["setup_s"] * NOMINAL_S / s["probe_s"] for s in setups),
            f"median of {len(setups)} fresh interpreters, probe-scaled; unscaled median "
            f"{statistics.median(s['setup_s'] for s in setups):.4f} s")
        results["peak_rss_mb"] = (r["peak_rss_kb"] / 1024, "ru_maxrss of 1 workload process")
        for name, unit in END_TO_END.items():
            show(args.workload, name, results[name][0], unit, f"({results[name][1]})")
        show(args.workload, "failed_ratio", failed / attempted, "1",
             f"({failed} of {attempted} answers)")
        metrics = {name: {"value": results[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        layer = {"graphs.edges": (edges, "inputs"),
                 "cli.import_s": (statistics.median(s["import_s"] for s in setups),
                                  f"setup, median of {len(setups)}")}
        for w, r in runs.items():
            layer.update((name, (value, w)) for name, value in r["layers"].items())
        base = runs[args.workload]
        untraced, traced = sum(base["passes"][0]), sum(base["traced"])
        for name, unit in {**PER_LAYER, **LAYER_FACTS}.items():
            show("layer", name, layer[name][0], unit, f"({layer[name][1]})")
        show(args.workload, "trace_overhead_s", traced - untraced, "s",
             f"(traced wall_s {traced:.4f} - untraced wall_s {untraced:.4f}, one pass each)")
        show("all", "failed_ratio", failed / attempted, "1", f"({failed} of {attempted} answers)")
        metrics = {name: {"value": layer[name][0], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        spans = {w: r.pop("spans") for w, r in runs.items()}
        (OUT / f"spans-{args.workload}-{tag}.json").write_text(json.dumps(spans))

    (OUT / f"result-{args.workload}-{tag}-trace{args.trace}.json").write_text(json.dumps(
        {"env": env_info, "metrics": metrics, "attempted": attempted, "failed": failed,
         "runs": runs, "setups": setups}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
