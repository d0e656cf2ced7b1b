"""One workload in a fresh interpreter; writes its measurements as JSON.

    python3 bench/worker.py setup INPUT_DIR --out FILE
    python3 bench/worker.py run INPUT_DIR --seconds S --trace 0|1 [--baseline] --out FILE

``setup`` times ``import fixlab`` plus ``load_graph`` of every input
file, so nothing but the standard library is imported before the clock
starts. ``run`` asks the workload's questions as a closed loop, one
after another, in whole passes over fresh graph loads until the next
pass would overrun ``--seconds``. The first pass is checked against the
references; every later pass must give identical answers. With
``--trace 1`` the worker makes one traced pass (after one untraced pass
with ``--baseline``) and measures the workload's layers.

``run.py`` starts this script with ``src`` on ``PYTHONPATH``.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

PROBE_EVERY_S = 0.2
SETUP_PROBES = 10


def setup(directory):
    manifest = json.loads((directory / "manifest.json").read_text())
    t0 = time.perf_counter()
    import fixlab
    t1 = time.perf_counter()
    for name in manifest["graphs"]:
        fixlab.load_graph(str(directory / name))
    t2 = time.perf_counter()
    from probe import Probe
    probe = Probe()
    probe()  # warm
    probes = [probe() for _ in range(SETUP_PROBES)]
    return {"import_s": t1 - t0, "setup_s": t2 - t0,
            "probe_s": sum(end - start for start, end in probes) / len(probes)}


def environment():
    import networkx
    import numpy
    import scipy

    import fixlab
    return {
        "nproc": os.cpu_count(),
        "threads": fixlab.default_thread_count(),
        "fixlab": fixlab.__version__, "fixlab_path": str(Path(fixlab.__file__).parent),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "networkx": networkx.__version__,
    }


class Workload:
    def __init__(self, directory):
        self.directory = directory
        self.manifest = json.loads((directory / "manifest.json").read_text())
        self.name = self.manifest["workload"]
        self.questions = self.manifest["questions"]
        self.reference = None  # answers of the checked pass
        self.failed = {}  # reasons from the reference checks, by question id

    def path(self, name):
        return str(self.directory / name)

    def one_pass(self, call, tracer=None, probe=None):
        """Ask every question once on freshly loaded graphs.

        Returns (latencies, scale, answers, failed ids, graphs); only
        question time is measured, never loading or checking. With a
        ``probe``, it runs before the first question, after the last, and
        between questions, once for every ``PROBE_EVERY_S`` of questions
        since it last ran; ``scale`` is the pass's speed scale (see
        ``probe``), else ``None``.
        """
        import fixlab
        from checks import exact_chain
        from probe import scale as speed_scale
        from questions import ASK, KERNEL_KINDS

        graphs = {name: call("graphs.load_graph", fixlab.load_graph, self.path(name))
                  for name in self.manifest["graphs"]}
        first = self.reference is None
        built = set()
        latencies, answers, failed = [], {}, set()
        probes = []

        def probe_due(at_least=0):
            if probe is not None:
                since = time.perf_counter() - probes[-1][1] if probes else 0.0
                due = max(at_least, not probes, int(since / PROBE_EVERY_S))
                probes.extend(probe() for _ in range(due))

        for q in self.questions:
            probe_due()
            if tracer is not None:
                tracer.question = q["id"]
            t0 = time.perf_counter()
            try:
                if tracer is not None and q["kind"] in KERNEL_KINDS:
                    key = (q["graph"], str(fixlab.neutral_part(q["rule"])))
                    if key not in built:
                        built.add(key)
                        call("dynamics.kernel_matrix", fixlab.kernel_matrix,
                             graphs[q["graph"]], q["rule"])
                answer, evidence = ASK[q["kind"]](call, graphs, q)
            except Exception as exc:  # a raising question is counted as failed
                latencies.append(time.perf_counter() - t0)
                answers[q["id"]] = {"error": repr(exc)}
                self.failed.setdefault(q["id"], f"raised {exc!r}")
                failed.add(q["id"])
                continue
            latencies.append(time.perf_counter() - t0)
            answers[q["id"]] = answer
            if first and evidence is not None:
                reason = exact_chain(q, answer, evidence)
                if reason:
                    self.failed[q["id"]] = reason
            del evidence
        if tracer is not None:
            tracer.question = None
        probe_due(at_least=1)
        scale = speed_scale(probes) if probes else None
        if first:
            self.reference = answers
            self.check(answers, graphs)
        else:
            for qid, answer in answers.items():
                if json.dumps(answer) != json.dumps(self.reference[qid]):
                    self.failed.setdefault(qid, "answer differs from the first pass")
                    failed.add(qid)
        failed.update(self.failed)
        return latencies, scale, answers, failed, graphs

    def check(self, answers, graphs):
        from checks import check
        answered = [q for q in self.questions if "error" not in answers[q["id"]]]
        inputs = {name: json.loads(Path(self.path(name)).read_text())
                  for name in self.manifest["graphs"]} if self.name == "sweep" else {}
        for qid, reason in check(self.name, answered, answers, graphs, inputs).items():
            self.failed.setdefault(qid, reason)


def run(directory, seconds, trace, baseline):
    from probe import Probe
    from tracing import Tracer, direct

    work = Workload(directory)
    out = {"workload": work.name, "questions": len(work.questions), "passes": [],
           "scales": []}  # one probe scale per pass
    failed_total = 0
    if not trace or baseline:
        probe = Probe()
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            latencies, scale, _, failed, graphs = work.one_pass(direct, probe=probe)
            pass_s = time.perf_counter() - t0
            del graphs  # free this pass's graphs before the next pass loads its own
            spent += pass_s
            out["passes"].append(latencies)
            out["scales"].append(scale)
            failed_total += len(failed)
            if trace or spent + pass_s > seconds:
                break
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        import layers
        tracer = Tracer()
        layers.patch_children(tracer)
        latencies, _, answers, failed, graphs = work.one_pass(tracer.call, tracer)
        failed_total += len(failed)
        out["traced"] = latencies
        out["layers"], problems = layers.measure(work, graphs, answers, tracer.spans)
        out["spans"] = tracer.spans
        failed_total += len(problems)
        work.failed.update((f"cli-{i}", p) for i, p in enumerate(problems))
    out["attempted"] = len(work.questions) * (len(out["passes"]) + (1 if trace else 0))
    out["attempted"] += out.get("layers", {}).get("cli.replayed", 0)
    out["failed"] = failed_total
    out["reasons"] = {str(k): v for k, v in list(work.failed.items())[:20]}
    out["env"] = environment()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("inputs", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.inputs)
    else:
        result = run(args.inputs, args.seconds, args.trace, args.baseline)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
