"""Command line front end.

Single results go to stdout as JSON with a ``manifest`` block that
records every input needed to reproduce the run. Tables (trajectories,
benchmark rows, accumulation traces) go to the ``--out`` CSV file when
given, otherwise to stdout as CSV.

Exit codes: 0 on success, 2 when a computation refuses a graph that is
not strongly connected (stdout then carries
``{"error": "not_strongly_connected"}``), 1 for any other input error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import __version__, dynamics, graphs, montecarlo, mttf, oracle, solver
from . import bounds as bounds_mod

_GENERATOR_ALIASES = {
    "ba": "preferential_attachment",
    "pa": "preferential_attachment",
    "er": "erdos_renyi",
    "gnp": "erdos_renyi",
    "nws": "small_world",
    "sw": "small_world",
}

_GENERATE_HELP = (
    "generator spec KIND:key=value,... with KIND one of "
    "preferential_attachment (ba), erdos_renyi (er), small_world (nws); "
    "keys: n (required), seed, weighting {unweighted,random}, m, p, k"
)


def _parse_generate_spec(spec, default_seed):
    kind, _, rest = spec.partition(":")
    kind = _GENERATOR_ALIASES.get(kind, kind)
    if kind not in graphs.GENERATOR_KINDS:
        raise ValueError(
            f"unknown generator {kind!r}; expected one of {graphs.GENERATOR_KINDS}"
        )
    params = {}
    if rest:
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            if not eq or not key:
                raise ValueError(f"bad generator parameter {part!r}; expected key=value")
            params[key.strip()] = value.strip()
    if "n" not in params:
        raise ValueError("generator spec needs n, e.g. er:n=20,p=0.5")
    n = int(params.pop("n"))
    seed = int(params.pop("seed", default_seed))
    kwargs = {"seed": seed, "weighting": params.pop("weighting", "random")}
    for key, cast in (("m", int), ("p", float), ("k", int)):
        if key in params:
            kwargs[key] = cast(params.pop(key))
    if params:
        raise ValueError(f"unknown generator parameters {sorted(params)}")
    return graphs.generate(kind, n, **kwargs)


def _load_graph(args):
    if getattr(args, "graph", None) and getattr(args, "generate", None):
        raise ValueError("give either --graph or --generate, not both")
    if getattr(args, "graph", None):
        return graphs.load_graph(args.graph)
    if getattr(args, "generate", None):
        return _parse_generate_spec(args.generate, getattr(args, "seed", 0) or 0)
    raise ValueError("a graph is required: --graph FILE or --generate SPEC")


def _parse_config(text):
    if text is None:
        raise ValueError("--config is required for this command")
    stripped = text.strip()
    if stripped.startswith("["):
        raw = json.loads(stripped)
    else:
        with open(stripped) as fh:
            raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError("config must be a JSON array of vertex ids")
    return [graphs.vertex_id(v) for v in raw]


_MANIFEST_KEYS = (
    "graph", "generate", "config", "rule", "r", "epsilon", "criterion",
    "runs", "seed", "steps", "out",
)


def _manifest(args, command, parsed_config=None):
    """The run's inputs as applied: canonical rule name, sorted config, version."""
    entry = {"command": command, "version": __version__}
    for key in _MANIFEST_KEYS:
        value = getattr(args, key, None)
        if value is None:
            continue
        entry[key] = value
    if "rule" in entry:  # the command has accepted it, so it parses
        entry["rule"] = str(dynamics.parse_rule(entry["rule"]))
    if parsed_config is not None:
        entry["config"] = sorted(parsed_config)
    return entry


# ---------------------------------------------------------------- commands


def _cmd_generate(args):
    graph = _parse_generate_spec(args.generate, args.seed)
    payload = {
        "manifest": _manifest(args, "generate"),
        "n": graph.n,
        "edge_count": len(graph.out_dst),
        "strongly_connected": graphs.is_strongly_connected(graph),
    }
    if args.out:
        graphs.save_graph(graph, args.out)
        payload["out"] = args.out
    else:
        payload["graph"] = graph.to_json()
    return payload


def _cmd_solve(args):
    graph = _load_graph(args)
    config = _parse_config(args.config)
    options = solver.SolveOptions(
        rule=args.rule,
        epsilon=args.epsilon,
        criterion=args.criterion,
        record_trajectory=bool(args.out),
    )
    report = solver.solve(graph, config, options)
    lo, hi = report.bracket()
    payload = {
        "manifest": _manifest(args, "solve", config),
        "fixation": report.fixation,
        "half_range": report.half_range,
        "iterations": report.iterations,
        "converged": report.converged,
        "bracket": [lo, hi],
    }
    if args.out:
        report.trajectory.write_csv(args.out)
        payload["trajectory_csv"] = args.out
    return payload


def _cmd_trajectory(args):
    graph = _load_graph(args)
    config = _parse_config(args.config)
    table = solver.trajectory(graph, config, rule=args.rule, steps=args.steps)
    if args.out:
        table.write_csv(args.out)
        return {
            "manifest": _manifest(args, "trajectory", config),
            "rows": len(table),
            "out": args.out,
            "final_expected_mutants": float(table.ex[-1]),
        }
    return table.to_csv_text()


def _cmd_simulate(args):
    graph = _load_graph(args)
    config = _parse_config(args.config)
    step_cap = montecarlo.step_cap_for(graph, args.steps)
    summary = montecarlo.estimate(
        graph, config, rule=args.rule, r=args.r,
        runs=args.runs, seed=args.seed, step_cap=step_cap,
    )
    # record the applied cap, so the run replays from its own manifest
    manifest = _manifest(args, "simulate", config)
    manifest["steps"] = step_cap
    return {
        "manifest": manifest,
        "runs": summary.runs,
        "fixations": summary.fixations,
        "fixation_frequency": summary.fixation_frequency,
        "std_error": summary.std_error,
        "mean_fixation_time": summary.mean_fixation_time,
        "mean_absorption_time": summary.mean_absorption_time,
        "capped_runs": summary.capped_runs,
        "wall_time": summary.wall_time,
    }


def _cmd_compare(args):
    graph = _load_graph(args)
    config = _parse_config(args.config)
    result = montecarlo.speedup_benchmark(
        graph, config, rule=args.rule, r=args.r,
        mc_runs=args.runs, seed=args.seed,
    )
    header = ("n", "rule", "r", "mc_time", "solver_time", "speedup")
    row = (result.n, result.rule, result.r, result.mc_time, result.solver_time, result.speedup)
    target = args.out or io.StringIO()
    solver.write_csv(target, header, [row])
    if args.out:
        return {
            "manifest": _manifest(args, "compare", config),
            "out": args.out,
            "speedup": result.speedup,
            "mc_estimate": result.mc_estimate,
            "solver_estimate": result.solver_estimate,
            "entered_band": result.entered_band,
        }
    return target.getvalue()


def _cmd_oracle(args):
    graph = _load_graph(args)
    config = _parse_config(args.config)
    chain = oracle.build_chain(graph, rule=args.rule, r=args.r)
    fix = oracle.fixation_exact(chain, config)
    times = oracle.mean_times_exact(chain, config)
    solved = None
    if chain.residuals is not None:  # an all-mutant or empty config needs no solve
        solved = {
            "method": "bicgstab",
            "preconditioner": "jacobi",
            "iterations": chain.iterations,
            "max_residual": max(chain.residuals.values()),
            "residual_bound": oracle.RESIDUAL_TOL,
        }
    return {
        "manifest": _manifest(args, "oracle", config),
        "fixation": fix,
        "mean_fixation_time": times.fixation if times.fixation_defined else None,
        "mean_extinction_time": times.extinction if times.extinction_defined else None,
        "mean_absorption_time": times.absorption,
        "solve": solved,
    }


def _cmd_mttf(args):
    graph = _load_graph(args)
    config = _parse_config(args.config)
    report = mttf.mttf_lower_bound(
        graph, config, rule=args.rule,
        stop_stdev=args.epsilon, record=bool(args.out),
    )
    payload = {
        "manifest": _manifest(args, "mttf", config),
        "lower_bound": report.lower_bound,
        "iterations": report.iterations,
        "truncated": report.truncated,
        "negative_increments": report.negative_increments,
        "partial_sum": report.partial_sum,
        "normalizer": report.normalizer,
    }
    if args.out:
        report.trace.write_csv(args.out)
        payload["trace_csv"] = args.out
    return payload


def _cmd_bounds(args):
    graph = _load_graph(args)
    config = _parse_config(args.config)
    if len(config) != 1:
        raise ValueError("bounds take a single-vertex config, e.g. --config [3]")
    report = bounds_mod.bound_report(
        graph, config[0], args.r, args.rule, epsilon=args.epsilon
    )
    return {
        "manifest": _manifest(args, "bounds", config),
        "rule": str(report.rule),
        "r": report.r,
        "lower": report.lower,
        "upper": report.upper,
        "vacuous_upper": report.vacuous_upper,
        "formula_available": report.formula_available,
    }


def _cmd_amplifier(args):
    graph = _load_graph(args)
    st = graphs.stats(graph)
    labels = solver.degree_selection_class(graph)
    return {
        "manifest": _manifest(args, "amplifier"),
        "degree_threshold": 1.0 / st.mean_inverse_degree,
        "degrees": [int(k) for k in graph.k_out],
        "labels": labels,
    }


# ---------------------------------------------------------------- parser


def _add_graph_flags(p):
    p.add_argument("--graph", help="graph file (JSON or 'i j w' edge list)")
    p.add_argument("--generate", help=_GENERATE_HELP)


def _add_config_flag(p):
    p.add_argument("--config", help="mutant vertex ids: inline JSON array or a file path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fixlab",
        description="Fixation probabilities and mutant-spread dynamics on directed weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a random graph and write it out")
    p.add_argument("--generate", required=True, help=_GENERATE_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="destination graph JSON file (default: inline in stdout JSON)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="fixation probability by kernel iteration")
    _add_graph_flags(p)
    _add_config_flag(p)
    p.add_argument("--rule", default="bd", help="neutral kernel: bd, db, or ld")
    p.add_argument("--epsilon", type=float, default=1e-6,
                   help="stopping threshold on the active criterion (default 1e-6)")
    p.add_argument("--criterion", choices=solver.CRITERIA, default="range")
    p.add_argument("--seed", type=int, default=0, help="seed for --generate")
    p.add_argument("--out", help="also record the convergence trace to this CSV")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("trajectory", help="per-step min/max/avg/stdev/ex table")
    _add_graph_flags(p)
    _add_config_flag(p)
    p.add_argument("--rule", default="bd", help="neutral kernel: bd, db, or ld")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="seed for --generate")
    p.add_argument("--out", help="CSV destination (default: CSV to stdout)")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("simulate", help="Monte Carlo fixation frequency")
    _add_graph_flags(p)
    _add_config_flag(p)
    p.add_argument("--rule", default="bd",
                   help="bd, db, ld, bd-b, bd-d, db-b, db-d (neutral names need r=1)")
    p.add_argument("--r", type=float, default=1.0, help="mutant fitness (default 1)")
    p.add_argument("--runs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=None,
                   help="per-run event cap (default 1e6 * n)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="wall-clock speedup of iteration over simulation")
    _add_graph_flags(p)
    _add_config_flag(p)
    p.add_argument("--rule", default="bd")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=2000, help="simulation runs (default 2000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="benchmark CSV destination (default: CSV to stdout)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("oracle", help="exact small-graph answers from the full chain")
    _add_graph_flags(p)
    _add_config_flag(p)
    p.add_argument("--rule", default="bd")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0, help="seed for --generate")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("mttf", help="lower bound on the mean time to fixation")
    _add_graph_flags(p)
    _add_config_flag(p)
    p.add_argument("--rule", default="bd", help="neutral kernel: bd, db, or ld")
    p.add_argument("--epsilon", type=float, default=mttf.STOP_STDEV,
                   help=f"stdev stopping threshold (default {mttf.STOP_STDEV})")
    p.add_argument("--seed", type=int, default=0, help="seed for --generate")
    p.add_argument("--out", help="accumulation trace CSV destination")
    p.set_defaults(func=_cmd_mttf)

    p = sub.add_parser("bounds", help="lower and upper fixation bounds for one mutant")
    _add_graph_flags(p)
    _add_config_flag(p)
    p.add_argument("--rule", default="bd-b", help="bd-b, bd-d, db-b, db-d, or ld")
    p.add_argument("--r", type=float, default=1.0, help="mutant fitness, at least 1")
    p.add_argument("--epsilon", type=float, default=1e-6,
                   help="tolerance of the lower-bound solve")
    p.add_argument("--seed", type=int, default=0, help="seed for --generate")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("amplifier", help="classify vertices by the degree threshold")
    _add_graph_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seed for --generate")
    p.set_defaults(func=_cmd_amplifier)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except solver.NotStronglyConnected as exc:
        print(json.dumps({"error": exc.reason, "detail": str(exc)}))
        return 2
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    if isinstance(payload, str):
        sys.stdout.write(payload)
    else:
        print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
