"""Command line front end.

Single results go to stdout as JSON with a ``manifest`` block that
records every input needed to reproduce the run. Tables (trajectories,
benchmark rows, accumulation traces) go to the ``--out`` CSV file when
given, otherwise to stdout as CSV.

Exit codes: 0 on success, 2 when a computation refuses a graph that is
not strongly connected (stdout then carries
``{"error": "not_strongly_connected"}``), 1 for any other input error,
an argument that argparse refuses included.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import __version__, dynamics, graphs, linear, montecarlo, mttf, oracle, solver
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
    if args.graph and args.generate:
        raise ValueError("give either --graph or --generate, not both")
    if args.graph:
        return graphs.load_graph(args.graph)
    if args.generate:
        return _parse_generate_spec(args.generate, args.seed)
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


def _manifest(args, config):
    """The run's inputs as applied: canonical rule name, sorted config, version.

    ``main`` puts it first in every JSON report, once the command has run.
    """
    entry = {"command": args.command, "version": __version__}
    for key in _MANIFEST_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            entry[key] = value
    if "rule" in entry:  # the command has accepted it, so it parses
        entry["rule"] = str(dynamics.parse_rule(entry["rule"]))
    if config is not None:
        entry["config"] = sorted(config)
    return entry


# ---------------------------------------------------------------- commands


def _cmd_generate(args):
    graph = _parse_generate_spec(args.generate, args.seed)
    payload = {
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


def _cmd_solve(args, graph, config):
    options = solver.SolveOptions(rule=args.rule, epsilon=args.epsilon,
                                  criterion=args.criterion, record_trajectory=bool(args.out))
    report = solver.solve(graph, config, options)
    lo, hi = report.bracket()
    payload = {
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


def _cmd_trajectory(args, graph, config):
    table = solver.trajectory(graph, config, rule=args.rule, steps=args.steps)
    if args.out:
        table.write_csv(args.out)
        return {
            "rows": len(table),
            "out": args.out,
            "final_expected_mutants": float(table.ex[-1]),
        }
    return table.to_csv_text()


def _cmd_simulate(args, graph, config):
    # the manifest records the applied cap, so the run replays from it
    args.steps = montecarlo.step_cap_for(graph, args.steps)
    summary = montecarlo.estimate(graph, config, rule=args.rule, r=args.r,
                                  runs=args.runs, seed=args.seed, step_cap=args.steps)
    return {
        "runs": summary.runs,
        "fixations": summary.fixations,
        "fixation_frequency": summary.fixation_frequency,
        "std_error": summary.std_error,
        "mean_fixation_time": summary.mean_fixation_time,
        "mean_absorption_time": summary.mean_absorption_time,
        "capped_runs": summary.capped_runs,
        "wall_time": summary.wall_time,
    }


def _cmd_compare(args, graph, config):
    result = montecarlo.speedup_benchmark(graph, config, rule=args.rule, r=args.r,
                                          mc_runs=args.runs, seed=args.seed)
    header = ("n", "rule", "r", "mc_time", "solver_time", "speedup")
    row = (result.n, result.rule, result.r, result.mc_time, result.solver_time, result.speedup)
    target = args.out or io.StringIO()
    solver.write_csv(target, header, [row])
    if args.out:
        return {
            "out": args.out,
            "speedup": result.speedup,
            "mc_estimate": result.mc_estimate,
            "solver_estimate": result.solver_estimate,
            "entered_band": result.entered_band,
        }
    return target.getvalue()


def _cmd_oracle(args, graph, config):
    chain = oracle.build_chain(graph, rule=args.rule, r=args.r)
    fix = oracle.fixation_exact(chain, config)
    times = oracle.mean_times_exact(chain, config)
    solved = None
    if chain.residuals is not None:  # an all-mutant or empty config needs no solve
        solved = {
            "method": "bicgstab",
            "preconditioner": "jacobi",
            # the system BiCGSTAB iterates on, so that iteration counts are
            # read against it
            "system": chain.half.name,
            "system_states": chain.half.n_states,
            "iterations": chain.iterations,
            "max_residual": max(chain.residuals.values()),
            "residual_bound": linear.RESIDUAL_TOL,
        }
    return {
        "fixation": fix,
        "mean_fixation_time": times.fixation if times.fixation_defined else None,
        "mean_extinction_time": times.extinction if times.extinction_defined else None,
        "mean_absorption_time": times.absorption,
        "solve": solved,
    }


def _cmd_mttf(args, graph, config):
    report = mttf.mttf_lower_bound(graph, config, rule=args.rule,
                                   stop_stdev=args.epsilon, record=bool(args.out))
    payload = {
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


def _cmd_bounds(args, graph, config):
    if len(config) != 1:
        raise ValueError("bounds take a single-vertex config, e.g. --config [3]")
    report = bounds_mod.bound_report(graph, config[0], args.r, args.rule, epsilon=args.epsilon)
    return {
        "rule": str(report.rule),
        "r": report.r,
        "lower": report.lower,
        "upper": report.upper,
        "vacuous_upper": report.vacuous_upper,
        "formula_available": report.formula_available,
    }


def _cmd_amplifier(args, graph, config):
    st = graphs.stats(graph)
    labels = solver.degree_selection_class(graph)
    return {
        "degree_threshold": 1.0 / st.mean_inverse_degree,
        "degrees": [int(k) for k in graph.k_out],
        "labels": labels,
    }


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose refusals exit 1, as every other bad input
    does: the usage and the message go to stderr as argparse prints them,
    and ``{"error": <message>}`` to stdout. Subcommand parsers are made of
    the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        print(json.dumps({"error": message}))
        sys.exit(1)


def build_parser():
    parser = _Parser(
        prog="fixlab",
        description="Fixation probabilities and mutant-spread dynamics on directed weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's parser, which refuses what is left over with its own usage
    parser.commands = sub.choices
    # the flags every graph-consuming command takes, and --config
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", help="graph file (JSON or 'i j w' edge list)")
    graph.add_argument("--generate", help=_GENERATE_HELP)
    graph.add_argument("--seed", type=int, default=0,
                       help="seed for --generate, and of the runs of simulate and compare")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="mutant vertex ids: inline JSON array or a file path")
    both = [graph, config]

    p = sub.add_parser("generate", help="build a random graph and write it out")
    p.add_argument("--generate", required=True, help=_GENERATE_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="destination graph JSON file (default: inline in stdout JSON)")

    p = sub.add_parser("solve", parents=both, help="fixation probability by kernel iteration")
    p.add_argument("--rule", default="bd", help="neutral kernel: bd, db, or ld")
    p.add_argument("--epsilon", type=float, default=1e-6,
                   help="stopping threshold on the active criterion (default 1e-6)")
    p.add_argument("--criterion", choices=solver.CRITERIA, default="range")
    p.add_argument("--out", help="also record the convergence trace to this CSV")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("trajectory", parents=both, help="per-step min/max/avg/stdev/ex table")
    p.add_argument("--rule", default="bd", help="neutral kernel: bd, db, or ld")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", help="CSV destination (default: CSV to stdout)")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("simulate", parents=both, help="Monte Carlo fixation frequency")
    p.add_argument("--rule", default="bd",
                   help="bd, db, ld, bd-b, bd-d, db-b, db-d (neutral names need r=1)")
    p.add_argument("--r", type=float, default=1.0, help="mutant fitness (default 1)")
    p.add_argument("--runs", type=int, default=2000)
    p.add_argument("--steps", type=int, default=None,
                   help="per-run event cap (default 1e6 * n)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", parents=both,
                       help="wall-clock speedup of iteration over simulation")
    p.add_argument("--rule", default="bd")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=2000, help="simulation runs (default 2000)")
    p.add_argument("--out", help="benchmark CSV destination (default: CSV to stdout)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("oracle", parents=both,
                       help="exact small-graph answers from the full chain")
    p.add_argument("--rule", default="bd")
    p.add_argument("--r", type=float, default=1.0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("mttf", parents=both, help="lower bound on the mean time to fixation")
    p.add_argument("--rule", default="bd", help="neutral kernel: bd, db, or ld")
    p.add_argument("--epsilon", type=float, default=mttf.STOP_STDEV,
                   help=f"stdev stopping threshold (default {mttf.STOP_STDEV})")
    p.add_argument("--out", help="accumulation trace CSV destination")
    p.set_defaults(func=_cmd_mttf)

    p = sub.add_parser("bounds", parents=both,
                       help="lower and upper fixation bounds for one mutant")
    p.add_argument("--rule", default="bd-b", help="bd-b, bd-d, db-b, db-d, or ld")
    p.add_argument("--r", type=float, default=1.0, help="mutant fitness, at least 1")
    p.add_argument("--epsilon", type=float, default=1e-6,
                   help="tolerance of the lower-bound solve")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("amplifier", parents=[graph],
                       help="classify vertices by the degree threshold")
    p.set_defaults(func=_cmd_amplifier)

    return parser


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    config = None
    try:
        if args.command == "generate":
            payload = _cmd_generate(args)
        else:
            # the graph first, so a bad graph is reported before a bad config
            graph = _load_graph(args)
            if "config" in args:
                config = _parse_config(args.config)
            payload = args.func(args, graph, config)
    except solver.NotStronglyConnected as exc:
        print(json.dumps({"error": exc.reason, "detail": str(exc)}))
        return 2
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    if isinstance(payload, str):
        sys.stdout.write(payload)
    else:
        print(json.dumps({"manifest": _manifest(args, config), **payload}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
