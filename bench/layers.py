"""Per-layer metrics from one traced pass of a workload.

Every metric belongs to the workload that exercises its layer: graph
loading, kernels, the long solver loops and mttf to ``iterate``; per-call
solver cost, bounds and the CLI to ``sweep``; the event loop to
``simulate``; the chain oracle to ``exact``. Spans come from the
benchmark's own calls (see ``tracing``); step costs come from a fixed
number of ``step_values`` calls on the same graphs after the pass.
"""

import contextlib
import io
import json
import statistics
import time

import numpy as np

import fixlab
from questions import KERNEL_KINDS
from tracing import duration, named, self_time

# iterate's questions whose step cost is reported, by (kind, rule): the
# first small bd solve, the first mid-size db solve and the large bd
# trajectory
STEP_ROLES = {"small": ("solve", "bd"), "mid": ("solve", "db"), "large": ("trajectory", "bd")}
CLI_SAMPLE = 24


def patch_children(tracer):
    """Give the solve that ``bound_report`` runs a span of its own."""
    import fixlab.bounds as bounds_module
    if hasattr(bounds_module, "solve"):
        bounds_module.solve = tracer.wrap("solver.solve", bounds_module.solve)


def step_us(graph, rule, calls, repeats=3):
    """Median over ``repeats`` blocks of the cost of one ``step_values`` call."""
    fixlab.kernel_matrix(graph, rule)
    values = np.full(graph.n, 0.5)
    blocks = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fixlab.step_values(graph, rule, values)
        blocks.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(blocks)


def _by_question(work):
    return {q["id"]: q for q in work.questions}


def _iterate(work, graphs, answers, spans):
    qs = _by_question(work)
    names = sorted(graphs, key=lambda name: graphs[name].n)
    large = graphs[names[-1]]
    m = {"graphs.load_s": sum(duration(s) for _, s in named(spans, "graphs.load_graph"))}
    scc = []
    for _ in range(5):
        t0 = time.perf_counter()
        fixlab.is_strongly_connected(large)
        scc.append(time.perf_counter() - t0)
    m["graphs.scc_ms"] = statistics.median(scc) * 1e3
    m["dynamics.kernel_build_ms"] = sum(
        duration(s) for _, s in named(spans, "dynamics.kernel_matrix")) * 1e3

    steps = {}
    for q in work.questions:
        if q["kind"] in KERNEL_KINDS:
            key = (q["graph"], q["rule"])
            if key not in steps:
                g = graphs[q["graph"]]
                steps[key] = step_us(g, q["rule"], 200 if g.n >= 5000 else 2000)
    for role, (kind, rule) in STEP_ROLES.items():
        q = next(q for q in work.questions if q["kind"] == kind and q["rule"] == rule)
        m[f"dynamics.step_us.{role}"] = steps[(q["graph"], q["rule"])]
    k = fixlab.kernel_matrix(large, "bd")
    m["dynamics.nnz.large"] = int(k.nnz)
    # one CSR matvec reads data, indices, indptr and x and writes y; clip
    # reads and writes y again
    m["dynamics.bytes_per_step.large"] = int(
        k.nnz * (k.data.itemsize + k.indices.itemsize)
        + (large.n + 1) * k.indptr.itemsize + 4 * 8 * large.n)

    total = loop = 0.0
    iterations = 0
    for _, s in named(spans, "solver.solve"):
        q = qs[s["question"]]
        it = answers[q["id"]]["iterations"]
        iterations += it
        total += duration(s)
        loop += duration(s) - it * steps[(q["graph"], q["rule"])] * 1e-6
    m["solver.iterations"] = iterations
    m["solver.us_per_iteration"] = total / iterations * 1e6
    m["solver.loop_us_per_iteration"] = loop / iterations * 1e6
    mttf = named(spans, "mttf.mttf_lower_bound")
    it = sum(answers[s["question"]]["iterations"] for _, s in mttf)
    m["mttf.iterations"] = it
    m["mttf.us_per_iteration"] = sum(duration(s) for _, s in mttf) / it * 1e6
    return m, []


def _cli_overhead(work):
    """Median extra time of ``fixlab.cli.main`` over the library call, per question."""
    from fixlab import cli
    solves = [q for q in work.questions if q["kind"] == "solve"]
    extra, problems = [], []
    for q in solves[::max(1, len(solves) // CLI_SAMPLE)]:
        argv = ["solve", "--graph", work.path(q["graph"]), "--config", json.dumps(q["config"]),
                "--rule", q["rule"], "--epsilon", repr(q["epsilon"])]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        t_cli = time.perf_counter() - t0
        graph = fixlab.load_graph(work.path(q["graph"]))
        options = fixlab.SolveOptions(rule=q["rule"], epsilon=q["epsilon"])
        t0 = time.perf_counter()
        report = fixlab.solve(graph, q["config"], options)
        t_lib = time.perf_counter() - t0
        extra.append(t_cli - t_lib)
        if code != 0 or json.loads(buf.getvalue()).get("fixation") != report.fixation:
            problems.append(f"cli solve of question {q['id']} differs from the library")
    return statistics.median(extra) * 1e3, len(extra), problems


def _sweep(work, graphs, answers, spans):
    qs = _by_question(work)
    steps = {(q["graph"], q["rule"]): step_us(graphs[q["graph"]], q["rule"], 300)
             for q in work.questions if q["kind"] == "solve"}
    solves = named(spans, "solver.solve")
    fixed = []
    for _, s in solves:
        if s["parent"] is None:  # a question's own solve, not bound_report's
            q = qs[s["question"]]
            it = answers[q["id"]]["iterations"]
            fixed.append(duration(s) - it * steps[(q["graph"], q["rule"])] * 1e-6)
    m = {
        "solver.calls": len(solves),
        "solver.call_fixed_ms": statistics.median(fixed) * 1e3,
        "bounds.self_ms": statistics.median(
            self_time(spans, i) for i, _ in named(spans, "bounds.bound_report")) * 1e3,
    }
    m["cli.overhead_ms"], replayed, problems = _cli_overhead(work)
    m["cli.replayed"] = replayed
    return m, problems


def _simulate(work, graphs, answers, spans):
    qs = _by_question(work)
    events, wall = {}, {}
    cpu = capped = 0
    calls = {}  # the k-th estimate span of a question ran the question's k-th rule
    for _, s in named(spans, "montecarlo.estimate"):
        q = qs[s["question"]]
        k = calls[q["id"]] = calls.get(q["id"], -1) + 1
        rule = q["rules"][k]["rule"]
        a = answers[q["id"]]["rules"][k]
        events[rule] = events.get(rule, 0) + a["events"]
        wall[rule] = wall.get(rule, 0.0) + duration(s)
        cpu += s["cpu"]
        capped += a["capped"]
    m = {"montecarlo.events": sum(events.values()),
         "montecarlo.cpu_over_wall": cpu / sum(wall.values()),
         "montecarlo.capped_runs": capped}
    for rule in events:
        m[f"montecarlo.events_per_s.{rule}"] = events[rule] / wall[rule]
    return m, []


def _exact(work, graphs, answers, spans):
    queries = sorted(named(spans, "oracle.fixation_exact") + named(spans, "oracle.mean_times_exact"))
    seen, factor, later = set(), 0.0, []
    for _, s in queries:
        if s["question"] in seen:
            later.append(duration(s))
        else:
            # the first query on a chain factorizes the system and runs five solves
            seen.add(s["question"])
            factor += duration(s)
    m = {
        "oracle.states": sum(a["states"] for a in answers.values()),
        "oracle.nnz": sum(a["nnz"] for a in answers.values()),
        "oracle.build_s": sum(duration(s) for _, s in named(spans, "oracle.build_chain")),
        "oracle.factor_s": factor,
        "oracle.query_us": statistics.median(later) * 1e6,
    }
    return m, []


_MEASURE = {"iterate": _iterate, "sweep": _sweep, "simulate": _simulate, "exact": _exact}


def measure(work, graphs, answers, spans):
    """(metrics, problems) for the workload's layers, from its traced pass."""
    return _MEASURE[work.name](work, graphs, answers, spans)
