"""How each kind of question is asked of fixlab.

Every library call goes through ``call(span_name, function, *args)``,
which either calls straight through or records a span around the call.
An ask returns ``(answer, evidence)``: the answer is plain data that
must be identical on every pass; the evidence is any library object the
reference checks need afterwards (only kept for the first pass).
"""

import fixlab


def solve(call, graphs, q):
    options = fixlab.SolveOptions(rule=q["rule"], epsilon=q["epsilon"])
    report = call("solver.solve", fixlab.solve, graphs[q["graph"]], q["config"], options)
    lo, hi = report.bracket()
    return {"fixation": report.fixation, "lo": lo, "hi": hi,
            "iterations": report.iterations, "converged": report.converged}, None


def mttf(call, graphs, q):
    report = call("mttf.mttf_lower_bound", fixlab.mttf_lower_bound, graphs[q["graph"]],
                  q["config"], rule=fixlab.parse_rule(q["rule"]), stop_stdev=q["stop_stdev"])
    return {"lower_bound": report.lower_bound, "normalizer": report.normalizer,
            "iterations": report.iterations, "truncated": report.truncated}, None


def trajectory(call, graphs, q):
    table = call("solver.trajectory", fixlab.trajectory, graphs[q["graph"]], q["config"],
                 rule=fixlab.parse_rule(q["rule"]), steps=q["steps"])
    return {"rows": len(table), "min": [float(x) for x in table.min],
            "max": [float(x) for x in table.max]}, None


def bounds(call, graphs, q):
    report = call("bounds.bound_report", fixlab.bound_report, graphs[q["graph"]],
                  q["vertex"], q["r"], q["rule"], epsilon=q["epsilon"])
    return {"lower": report.lower, "upper": report.upper,
            "vacuous_upper": report.vacuous_upper,
            "formula_available": report.formula_available}, None


def degree_class(call, graphs, q):
    labels = call("solver.degree_selection_class", fixlab.degree_selection_class,
                  graphs[q["graph"]])
    return {"labels": list(labels)}, None


def estimate(call, graphs, q):
    """One starting vertex under every rule: one ``estimate`` call per rule."""
    g = graphs[q["graph"]]
    answers = []
    for spec in q["rules"]:
        s = call("montecarlo.estimate", fixlab.estimate, g, q["config"], rule=spec["rule"],
                 r=spec["r"], runs=spec["runs"], seed=spec["seed"])
        finished = s.runs - s.capped_runs
        steps = round(s.mean_absorption_time * finished) if finished else 0
        # capped runs count at the library's default cap of 1e6 events per vertex
        answers.append({"runs": s.runs, "fixations": s.fixations, "capped": s.capped_runs,
                        "events": steps + s.capped_runs * 1_000_000 * g.n})
    return {"rules": answers}, None


def exact(call, graphs, q):
    g = graphs[q["graph"]]
    chain = call("oracle.build_chain", fixlab.build_chain, g, rule=q["rule"], r=q["r"])
    fixation, absorption = [], []
    for v in range(g.n):
        fixation.append(call("oracle.fixation_exact", fixlab.fixation_exact, chain, [v]))
        times = call("oracle.mean_times_exact", fixlab.mean_times_exact, chain, [v])
        absorption.append(times.absorption)
    answer = {"fixation": fixation, "absorption": absorption,
              "states": int(chain.n_states), "nnz": int(chain.transitions.nnz)}
    return answer, chain


# questions that iterate a neutral kernel
KERNEL_KINDS = ("solve", "mttf", "trajectory")

ASK = {
    "solve": solve, "mttf": mttf, "trajectory": trajectory, "bounds": bounds,
    "degree_class": degree_class, "estimate": estimate, "exact": exact,
}
