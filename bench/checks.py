"""Reference checks for every workload's answers.

Each check judges an answer by a route that does not share the code path
that produced it:

* iterated fixation is compared with the stationary vector of
  ``kernel_matrix``, found here by one sparse direct solve;
* sweep singletons are compared with the undirected closed forms, and
  bound reports with the upper formula recomputed here from the input
  file's weights;
* simulated frequencies are compared, pooled per rule, with that
  stationary vector (the neutral lower side) and the closed-form upper
  bounds, allowing four standard errors;
* exact-chain answers are substituted back into h = P h and
  a = 1 + Q a, built from ``chain.transitions``.

``check`` returns ``{question id: reason}`` for every failed question;
``exact_chain`` checks one chain while it is still in memory.
"""

import math

import numpy as np
from scipy.sparse import identity
from scipy.sparse.linalg import spsolve

import fixlab

ABS_TOL = 1e-9
Z = 4.0


class Stationary:
    """Left stationary vectors pi (pi K = pi, sum pi = 1) of the neutral kernels."""

    def __init__(self, graphs):
        self.graphs = graphs
        self.cache = {}

    def __call__(self, name, rule):
        key = (name, str(fixlab.neutral_part(rule)))
        if key not in self.cache:
            k = fixlab.kernel_matrix(self.graphs[name], rule)
            n = k.shape[0]
            a = (k.T - identity(n, format="csr")).tolil()
            a[n - 1, :] = np.ones(n)
            b = np.zeros(n)
            b[n - 1] = 1.0
            self.cache[key] = spsolve(a.tocsc(), b)
        return self.cache[key]

    def fixation(self, name, rule, config):
        return float(self(name, rule)[list(config)].sum())


def _iterate(questions, answers, graphs, inputs):
    pi = Stationary(graphs)
    failed = {}
    for q in questions:
        a = answers[q["id"]]
        name = q["graph"]
        if q["kind"] == "solve":
            ref = pi.fixation(name, q["rule"], q["config"])
            eps = q["epsilon"]
            if not a["converged"]:
                failed[q["id"]] = "did not converge"
            elif abs(a["fixation"] - ref) > eps + ABS_TOL:
                failed[q["id"]] = f"fixation {a['fixation']} vs stationary {ref}"
            elif a["hi"] - a["lo"] > 2 * eps + ABS_TOL:
                failed[q["id"]] = f"bracket width {a['hi'] - a['lo']} above 2 eps"
            elif not a["lo"] - ABS_TOL <= ref <= a["hi"] + ABS_TOL:
                failed[q["id"]] = "stationary answer outside the bracket"
        elif q["kind"] == "mttf":
            # the bracket [min, max] holds pi.x0 and is at most 2 sqrt(n) stdev wide
            ref = pi.fixation(name, q["rule"], q["config"])
            slack = 2 * math.sqrt(graphs[name].n) * q["stop_stdev"] + ABS_TOL
            if a["truncated"] or not a["iterations"] > 0:
                failed[q["id"]] = "truncated or no iterations"
            elif not (math.isfinite(a["lower_bound"]) and a["lower_bound"] > 0):
                failed[q["id"]] = f"lower bound {a['lower_bound']}"
            elif abs(a["normalizer"] - ref) > slack:
                failed[q["id"]] = f"normalizer {a['normalizer']} vs stationary {ref}"
        elif q["kind"] == "trajectory":
            lo, hi = np.array(a["min"]), np.array(a["max"])
            if a["rows"] != q["steps"] + 1:
                failed[q["id"]] = f"{a['rows']} rows for {q['steps']} steps"
            elif (np.diff(lo) < -1e-12).any() or (np.diff(hi) > 1e-12).any():
                failed[q["id"]] = "bd trajectory min decreased or max increased"
    return failed


def _temperatures(edges, n):
    t = np.zeros(n)
    for _, d, w in edges:
        t[d] += w
    return t


def _sweep(questions, answers, graphs, inputs):
    failed = {}
    ld_sums = {}
    for q in questions:
        a = answers[q["id"]]
        g = graphs[q["graph"]]
        if q["kind"] == "solve":
            if q["rule"] == "ld":
                ld_sums.setdefault(q["graph"], []).append((q["id"], a["fixation"], q["epsilon"]))
                continue
            ref = fixlab.undirected_closed_form(g, q["config"][0], q["rule"]).fixation
            if abs(a["fixation"] - ref) > q["epsilon"] + ABS_TOL:
                failed[q["id"]] = f"fixation {a['fixation']} vs closed form {ref}"
        elif q["kind"] == "bounds":
            v, r = q["vertex"], q["r"]
            lower = fixlab.undirected_closed_form(g, v, "bd").fixation
            temp = _temperatures(inputs[q["graph"]]["edges"], g.n)[v]
            upper = min(1.0, r / (r + temp))
            if abs(a["lower"] - lower) > q["epsilon"] + ABS_TOL:
                failed[q["id"]] = f"lower {a['lower']} vs closed form {lower}"
            elif abs(a["upper"] - upper) > 1e-12:
                failed[q["id"]] = f"upper {a['upper']} vs r/(r+T) {upper}"
            elif not a["formula_available"]:
                failed[q["id"]] = "bd-b upper formula reported missing"
        elif q["kind"] == "degree_class":
            k = np.array([sum(1 for e in inputs[q["graph"]]["edges"] if e[0] == v)
                          for v in range(g.n)], dtype=float)
            threshold = 1.0 / float(np.mean(1.0 / k))
            tie = 1e-9 * max(1.0, threshold)
            expect = ["neutral" if abs(x - threshold) <= tie else
                      "amplifier" if x < threshold else "suppressor" for x in k]
            if a["labels"] != expect:
                failed[q["id"]] = "degree classes differ from the degree threshold"
    for name, rows in ld_sums.items():
        total = sum(f for _, f, _ in rows)
        slack = graphs[name].n * rows[0][2] + ABS_TOL
        if abs(total - 1.0) > slack:
            for qid, _, _ in rows:
                failed[qid] = f"ld singletons on {name} sum to {total}"
    return failed


def _simulate(questions, answers, graphs, inputs):
    pi = Stationary(graphs)
    failed = {}
    by_rule = {}
    for q in questions:
        for spec, a in zip(q["rules"], answers[q["id"]]["rules"]):
            if a["runs"] != spec["runs"] or not 0 <= a["fixations"] <= a["runs"]:
                failed[q["id"]] = f"{a['fixations']} fixations in {a['runs']} runs"
            elif a["capped"]:
                failed[q["id"]] = f"{a['capped']} runs hit the event cap"
            by_rule.setdefault((spec["rule"], spec["r"]), []).append((q, spec, a))
    for (rule, r), rows in by_rule.items():
        runs = sum(a["runs"] for _, _, a in rows)
        freq = sum(a["fixations"] for _, _, a in rows) / runs
        # the binomial error of the pooled frequency bounds the error of a
        # sum of Bernoulli runs with differing probabilities; the 1/runs
        # floor keeps the band open when no run fixates
        se = math.sqrt(max(freq * (1 - freq), 1.0 / runs) / (runs - 1))
        lower = sum(spec["runs"] * pi.fixation(q["graph"], rule, q["config"])
                    for q, spec, _ in rows) / runs
        if r == 1.0:
            upper = lower
        elif str(fixlab.parse_rule(rule)) == "ld":
            upper = 1.0  # link dynamics has no upper formula
        else:
            upper = sum(spec["runs"] * fixlab.upper_bound_single(
                graphs[q["graph"]], q["config"][0], r, rule) for q, spec, _ in rows) / runs
        if not lower - Z * se <= freq <= upper + Z * se:
            for q, _, _ in rows:
                failed.setdefault(q["id"], f"{rule} r={r}: pooled frequency {freq:.4f} "
                                           f"outside [{lower:.4f}, {upper:.4f}] +- {Z} SE")
    return failed


def exact_chain(q, answer, chain):
    """Residuals of h = P h and a = 1 + Q a over every transient state."""
    p = chain.transitions
    full = chain.n_states - 1
    sums = np.asarray(p.sum(axis=1)).ravel()
    if np.abs(sums - 1.0).max() > ABS_TOL:
        return "chain rows do not sum to 1"
    h = np.zeros(chain.n_states)
    a = np.zeros(chain.n_states)
    h[full] = 1.0
    for s in range(1, full):
        config = fixlab.config_of(s, chain.n)
        h[s] = fixlab.fixation_exact(chain, config)
        a[s] = fixlab.mean_times_exact(chain, config).absorption
    transient = slice(1, full)
    res_h = np.abs((p @ h - h)[transient]).max()
    res_a = np.abs((p @ a + 1.0 - a)[transient]).max()
    singles = [h[1 << v] for v in range(chain.n)]
    if res_h > ABS_TOL:
        return f"residual of h = P h is {res_h:.3g}"
    if res_a > ABS_TOL * max(1.0, a.max()):
        return f"residual of a = 1 + Q a is {res_a:.3g} (max a {a.max():.3g})"
    if answer["fixation"] != singles:
        return "singleton answers differ from the all-state solution"
    if q["rule"] == "bd" and abs(sum(singles) - 1.0) > ABS_TOL:
        return f"bd singletons sum to {sum(singles)}"
    return None


def check(workload, questions, answers, graphs, inputs):
    """Failed question ids with reasons, from the answers of one pass."""
    if workload == "exact":
        return {}  # each chain is checked by exact_chain as soon as it is answered
    return _CHECKS[workload](questions, answers, graphs, inputs)


_CHECKS = {"iterate": _iterate, "sweep": _sweep, "simulate": _simulate}
