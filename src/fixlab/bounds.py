"""Bounds on the fixation probability of a fitness-advantaged mutant.

Deterministic iteration only covers neutral fitness, but it still
brackets the advantaged case: fixation probability at fitness r >= 1
is at least the neutral value, and for a single starting mutant each
rule admits a closed-form upper bound built from the weights around
that vertex. Upper bounds are clamped to [0, 1]; a clamped bound is
flagged vacuous rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Rule, neutral_part, resolve_rule
from .graphs import check_config
from .solver import SolveOptions, solve

UPPER_BOUND_RULES = (Rule.BD_B, Rule.BD_D, Rule.DB_B, Rule.DB_D)


def _raw_upper(graph, i, r, rule):
    if rule is Rule.BD_B:
        return r / (r + float(graph.temperatures[i]))
    if rule is Rule.BD_D:
        _, w_in = graph.in_neighbors(i)
        if len(w_in) == 0:
            return np.inf
        return 1.0 / float(np.sum(w_in / (r - r * w_in + w_in)))
    if rule is Rule.DB_B:
        _, w_out = graph.out_neighbors(i)
        return float(np.sum(r * w_out / (1.0 - w_out + r * w_out)))
    if rule is Rule.DB_D:
        _, w_out = graph.out_neighbors(i)
        return r * float(np.sum(w_out))
    raise ValueError(
        f"no single-mutant upper bound formula for rule {rule}; "
        f"available for {[str(x) for x in UPPER_BOUND_RULES]}"
    )


def upper_bound_single(graph, i, r, rule):
    """Closed-form upper bound on single-mutant fixation, clamped to [0, 1].

    The birth-biased and death-biased BD bounds read the weights of the
    incoming edges of i; the DB bounds read the outgoing ones. Link
    dynamics has no formula and is rejected here.
    """
    rule = resolve_rule(rule, r)
    (i,) = check_config(graph, [i])
    if r < 1.0:
        raise ValueError(f"upper bound stated for fitness r >= 1, got {r}")
    return float(min(1.0, max(0.0, _raw_upper(graph, i, r, rule))))


@dataclass(frozen=True)
class BoundReport:
    rule: Rule
    r: float
    lower: float
    upper: float
    vacuous_upper: bool
    formula_available: bool


def bound_report(graph, i, r, rule, epsilon=1e-6):
    """Two-sided enclosure of single-mutant fixation at fitness r.

    Lower side: the bottom of the bracket of a neutral solve of the
    rule's family to ``epsilon / 2``, so ``lower`` never exceeds the
    neutral value and lies within ``epsilon`` of it. Upper side: the
    per-rule closed form when one exists, else 1 with
    ``formula_available=False`` (link dynamics). ``vacuous_upper``
    marks bounds that only hold because of clamping.
    """
    rule = resolve_rule(rule, r)
    if r < 1.0:
        raise ValueError(f"bounds stated for fitness r >= 1, got {r}")
    if rule in (Rule.BD, Rule.DB):
        raise ValueError(
            f"rule {rule} does not say where fitness acts; pick "
            f"{rule.value}-b or {rule.value}-d (or ld)"
        )
    options = SolveOptions(rule=neutral_part(rule), epsilon=epsilon / 2)
    lo = solve(graph, [i], options).bracket()[0]
    # with no closed form (ld) the upper side clamps +inf: 1, flagged vacuous
    raw = _raw_upper(graph, i, r, rule) if rule in UPPER_BOUND_RULES else np.inf
    report = BoundReport(
        rule=rule, r=r, lower=lo, upper=float(min(1.0, max(0.0, raw))),
        vacuous_upper=bool(raw > 1.0), formula_available=rule in UPPER_BOUND_RULES,
    )
    if report.lower > report.upper + 2.0 * epsilon:
        raise ArithmeticError(
            f"bound inversion: lower {report.lower} above upper {report.upper}"
        )
    return report
