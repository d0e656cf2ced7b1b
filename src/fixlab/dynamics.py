"""One-step update kernels for per-vertex mutant probabilities.

Each kernel is a linear row-stochastic map applied synchronously: the
whole next vector is computed from the whole previous vector. Constant
vectors are fixed points, convex combinations are preserved, and under
the birth-death kernel the running minimum never decreases while the
running maximum never increases.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools, csr_matrix, identity

from .graphs import check_config


class Rule(enum.Enum):
    """Update rules: who is drawn first and where fitness enters.

    BD picks the reproducing vertex first, DB picks the dying vertex
    first, LD picks an edge. The -B / -D suffix marks whether fitness
    biases the birth draw or the death draw; the plain names are the
    neutral (fitness 1) kernels. LD has a single biased form because
    biasing either draw yields the same process.
    """

    BD = "bd"
    DB = "db"
    LD = "ld"
    BD_B = "bd-b"
    BD_D = "bd-d"
    DB_B = "db-b"
    DB_D = "db-d"

    def __str__(self):
        return self.value


NEUTRAL_RULES = (Rule.BD, Rule.DB, Rule.LD)
BIASED_RULES = (Rule.BD_B, Rule.BD_D, Rule.DB_B, Rule.DB_D, Rule.LD)

_NEUTRAL_OF = {
    Rule.BD: Rule.BD, Rule.DB: Rule.DB, Rule.LD: Rule.LD,
    Rule.BD_B: Rule.BD, Rule.BD_D: Rule.BD,
    Rule.DB_B: Rule.DB, Rule.DB_D: Rule.DB,
}


def parse_rule(name):
    try:
        return Rule(str(name).lower())
    except ValueError:
        raise ValueError(
            f"unknown rule {name!r}; choose from "
            + ", ".join(r.value for r in Rule)
        ) from None


def resolve_rule(rule, r=1.0, kernel=False):
    """The one check of a rule name and the fitness it is used with.

    Names are case-insensitive. Fitness must be finite and positive.
    The neutral ``bd`` and ``db`` names do not say which draw fitness
    biases, so they are refused at r != 1; ``ld`` has a single biased
    form and takes any r. With ``kernel=True`` (kernel iteration,
    which is neutral by construction) biased names are refused too.
    """
    if not isinstance(rule, Rule):
        rule = parse_rule(rule)
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"fitness r must be finite and positive, got {r}")
    if rule in (Rule.BD, Rule.DB) and r != 1.0:
        raise ValueError(
            f"rule {rule} is the neutral kernel; pick {rule.value}-b or "
            f"{rule.value}-d to say where fitness {r} applies"
        )
    if kernel and rule not in NEUTRAL_RULES:
        raise ValueError(
            f"rule {rule} carries a fitness bias; kernel iteration is neutral "
            "only, so use one of the neutral kernels (bd, db, ld)"
        )
    return rule


def neutral_part(rule):
    """The neutral kernel a biased rule collapses to at fitness 1."""
    return _NEUTRAL_OF[resolve_rule(rule)]


@dataclass(frozen=True)
class ProbabilityVector:
    """Per-vertex mutant probabilities after t update steps."""

    values: np.ndarray
    t: int = 0


def init_vector(graph, config):
    """Indicator vector of the initial mutant set, at step 0."""
    members = check_config(graph, config)
    values = np.zeros(graph.n)
    for v in members:
        values[v] = 1.0
    return ProbabilityVector(values=values, t=0)


def check_neighbours(graph, rule, what):
    """Refuse a graph on which one event of the rule's family is undefined.

    A death-birth event draws the replacer among the dying vertex's
    incoming neighbours, a birth-death event the target among the
    breeder's outgoing ones; ``what`` names the refused object. LD
    events draw an edge and need no check here.
    """
    family = neutral_part(rule)
    if family is Rule.DB:
        degree, name, side = graph.k_in, "death-birth", "incoming"
    elif family is Rule.BD:
        degree, name, side = graph.k_out, "birth-death", "outgoing"
    else:
        return
    if (degree == 0).any():
        missing = np.flatnonzero(degree == 0).tolist()
        raise ValueError(f"{name} {what} undefined: vertices {missing} have no {side} edges")


def kernel_matrix(graph, rule):
    """The sparse row-stochastic operator of one update step."""
    rule = neutral_part(rule)
    key = ("kernel", rule)
    if key in graph._ops:
        return graph._ops[key]
    n = graph.n
    if rule is Rule.BD:
        win = graph.incoming_matrix(weighted=True)
        op = identity(n, format="csr") + (win - _diag(graph.temperatures)) / n
    elif rule is Rule.DB:
        # the neutral birth-death kernel stays row-stochastic without out-edges
        check_neighbours(graph, rule, "step")
        uin = graph.incoming_matrix(weighted=False)
        scale = 1.0 / (n * graph.k_in)
        op = _diag(np.full(n, 1.0 - 1.0 / n)) + _scale_rows(uin, scale)
    elif rule is Rule.LD:
        m = len(graph.edges)
        if m == 0:
            raise ValueError("link-dynamics step undefined on an edgeless graph")
        uin = graph.incoming_matrix(weighted=False)
        op = _diag(1.0 - graph.k_in / m) + uin / m
    else:  # pragma: no cover
        raise ValueError(f"no deterministic kernel for {rule}")
    op = op.tocsr()
    graph._ops[key] = op
    return op


def _diag(values):
    n = len(values)
    return csr_matrix((np.asarray(values, dtype=float), (np.arange(n), np.arange(n))), shape=(n, n))


def _scale_rows(m, scale):
    return _diag(scale) @ m


def iterate(graph, rule, values):
    """Yield the vector after each step of the kernel, without end.

    The kernel is looked up once and ``values`` is checked once: it must
    be a vector of length ``graph.n`` (anything numpy converts to one,
    read as float64), else ``ValueError``. Each step is one call of
    scipy's CSR matrix-vector kernel, the one ``op @ values`` runs,
    into a fresh array, then a clip to [0, 1] against rounding drift,
    so the results are bit for bit those of ``np.clip(op @ values, 0,
    1)``. Every yielded vector is a new array and the caller's vector
    is never written; callers stop the loop.
    """
    op = kernel_matrix(graph, rule)
    n = graph.n
    values = np.asarray(values, dtype=np.float64)
    # the kernel does no bounds checking, so this guard keeps it in bounds
    if values.shape != (n,):
        raise ValueError(f"vector of shape {values.shape} != population size ({n},)")
    values = np.ascontiguousarray(values)
    matvec = _sparsetools.csr_matvec
    indptr, indices, data = op.indptr, op.indices, op.data
    while True:
        out = np.zeros(n)
        matvec(n, n, indptr, indices, data, values, out)
        np.minimum(out, 1.0, out=out)
        np.maximum(out, 0.0, out=out)
        yield out
        values = out


def step_values(graph, rule, values):
    """One update step on a raw array, returning a new array."""
    return next(iterate(graph, rule, values))


def step(graph, rule, pv):
    """One update step of a ProbabilityVector, advancing its time."""
    return ProbabilityVector(values=step_values(graph, rule, pv.values), t=pv.t + 1)


def std(values):
    """``float(np.std(values))`` of a float64 vector, bit for bit.

    The same operations in the same order as numpy's own (sum over n,
    subtract, square in place, sum over n, square root), without the
    wrapper's cost, which dominates on the small vectors that the
    per-step statistics see.
    """
    n = values.shape[0]
    dev = values - np.add.reduce(values) / n
    np.square(dev, out=dev)
    return math.sqrt(np.add.reduce(dev) / n)


def expected_mutants(pv):
    """Expected mutant count: the sum of the vector's entries."""
    values = pv.values if isinstance(pv, ProbabilityVector) else pv
    return float(np.sum(values))


def expected_mutants_step_residual(graph, prev, nxt):
    """Consistency residual of the birth-death mutant-count recurrence.

    For one birth-death step, the next expected count must equal
    Ex + Ex/N - (1/N) * sum_i T_i * P_i evaluated on the previous
    vector, where T is the vertex temperature. Holds to float rounding
    (about 1e-12 * N) on any graph where every vertex has at least one
    outgoing edge; strong connectivity is not needed.
    """
    p = prev.values if isinstance(prev, ProbabilityVector) else np.asarray(prev, dtype=float)
    q = nxt.values if isinstance(nxt, ProbabilityVector) else np.asarray(nxt, dtype=float)
    ex = float(np.sum(p))
    predicted = ex + ex / graph.n - float(graph.temperatures @ p) / graph.n
    return abs(float(np.sum(q)) - predicted)
