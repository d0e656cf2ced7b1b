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


# 32 rows spread the per-call costs of a step's statistics without computing
# many unused rows past a short solve's stop; at large N, where the sparse
# product is the cost anyway, the cell cap keeps a block within 512 KB
# (one row when a row alone is larger)
_BLOCK_ROWS = 32
_BLOCK_CELLS = 1 << 16


def block_height(n):
    """Rows per block of ``blocks`` at population size n: 32, fewer past 2048."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // n))


def blocks(graph, rule, values, steps=None):
    """The kernel engine: yield the steps from ``values`` a block at a time.

    Each block is a fresh ``(rows, n)`` float64 array of
    ``block_height(n)`` rows; row k holds the vector one step after row
    k - 1, and the first row of the first block is one step after
    ``values``. With ``steps`` given the blocks hold exactly that many
    rows in all (the last one is cut short), else they never end.
    Callers take their per-step statistics once per block, with
    axis-1 ufunc reductions, and stop the loop.

    The kernel is looked up once and ``values`` is checked once: it must
    be a vector of length ``graph.n`` (anything numpy converts to one,
    read as float64), else ``ValueError``; it is never written. Each
    step is one call of scipy's CSR matrix-vector kernel, the one
    ``op @ values`` runs, into its row, and every row is bit for bit
    ``np.clip(op @ values, 0, 1)`` of the row before.

    The clips run only where they can act. The first step is clipped
    to [0, 1], since the caller's vector may lie outside it. After it
    every kernel entry is >= 0 and every value lies in [0, 1] (or is
    NaN), so no product falls below 0, and one passes 1 only by
    rounding, when its kernel row sums past 1. So the later steps of a
    block run unclipped, and the block is checked once before it is
    yielded: if an entry passes 1 (NaN is ignored, as ``np.minimum``
    passes it through), the block is redone from its first such row
    with the clip at 1, which then runs on every later step.
    """
    op = kernel_matrix(graph, rule)
    n = graph.n
    values = np.asarray(values, dtype=np.float64)
    # the kernel does no bounds checking, so this guard keeps it in bounds
    if values.shape != (n,):
        raise ValueError(f"vector of shape {values.shape} != population size ({n},)")
    if steps is not None and steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    values = np.ascontiguousarray(values)
    matvec, minimum, fmax = _sparsetools.csr_matvec, np.minimum, np.fmax
    indptr, indices, data = op.indptr, op.indices, op.data
    height = block_height(n)
    left = math.inf if steps is None else steps
    first, clip = True, False
    while left > 0:
        block = rows = np.zeros((min(height, left), n))
        if first:
            row = block[0]
            matvec(n, n, indptr, indices, data, values, row)
            minimum(row, 1.0, out=row)
            np.maximum(row, 0.0, out=row)
            values, first = row, False
            # a one-step block (``step_values``) has nothing left to run or check
            rows = block[1:] if len(block) > 1 else ()
        if not clip:
            for row in rows:
                matvec(n, n, indptr, indices, data, values, row)
                values = row
            if len(rows) and fmax.reduce(rows, axis=None) > 1.0:
                # redo from the first row past 1, clipping from there on
                k = int(np.argmax(fmax.reduce(rows, axis=1) > 1.0))
                values, rows, clip = rows[k], rows[k + 1:], True
                minimum(values, 1.0, out=values)
                # the kernel adds onto its output row
                rows.fill(0.0)
        if clip:
            for row in rows:
                matvec(n, n, indptr, indices, data, values, row)
                minimum(row, 1.0, out=row)
                values = row
        left -= len(block)
        yield block


def iterate(graph, rule, values):
    """Yield the vector after each step of the kernel, without end.

    The rows of ``blocks``, one by one: each is its own memory, never
    written after it is yielded, and the caller's vector is never
    written; callers stop the loop.
    """
    for block in blocks(graph, rule, values):
        yield from block


def step_values(graph, rule, values):
    """One update step on a raw array, returning a new array."""
    return next(blocks(graph, rule, values, 1))[0]


def step(graph, rule, pv):
    """One update step of a ProbabilityVector, advancing its time."""
    return ProbabilityVector(values=step_values(graph, rule, pv.values), t=pv.t + 1)


def std(values):
    """``np.std`` of each row of a float64 array, bit for bit.

    The same operations in the same order as numpy's own (sum over n,
    subtract, square in place, sum over n, square root), along the last
    axis, without the wrapper's cost. A row-wise reduction of a block
    gives each row the bits of the 1-D one, so a ``(rows, n)`` block
    gives an array of ``rows`` values and a vector gives a float.
    """
    n = values.shape[-1]
    dev = values - np.add.reduce(values, axis=-1, keepdims=True) / n
    np.square(dev, out=dev)
    out = np.sqrt(np.add.reduce(dev, axis=-1) / n)
    return out if values.ndim > 1 else float(out)


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
