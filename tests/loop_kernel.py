"""The neutral kernels built with scipy sparse arithmetic, kept as the test reference.

This is the build that ``fixlab.dynamics.engine_kernel`` replaced with
arrays built straight from the graph's incoming arrays. The body of
``kernel_matrix`` is the package's former one, without its cache; the
tests require ``fixlab.kernel_matrix`` to give the same ``indptr``,
``indices`` and ``data``, bit for bit, and the engine the same rows.
"""

import numpy as np
from scipy.sparse import csr_matrix, identity

from fixlab.dynamics import Rule, check_neighbours, neutral_part


def incoming_matrix(graph, weighted=True):
    """Sparse operator B with B[i, j] = w_ji (or 1) for each edge (j, i)."""
    rows = np.repeat(np.arange(graph.n), np.diff(graph.in_ptr))
    data = graph.in_w if weighted else np.ones_like(graph.in_w)
    return csr_matrix((data, (rows, graph.in_src)), shape=(graph.n, graph.n))


def kernel_matrix(graph, rule):
    """The sparse row-stochastic operator of one update step."""
    rule = neutral_part(rule)
    n = graph.n
    if rule is Rule.BD:
        win = incoming_matrix(graph, weighted=True)
        op = identity(n, format="csr") + (win - _diag(graph.temperatures)) / n
    elif rule is Rule.DB:
        # the neutral birth-death kernel stays row-stochastic without out-edges
        check_neighbours(graph, rule, "step")
        uin = incoming_matrix(graph, weighted=False)
        scale = 1.0 / (n * graph.k_in)
        op = _diag(np.full(n, 1.0 - 1.0 / n)) + _scale_rows(uin, scale)
    elif rule is Rule.LD:
        m = len(graph.edges)
        if m == 0:
            raise ValueError("link-dynamics step undefined on an edgeless graph")
        uin = incoming_matrix(graph, weighted=False)
        op = _diag(1.0 - graph.k_in / m) + uin / m
    else:  # pragma: no cover
        raise ValueError(f"no deterministic kernel for {rule}")
    return op.tocsr()


def _diag(values):
    n = len(values)
    return csr_matrix((np.asarray(values, dtype=float), (np.arange(n), np.arange(n))), shape=(n, n))


def _scale_rows(m, scale):
    return _diag(scale) @ m
