"""The kernel build gives the same arrays as the sparse-arithmetic reference.

``fixlab.dynamics.engine_kernel`` builds each neutral kernel straight
from the graph's incoming arrays, with the vertices relabelled in order
of row length. ``kernel_matrix`` is the same build in vertex order. Both
are compared here, bit for bit and entry by entry in storage order, with
``tests/loop_kernel.py``, the build they replaced.
"""

import numpy as np
import pytest

from fixlab import NEUTRAL_RULES, EvolutionaryGraph, Rule, generate, kernel_matrix
from fixlab.dynamics import engine_kernel

from . import loop_kernel as ref
from .util import cycle_graph, random_digraph, star_graph


def _bits(a):
    return a.dtype.str, a.tobytes()


def assert_same_build(graph, rule):
    want = ref.kernel_matrix(graph, rule)
    got = kernel_matrix(graph, rule)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    # the engine's rows, mapped back, are the reference's rows in storage order
    kernel = engine_kernel(graph, rule)
    assert np.array_equal(np.sort(kernel.order), np.arange(graph.n))
    assert np.array_equal(kernel.rank[kernel.order], np.arange(graph.n))
    # the first copy of the stacked arrays
    indptr, indices, data = kernel.stacked
    lengths = np.diff(indptr[:graph.n + 1])
    assert (np.diff(lengths) >= 0).all()
    for k, v in enumerate(kernel.order.tolist()):
        lo, hi = indptr[k], indptr[k + 1]
        wlo, whi = want.indptr[v], want.indptr[v + 1]
        assert kernel.order[indices[lo:hi]].tolist() == want.indices[wlo:whi].tolist()
        assert data[lo:hi].tobytes() == want.data[wlo:whi].tobytes()
    return got


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_kernel_matrix_builds_no_engine_kernel(rule):
    g = random_digraph(3, 12)
    kernel_matrix(g, rule)
    assert ("matrix", rule) in g._ops and ("kernel", rule) not in g._ops


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
@pytest.mark.parametrize("n", (2, 3, 4, 6, 9, 14, 22, 35, 60))
def test_random_digraphs_build_the_reference_kernel(rule, n):
    for seed in range(3):
        assert_same_build(random_digraph(seed + n, n, p=0.3 + 0.2 * seed), rule)
        assert_same_build(random_digraph(seed, n, weighted=False), rule)


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
@pytest.mark.parametrize("kind, kw", [
    ("preferential_attachment", {"m": 2}),
    ("preferential_attachment", {"m": 1}),
    ("erdos_renyi", {"p": 0.05}),
])
def test_generated_graphs_build_the_reference_kernel(rule, kind, kw):
    for weighting in ("random", "unweighted"):
        g = generate(kind, 400, seed=7, weighting=weighting, **kw)
        assert_same_build(g, rule)
        # the hubs come last, so the engine's order is not the identity
        assert not np.array_equal(engine_kernel(g, rule).order, np.arange(g.n))


def test_vertex_without_in_edges_keeps_its_bd_diagonal():
    g = EvolutionaryGraph(3, [(0, 1, 0.4), (0, 2, 0.6), (1, 2, 1.0), (2, 1, 1.0)])
    assert g.k_in[0] == 0
    k = assert_same_build(g, Rule.BD)
    assert k[0].toarray().tolist() == [[1.0, 0.0, 0.0]]
    assert_same_build(g, Rule.LD)


def test_in_star_drops_its_zero_ld_diagonal():
    g = EvolutionaryGraph(5, [(j, 0, 1.0) for j in range(1, 5)] + [(0, 1, 1.0)])
    # all edges but one enter the hub: its LD diagonal is 1 - 4/5
    assert_same_build(g, Rule.LD)
    # every edge enters the hub: its LD diagonal is exactly 0 and not stored
    inward = EvolutionaryGraph(4, [(j, 0, 1.0) for j in range(1, 4)])
    k = assert_same_build(inward, Rule.LD)
    assert 1.0 - inward.k_in[0] / len(inward.edges) == 0.0
    assert 0 not in k.indices[k.indptr[0]:k.indptr[1]].tolist()
    assert (k.data != 0).all()
    assert_same_build(inward, Rule.BD)
    assert_same_build(star_graph(6), Rule.LD)


def test_bd_entry_that_underflows_to_zero_is_not_stored():
    g = EvolutionaryGraph(3, [(0, 1, 1.0), (0, 2, 5e-324), (1, 2, 1.0), (2, 0, 1.0)])
    # edge (0, 2) carries 5e-324 * (1/3), which rounds to 0
    k = assert_same_build(g, Rule.BD)
    assert k.nnz == 6
    assert (k.data != 0).all()
    assert 0 not in k.indices[k.indptr[2]:k.indptr[3]].tolist()


def test_db_diagonal_sits_at_its_column_while_no_vertex_has_two_in_edges():
    for g in (cycle_graph(5), random_digraph(1, 2)):
        k = assert_same_build(g, Rule.DB)
        assert k.has_sorted_indices
    k = assert_same_build(random_digraph(1, 5), Rule.DB)
    # with two in-edges the diagonal comes last, after the in-edges in order
    assert [k.indices[k.indptr[v + 1] - 1] for v in range(5)] == list(range(5))


def test_single_vertex_builds_the_reference_kernel():
    g = EvolutionaryGraph(1, [])
    k = assert_same_build(g, Rule.BD)
    assert k.toarray().tolist() == [[1.0]]
    for rule, message in ((Rule.DB, "no incoming edges"), (Rule.LD, "edgeless")):
        with pytest.raises(ValueError, match=message):
            ref.kernel_matrix(g, rule)
        with pytest.raises(ValueError, match=message):
            engine_kernel(g, rule)
