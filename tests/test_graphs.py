import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixlab import (
    GENERATOR_KINDS,
    EvolutionaryGraph,
    check_config,
    feeder_pair_graph,
    generate,
    is_strongly_connected,
    load_graph,
    reaches_all,
    save_graph,
    stats,
    validate,
)
from fixlab import graphs as graphs_mod

from .util import path3, random_digraph, two_cycle, undirected_graph


# ------------------------------------------------------------- validation


def test_validate_accepts_clean_input():
    assert validate(2, [(0, 1, 1.0), (1, 0, 1.0)]) == []


def test_validate_flags_each_violation():
    problems = validate(3, [
        (0, 3, 1.0),       # id out of range
        (1, 1, 1.0),       # self-loop
        (0, 1, -2.0),      # non-positive weight
        (2, 0, 0.7),
        (2, 0, 0.3),       # duplicate
        (1, 0, 0.4),       # row sum off
    ])
    text = "; ".join(problems)
    assert "outside 0..2" in text
    assert "self-loop" in text
    assert "non-positive weight" in text
    assert "more than once" in text
    assert "sum to 0.4" in text


def test_validate_rejects_empty_population():
    assert validate(0, []) != []


def test_constructor_raises_on_bad_rows():
    with pytest.raises(ValueError, match="invalid graph"):
        EvolutionaryGraph(2, [(0, 1, 0.5), (1, 0, 1.0)])


def test_rows_renormalized_exactly():
    # off by less than the tolerance: accepted, then snapped to exact sums
    w = 1.0 + 4e-10
    g = EvolutionaryGraph(2, [(0, 1, w), (1, 0, 1.0)])
    sums = np.zeros(2)
    for s, _, wt in g.edges:
        sums[s] += wt
    assert sums[0] == pytest.approx(1.0, abs=1e-15)


# ------------------------------------------------------------- structure


def test_adjacency_views_agree_with_edges():
    g = random_digraph(11, 6)
    for i in range(g.n):
        dst, w = g.out_neighbors(i)
        listed = sorted((d, wt) for d, wt in zip(dst.tolist(), w.tolist()))
        direct = sorted((d, wt) for s, d, wt in g.edges if s == i)
        assert listed == direct
    for i in range(g.n):
        src, w = g.in_neighbors(i)
        listed = sorted((s, wt) for s, wt in zip(src.tolist(), w.tolist()))
        direct = sorted((s, wt) for s, d, wt in g.edges if d == i)
        assert listed == direct


def test_degrees_and_temperatures():
    g = path3()
    assert g.k_out.tolist() == [1, 2, 1]
    assert g.k_in.tolist() == [1, 2, 1]
    # temperature of the center: two incoming weight-1 edges from leaves
    assert g.temperatures[1] == pytest.approx(2.0)
    assert g.temperatures[0] == pytest.approx(0.5)


def test_incoming_matrix_matches_edges():
    g = random_digraph(3, 5)
    b = g.incoming_matrix().toarray()
    for s, d, w in g.edges:
        assert b[d, s] == pytest.approx(w)
    assert b.sum() == pytest.approx(sum(w for _, _, w in g.edges))


def test_out_cum_ends_at_one():
    g = random_digraph(7, 6)
    for i in range(g.n):
        lo, hi = g.out_ptr[i], g.out_ptr[i + 1]
        assert g.out_cum[hi - 1] == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(g.out_cum[lo:hi]) > 0).all()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 9))
def test_ingest_rows_sum_to_one(seed, n):
    g = random_digraph(seed, n)
    sums = np.zeros(g.n)
    for s, _, w in g.edges:
        sums[s] += w
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert list(g.edges) == sorted(g.edges, key=lambda e: (e[0], e[1]))


# ------------------------------------------------------------- configs


def test_check_config_normalizes_to_frozenset():
    g = two_cycle()
    assert check_config(g, [0]) == frozenset({0})
    assert check_config(g, {1, 0}) == frozenset({0, 1})
    assert check_config(g, []) == frozenset()


def test_check_config_rejects_bad_ids():
    g = two_cycle()
    with pytest.raises(ValueError):
        check_config(g, [2])
    with pytest.raises(ValueError):
        check_config(g, [-1])


def test_check_config_refuses_to_truncate_ids():
    g = two_cycle()
    for bad in (1.7, 1.0, True):
        with pytest.raises(ValueError, match="not an integer"):
            check_config(g, [bad])
    assert check_config(g, [np.int64(1)]) == frozenset({1})


def test_non_finite_weights_are_rejected():
    for w in (math.nan, math.inf):
        assert any("non-finite weight" in p for p in validate(2, [(0, 1, w), (1, 0, 1.0)]))


@pytest.mark.parametrize("edge, fragment", [
    ([0, 1, None], "non-numeric weight None"),
    ([0, 1, "1.0"], "non-numeric weight '1.0'"),
    ([0, 1, True], "non-numeric weight True"),
    ([0, 1], "[0, 1] is not a [src, dst, weight] triple"),
    ([0, 1, 1.0, 2], "is not a [src, dst, weight] triple"),
    (7, "edge 7 is not a [src, dst, weight] triple"),
], ids=["null-weight", "string-weight", "boolean-weight", "pair", "quadruple", "scalar"])
def test_malformed_edges_are_rejected_by_name(edge, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        EvolutionaryGraph(2, [edge, [1, 0, 1.0]])


def test_load_graph_rejects_malformed_edges(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "edges": [[0, 1, null], [1, 0, 1.0]]}')
    with pytest.raises(ValueError, match=re.escape("edge [0, 1, None]")):
        load_graph(str(path))
    path.write_text('{"n": 2, "edges": null}')
    with pytest.raises(ValueError, match="must be a list"):
        load_graph(str(path))


def test_strong_connectivity_is_memoized_from_csr():
    g = random_digraph(5, 7)
    assert is_strongly_connected(g) is g._ops["strongly_connected"]
    assert is_strongly_connected(EvolutionaryGraph(1, []))


# ------------------------------------------------------------- connectivity


def test_strong_connectivity():
    assert is_strongly_connected(two_cycle())
    lopsided = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    assert not is_strongly_connected(lopsided)


def test_reaches_all():
    lopsided = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    assert reaches_all(lopsided, [0])
    assert not reaches_all(lopsided, [2])


# ------------------------------------------------------------- stats


def test_stats_on_path():
    st_ = stats(path3())
    assert st_.is_undirected and st_.is_unweighted
    assert st_.is_strongly_connected
    assert st_.mean_inverse_degree == pytest.approx(5.0 / 6.0)


def test_stats_directed_has_no_degree_average():
    g = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    st_ = stats(g)
    assert not st_.is_undirected
    assert st_.mean_inverse_degree is None


def test_stats_weighted_pair_is_directed_balanced():
    g = two_cycle()
    st_ = stats(g)
    assert st_.is_undirected and st_.is_unweighted


def test_stats_shape_flags_are_computed_once(monkeypatch):
    g = path3()
    calls = []
    compute = graphs_mod._shape_flags
    monkeypatch.setattr(graphs_mod, "_shape_flags", lambda graph: calls.append(1) or compute(graph))
    first = stats(g)
    # callers own the arrays they get; writing to them leaves the cache alone
    first.out_degrees[:] = 0
    first.in_degrees[:] = 0
    first.temperatures[:] = 0.0
    second = stats(g)
    assert calls == [1]
    assert second.mean_inverse_degree == pytest.approx(5.0 / 6.0)
    assert second.is_undirected and second.is_unweighted
    assert second.out_degrees.tolist() == [1, 2, 1]
    assert second.in_degrees.tolist() == [1, 2, 1]
    assert second.temperatures.tolist() == g.temperatures.tolist()
    assert second.out_degrees is not first.out_degrees


# ------------------------------------------------------------- generators


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("weighting", ["unweighted", "random"])
def test_generate_contract(kind, weighting):
    g = generate(kind, 12, seed=5, weighting=weighting)
    assert g.n == 12
    assert is_strongly_connected(g)
    sums = np.zeros(g.n)
    for s, _, w in g.edges:
        sums[s] += w
    assert np.allclose(sums, 1.0, atol=1e-12)
    if weighting == "unweighted":
        for s, _, w in g.edges:
            assert w == pytest.approx(1.0 / g.k_out[s])


def test_generate_deterministic_in_seed():
    a = generate("erdos_renyi", 10, seed=42)
    b = generate("erdos_renyi", 10, seed=42)
    c = generate("erdos_renyi", 10, seed=43)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_generate_undirected_skeleton():
    # every undirected generator edge appears in both directions
    g = generate("preferential_attachment", 15, seed=1, weighting="random")
    pairs = {(s, d) for s, d, _ in g.edges}
    assert all((d, s) in pairs for s, d in pairs)


def test_generate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate("unknown_kind", 10, seed=0)
    with pytest.raises(ValueError):
        generate("erdos_renyi", 10, seed=0, p=1.5)
    with pytest.raises(ValueError):
        generate("erdos_renyi", 10, seed=0, weighting="exotic")
    with pytest.raises(ValueError):
        generate("preferential_attachment", 3, seed=0, m=5)


def test_generate_reports_impossible_draws():
    # p = 0 passes validation but can never connect; retries must surface
    with pytest.raises(RuntimeError, match="no connected graph"):
        generate("erdos_renyi", 6, seed=0, p=0.0, retries=3)


def test_generate_small_world_params():
    g = generate("small_world", 20, seed=9, k=2, p=0.5)
    assert g.n == 20
    assert is_strongly_connected(g)


# ------------------------------------------------------------- feeders


def test_feeder_pair_graph_shape():
    exp = feeder_pair_graph(20, seed=3, relation="equal")
    g = exp.graph
    assert g.n == 22
    assert exp.feeder_mutant == 20 and exp.feeder_resident == 21
    # feeders emit exactly one weight-1 edge and receive nothing
    assert g.k_out[20] == 1 and g.k_out[21] == 1
    assert g.k_in[20] == 0 and g.k_in[21] == 0
    assert not is_strongly_connected(g)
    # attachment degrees measured inside the core
    core_deg = g.k_out[:20]
    assert core_deg[exp.target_mutant] == core_deg[exp.target_resident]


@pytest.mark.parametrize("relation,cmp", [
    ("mutant_lower", lambda a, b: a < b),
    ("mutant_higher", lambda a, b: a > b),
])
def test_feeder_pair_graph_relations(relation, cmp):
    exp = feeder_pair_graph(20, seed=8, relation=relation)
    core_deg = exp.graph.k_out[:20]
    assert cmp(core_deg[exp.target_mutant], core_deg[exp.target_resident])


# ------------------------------------------------------------- files


def test_json_round_trip(tmp_path):
    g = random_digraph(21, 7)
    path = tmp_path / "g.json"
    save_graph(g, str(path))
    back = load_graph(str(path))
    assert back.n == g.n
    assert len(back.edges) == len(g.edges)
    for (s1, d1, w1), (s2, d2, w2) in zip(back.edges, g.edges):
        assert (s1, d1) == (s2, d2)
        assert w1 == pytest.approx(w2, abs=1e-15)


def test_saved_graph_reads_back_with_bit_equal_weights(tmp_path):
    # rows of random weights whose float sum is not exactly 1 used to be
    # renormalized again on every load, moving weights by an ulp
    g = generate("preferential_attachment", 30, seed=3, weighting="random", m=2)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(g, str(first))
    back = load_graph(str(first))
    assert back.edges == g.edges
    assert back.out_w.tobytes() == g.out_w.tobytes()
    assert back.out_cum.tobytes() == g.out_cum.tobytes()
    save_graph(back, str(second))
    assert second.read_text() == first.read_text()


def test_text_edge_list(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n0 1 1.0\n1 0 0.25\n1 2 0.75\n2 1 1.0\n")
    g = load_graph(str(path))
    assert g.n == 3
    assert len(g.edges) == 4
    assert dict(((s, d), w) for s, d, w in g.edges)[(1, 2)] == pytest.approx(0.75)


def test_load_json_inline(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1.0], [1, 0, 1.0]]}))
    g = load_graph(str(path))
    assert g.n == 2 and len(g.edges) == 2


def test_generated_weights_are_positive_and_normal():
    g = generate("erdos_renyi", 16, seed=77, weighting="random")
    assert all(w > 0 for _, _, w in g.edges)
    assert all(math.isfinite(w) for _, _, w in g.edges)
