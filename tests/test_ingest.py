"""The array-built ingest gives the bits, lists and messages of the per-edge loop.

``loop_ingest`` keeps the ingest ``EvolutionaryGraph`` replaced; every
array, ``edges``, ``to_json`` and every refusal message must match it
exactly, and ``validate`` must still give the loop's list on raw values.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixlab import EvolutionaryGraph, generate, load_graph, validate
from fixlab import graphs as graphs_mod

from . import loop_ingest
from .util import random_undirected

ARRAYS = ("given_w", "out_ptr", "out_dst", "out_w", "out_cum",
          "in_ptr", "in_src", "in_w", "k_in", "k_out", "temperatures")


def assert_same_graph(g, ref):
    assert g.n == ref.n and type(g.n) is int
    for name in ARRAYS:
        a, b = getattr(g, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert len(g.edges) == len(ref.edges)
    for (s, d, w), (rs, rd, rw) in zip(g.edges, ref.edges):
        assert (type(s), type(d), type(w)) == (type(rs), type(rd), type(rw))
        assert (s, d) == (rs, rd) and np.float64(w).tobytes() == np.float64(rw).tobytes()
    assert json.dumps(g.to_json()) == json.dumps(ref.to_json())


def outcome(build, n, edges):
    """``build(n, edges)``, or the ValueError message it raised."""
    try:
        return build(n, edges)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(n, edges):
    got = outcome(EvolutionaryGraph, n, edges)
    ref = outcome(loop_ingest.LoopGraph, n, edges)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert_same_graph(got, ref)
    return got


@st.composite
def raw_graphs(draw):
    """Row-stochastic digraphs in shuffled edge order, some of them damaged."""
    n = draw(st.integers(1, 9))
    edges = []
    for v in range(n):
        others = [u for u in range(n) if u != v]
        targets = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        ws = [draw(st.floats(0.05, 1.0)) for _ in targets]
        edges += [(v, u, w / sum(ws)) for u, w in zip(targets, ws)]
    edges = draw(st.permutations(edges))
    for damage in draw(st.lists(st.integers(0, 6), max_size=3)):
        i = draw(st.integers(0, max(len(edges) - 1, 0)))
        if damage == 0 and edges:  # a second copy, possibly with another weight
            s, d, w = edges[i]
            edges.append((s, d, draw(st.sampled_from([w, 0.5]))))
        elif damage == 1:
            v = draw(st.integers(0, n - 1))
            edges.append((v, v, 1.0))
        elif damage == 2:
            bad = draw(st.sampled_from([-1, n, n + 3, 2**63, -2**64]))
            edges.insert(i, (bad, 0, 1.0) if draw(st.booleans()) else (0, bad, 1.0))
        elif damage == 3 and edges:
            s, d, _ = edges[i]
            edges[i] = (s, d, draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.25])))
        elif damage == 4 and edges:  # scale one row: 1e-10 is within ROW_SUM_TOL, 1e-6 is not
            row = edges[i][0]
            f = 1.0 + draw(st.sampled_from([1e-10, -1e-10, 1e-6, 0.5]))
            edges = [(s, d, w * f if s == row else w) for s, d, w in edges]
        elif damage == 5 and edges:
            del edges[i]
    return n, edges


@settings(max_examples=200, deadline=None)
@given(graph=raw_graphs())
def test_ingest_matches_the_loop(graph):
    n, edges = graph
    assert_same_outcome(n, edges)
    assert validate(n, edges) == loop_ingest.validate(n, edges)


@settings(max_examples=50, deadline=None)
@given(graph=raw_graphs())
def test_saved_graph_reads_back_like_the_loop(graph, tmp_path_factory):
    n, edges = graph
    g = outcome(EvolutionaryGraph, n, edges)
    if isinstance(g, str):
        return
    path = tmp_path_factory.mktemp("ingest") / "g.json"
    graphs_mod.save_graph(g, str(path))
    payload = json.loads(path.read_text())
    ref = loop_ingest.LoopGraph(payload["n"], payload["edges"])
    assert_same_graph(load_graph(str(path)), ref)
    assert_same_graph(g, ref)


@pytest.mark.parametrize("kind, params", [
    ("preferential_attachment", {"m": 2}),
    ("preferential_attachment", {"m": 1, "weighting": "unweighted"}),
    ("erdos_renyi", {"p": 0.2}),
    ("small_world", {"k": 4, "p": 0.3}),
])
@pytest.mark.parametrize("n", [12, 300])
def test_generated_graphs_match_the_loop(kind, params, n):
    g = generate(kind, n, seed=11, **params)
    payload = g.to_json()
    ref = loop_ingest.LoopGraph(payload["n"], payload["edges"])
    assert_same_graph(g, ref)
    assert_same_graph(EvolutionaryGraph(payload["n"], payload["edges"]), ref)


MALFORMED = [
    # (n, edges, fragment of the one message both ingests give)
    (2, [(True, 1, 1.0), (1, 0, 1.0)], "vertex id True is not an integer"),
    (2, [(0, False, 1.0), (1, 0, 1.0)], "vertex id False is not an integer"),
    (2, [(0.0, 1, 1.0), (1, 0, 1.0)], "vertex id 0.0 is not an integer"),
    (2, [(0, 1, 1.0), (1, 0.5, 1.0)], "vertex id 0.5 is not an integer"),
    (2, [(0, 1, True), (1, 0, 1.0)], "non-numeric weight True"),
    (2, [(0, 1, None), (1, 0, 1.0)], "non-numeric weight None"),
    (2, [(0, 1, "1.0"), (1, 0, 1.0)], "non-numeric weight '1.0'"),
    (2, [(0, 1, 1.0), (1, 0, np.True_)], "non-numeric weight"),
    (2, [(0, 1, math.nan), (1, 0, 1.0)], "edge (0,1) has non-finite weight nan"),
    (2, [(0, 1, math.inf), (1, 0, 1.0)], "edge (0,1) has non-finite weight inf"),
    (2, [(0, 1, 1.0), (1, 0, -math.inf)], "edge (1,0) has non-finite weight -inf"),
    (2, [(0, 1, 0.0), (1, 0, 1.0)], "edge (0,1) has non-positive weight 0.0"),
    (2, [(0, 1, 1.0), (1, 0, 0.5), (1, 0, 0.5)], "edge (1,0) appears more than once"),
    (3, [(0, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)], "vertex 0 has a self-loop"),
    (2, [(0, 1, 0.4), (1, 0, 1.0)], "outgoing weights of vertex 0 sum to 0.4, expected 1"),
    (2, [(0, 1, 1.0 + 2e-9), (1, 0, 1.0)], "sum to 1.000000002, expected 1"),
    (2, [(0, 1), (1, 0, 1.0)], "edge (0, 1) is not a [src, dst, weight] triple"),
    (2, [(0, 1, 1.0, 2), (1, 0, 1.0)], "is not a [src, dst, weight] triple"),
    (2, [7, (1, 0, 1.0)], "edge 7 is not a [src, dst, weight] triple"),
    (2, ["abc", (1, 0, 1.0)], "edge 'abc' has a non-numeric weight 'c'"),
    (2, [(2**63, 0, 1.0), (1, 0, 1.0)],
     "edge (9223372036854775808,0) uses a vertex id outside 0..1"),
    (2, [(0, 1, 1.0), (1, -2**64, 1.0)],
     "edge (1,-18446744073709551616) uses a vertex id outside 0..1"),
    (2, [(0, 2, 1.0), (1, 0, 1.0)], "edge (0,2) uses a vertex id outside 0..1"),
    (0, [], "population size must be at least 1, got 0"),
    (0, [(0, 1)], "edge (0, 1) is not a [src, dst, weight] triple"),
    (-3, [(0, 1, 1.0)], "population size must be at least 1, got -3"),
    (True, [], "population size True is not an integer"),
    (2.0, [], "population size 2.0 is not an integer"),
]


@pytest.mark.parametrize("n, edges, fragment", MALFORMED)
def test_malformed_input_gives_the_loop_message(n, edges, fragment):
    got = assert_same_outcome(n, edges)
    assert isinstance(got, str) and fragment in got


def test_every_problem_is_listed_in_the_loop_order():
    edges = [(0, 3, 1.0), (1, 1, 1.0), (0, 1, -2.0), (2, 0, 0.7), (2, 0, 0.3),
             (1, 0, 0.4), (0, 1, math.nan), (2**70, 1, 1.0), (0, 2, 0.5)]
    problems = validate(3, edges)
    assert problems == loop_ingest.validate(3, edges)
    assert len(problems) == 9  # six edges, then rows 0, 1 and 2
    assert_same_outcome(3, edges)


@pytest.mark.parametrize("n, edges", [
    (1, []),
    (3, []),
    (2, [(np.int64(0), np.int32(1), 1.0), (np.uint8(1), 0, np.float64(1.0))]),
    (3, [(0, 1, Fraction(1, 3)), (0, 2, Fraction(2, 3)), (1, 0, 1), (2, 0, 1.0)]),
    (3, [[2, 0, 1], [0, 2, 0.25], [0, 1, 0.75], [1, 2, 1.0]]),
    (3, ((2, 0, 1.0), (1, 2, 1.0), (0, 1, 1.0))),
    (np.int64(2), iter([(1, 0, 1.0), (0, 1, 1.0)])),
])
def test_accepted_inputs_give_the_loop_arrays(n, edges):
    edges = list(edges)
    got = assert_same_outcome(n, edges)
    assert isinstance(got, EvolutionaryGraph)


def test_text_edge_list_gives_the_loop_arrays(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a weighted 3-cycle with a chord\n2 0 1\n0 1 0.25\n\n0 2 0.75\n1 2 1.0\n")
    ref = loop_ingest.LoopGraph(3, [(2, 0, 1.0), (0, 1, 0.25), (0, 2, 0.75), (1, 2, 1.0)])
    assert_same_graph(load_graph(str(path)), ref)
    path.write_text("0 1 0.5\n1 0 1.0\n")
    with pytest.raises(ValueError, match=re.escape("vertex 0 sum to 0.5")):
        load_graph(str(path))


@pytest.mark.parametrize("n, edges", [
    (0, [(0, 1)]),
    (2, [(0, 1, 2), (1, 0, 1)]),
    (2, [(0, 1, -2), (1, 0, 1.0)]),
    (2, [(0.5, 1, 1.0), (1, 0, 1.0)]),
    (2, [(0, 1.0, 1.0), (1, 0, 0.5)]),
    (2, [(True, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)]),
    (3, [(0, 1, Fraction(1, 2)), (0, 2, Fraction(1, 3)), (1, 0, 1), (2, 0, np.float32(0.1))]),
])
def test_validate_compares_the_values_as_given(n, edges):
    # validate coerces nothing and checks n before any edge: ints,
    # fractional or bool ids and other reals are compared and printed
    # as they are, as the loop did
    assert validate(n, edges) == loop_ingest.validate(n, edges)


@st.composite
def shaped_graphs(draw):
    """Undirected, directed, unweighted and nearly unweighted graphs."""
    n = draw(st.integers(3, 9))
    g = random_undirected(draw(st.integers(0, 10_000)), n, p=0.5)
    edges = list(g.to_json()["edges"])
    shape = draw(st.sampled_from(["as is", "jitter", "drop", "reweight"]))
    if shape == "jitter":  # within, at or past the 1e-12 tolerance of the unweighted test
        eps = draw(st.sampled_from([4e-13, 1e-12, 3e-12]))
        s, d, w = edges[draw(st.integers(0, len(edges) - 1))]
        edges = [(a, b, x + eps if (a, b) == (s, d) else x) for a, b, x in edges]
    elif shape == "drop":  # one direction of an edge goes; the row is renormalized
        i = draw(st.integers(0, len(edges) - 1))
        row = edges[i][0]
        rest = [e for j, e in enumerate(edges) if j != i]
        total = sum(w for s, _, w in rest if s == row)
        if total > 0:
            edges = [(s, d, w / total if s == row else w) for s, d, w in rest]
    elif shape == "reweight":
        ws = [draw(st.floats(0.1, 1.0)) for _ in edges]
        sums = {}
        for (s, _, _), w in zip(edges, ws):
            sums[s] = sums.get(s, 0.0) + w
        edges = [(s, d, w / sums[s]) for (s, d, _), w in zip(edges, ws)]
    return EvolutionaryGraph(n, edges)


@settings(max_examples=100, deadline=None)
@given(g=shaped_graphs())
def test_shape_flags_match_the_loop(g):
    assert graphs_mod._shape_flags(g) == loop_ingest.shape_flags(g)
