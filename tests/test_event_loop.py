"""The per-rule play loops give the same bits as the reference event sampler.

``fixlab.montecarlo`` plays every event on locals, in one loop per
biased rule (``_play_bd_b`` ... ``_play_ld``). ``simulate_run``,
``estimate`` and ``sample_transitions`` are compared here, exactly,
against ``tests/loop_montecarlo.py`` under every rule and fitness of
``test_montecarlo._COMBOS``, and under all five loops at r < 1. The
bd-d and db-b loops' per-vertex mutant counts, which let them step past
an event whose row holds one type, are checked against a recount, and
the tables kept once per graph and loop against fresh graphs.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from fixlab import EvolutionaryGraph, Rule, estimate, generate, sample_transitions, simulate_run
from fixlab.montecarlo import _Draws, _play, _Process, _run_seed

from . import loop_montecarlo as ref
from .test_montecarlo import _COMBOS
from .util import random_digraph, star_graph

COMBO_IDS = [f"{rule}@{r}" for rule, r in _COMBOS]
SIZES = (3, 4, 6, 9, 14, 22, 30)


def _config(graph, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, graph.n))
    return sorted(rng.choice(graph.n, size=k, replace=False).tolist())


def assert_same_runs(graph, config, rule, r, seeds, step_cap=None):
    for seed in seeds:
        got = simulate_run(graph, config, rule=rule, r=r, seed=seed, step_cap=step_cap)
        assert got == ref.simulate_run(graph, config, rule, r, seed, step_cap), seed


def assert_same_estimate(graph, config, rule, r, runs, seed, step_cap=None):
    got = estimate(graph, config, rule=rule, r=r, runs=runs, seed=seed, step_cap=step_cap)
    assert replace(got, wall_time=0.0) == ref.estimate(graph, config, rule, r, runs, seed, step_cap)
    return got


@pytest.mark.parametrize("rule,r", _COMBOS, ids=COMBO_IDS)
@pytest.mark.parametrize("n", SIZES)
def test_random_digraphs_match_the_reference(rule, r, n):
    g = random_digraph(100 + n, n)
    config = _config(g, n)
    assert_same_runs(g, config, rule, r, range(8))
    for cap in (1, 50):
        assert_same_runs(g, config, rule, r, range(4), step_cap=cap)
    assert_same_estimate(g, config, rule, r, runs=30, seed=n)
    capped = assert_same_estimate(g, config, rule, r, runs=10, seed=n, step_cap=1)
    if 1 < len(config) < n - 1:
        # no single event absorbs from here, so every run stops at the cap
        assert capped.capped_runs == 10
    got = sample_transitions(g, config, rule=rule, r=r, events=400, seed=n)
    assert got == ref.sample_transitions(g, config, rule, r, 400, n)


@pytest.mark.parametrize("rule,r", _COMBOS, ids=COMBO_IDS)
def test_empty_and_full_configurations_match_the_reference(rule, r):
    g = random_digraph(7, 6)
    for config in ([], list(range(6))):
        assert_same_runs(g, config, rule, r, range(3))
        assert_same_estimate(g, config, rule, r, runs=5, seed=2)
        got = sample_transitions(g, config, rule=rule, r=r, events=50, seed=3)
        assert got == ref.sample_transitions(g, config, rule, r, 50, 3)


@pytest.fixture(scope="module")
def ba100():
    g = generate("preferential_attachment", 100, seed=934, weighting="random", m=2)
    last = g.out_ptr[1:] - 1
    # rows whose float cumsum ends below 1 exercise the bisect clamp
    assert (ref.out_cum(g)[last] < 1.0).any()
    return g


@pytest.mark.parametrize("rule,r", _COMBOS, ids=COMBO_IDS)
def test_weighted_ba_graph_matches_the_reference(ba100, rule, r):
    config = [7]
    assert_same_estimate(ba100, config, rule, r, runs=4, seed=11)
    for cap in (1, 50):
        assert_same_runs(ba100, config, rule, r, range(3), step_cap=cap)
    counts = sample_transitions(ba100, config, rule=rule, r=r, events=300, seed=5)
    assert counts == ref.sample_transitions(ba100, config, rule, r, 300, 5)


@pytest.mark.parametrize("rule,r", _COMBOS, ids=COMBO_IDS)
def test_a_long_run_matches_the_reference(rule, r):
    g = generate("preferential_attachment", 300, seed=934, weighting="random", m=2)
    config = list(range(0, 300, 10))
    got = simulate_run(g, config, rule=rule, r=r, seed=0)
    # an event reads one or two variates, so more than 4096 events read
    # past the first 4096-variate chunk of the stream
    assert got.steps > 4096
    assert got == ref.simulate_run(g, config, rule, r, 0)


# every sampler kind with a deleterious mutant (r < 1, which no entry of
# _COMBOS has): a mutant's share of each fitness-weighted draw is then
# smaller than a resident's
_DELETERIOUS = [(rule, 0.6) for rule in (Rule.BD_B, Rule.BD_D, Rule.DB_B, Rule.DB_D, Rule.LD)]


@pytest.mark.parametrize("rule,r", _DELETERIOUS, ids=[f"{rule}@{r}" for rule, r in _DELETERIOUS])
@pytest.mark.parametrize("n", (4, 9, 22))
def test_deleterious_mutants_match_the_reference(ba100, rule, r, n):
    g = random_digraph(200 + n, n)
    config = _config(g, n)
    assert_same_runs(g, config, rule, r, range(8))
    assert_same_runs(g, config, rule, r, range(4), step_cap=50)
    assert_same_estimate(g, config, rule, r, runs=30, seed=n)
    got = sample_transitions(g, config, rule=rule, r=r, events=400, seed=n)
    assert got == ref.sample_transitions(g, config, rule, r, 400, n)
    majority = list(range(0, 100, 2))
    assert_same_estimate(ba100, majority, rule, r, runs=3, seed=n)


# ------------------------------------------------- one-type rows and tables

# the two kinds whose loops scan the drawn vertex's row, and the side of
# the graph that row lies on
_COUNTED = [(Rule.BD_D, "out"), (Rule.DB_B, "in")]


def _recount(graph, member, side):
    # mutants among each vertex's out- or in-neighbours, from the graph's arrays
    ptr, nbrs = ((graph.out_ptr, graph.out_dst) if side == "out"
                 else (graph.in_ptr, graph.in_src))
    return [sum(member[u] for u in nbrs[ptr[v]:ptr[v + 1]].tolist())
            for v in range(graph.n)]


@pytest.mark.parametrize("r", [0.5, 2.0])
@pytest.mark.parametrize("rule,side", _COUNTED, ids=[str(rule) for rule, _ in _COUNTED])
def test_row_counts_match_a_recount_after_every_event(rule, side, r):
    g = random_digraph(41, 9, p=0.35)
    rows_out = [sorted(g.out_dst[g.out_ptr[v]:g.out_ptr[v + 1]].tolist()) for v in range(g.n)]
    rows_in = [sorted(g.in_src[g.in_ptr[v]:g.in_ptr[v + 1]].tolist()) for v in range(g.n)]
    assert rows_out != rows_in
    proc = _Process(g, rule, r)
    draws = _Draws(_run_seed(7, 0))
    start = [0, 3, 4]
    st = proc.new_state(start)
    assert st.cnt == _recount(g, st.member, side)
    degree = g.k_out if side == "out" else g.k_in
    flips = one_type = 0
    for _ in range(10_000):
        member, cnt, i = st.member[:], st.cnt[:], draws.i
        _play(proc, st, draws, 1)
        assert st.cnt == _recount(g, st.member, side)
        flips += st.member != member
        # the event read two variates, skipped or not (a refill moves the
        # unread tail to the front, so the cursor is then 2)
        assert draws.i in (i + 2, 2)
        v = int(draws.buf[draws.i - 2] * g.n)
        one_type += cnt[v] == (degree[v] if member[v] else 0)
        if st.m in (0, g.n):
            st = proc.new_state(start)
    assert flips > 1000 and one_type > 1000


@pytest.mark.parametrize("r", [0.5, 2.0])
@pytest.mark.parametrize("rule", [Rule.BD_D, Rule.DB_B])
def test_hub_flips_on_a_star_match_the_reference(rule, r):
    # every leaf's row is the hub alone and the hub's row every leaf, so a
    # hub flip moves the count of every leaf
    g = star_graph(12)
    for config in ([0], [1], [0, 5, 6], list(range(1, 13))):
        assert_same_runs(g, config, rule, r, range(6))
        assert_same_estimate(g, config, rule, r, runs=20, seed=len(config))
        got = sample_transitions(g, config, rule=rule, r=r, events=300, seed=3)
        assert got == ref.sample_transitions(g, config, rule, r, 300, 3)


def test_tables_are_built_once_per_graph_and_kind_and_left_unchanged():
    spec = [(Rule.BD_D, 1.5), (Rule.DB_B, 0.7), (Rule.BD_B, 1.5), (Rule.LD, 2.0),
            (Rule.BD_D, 0.8), (Rule.DB_B, 1.5)]
    g = generate("preferential_attachment", 40, seed=12, weighting="random", m=2)

    def fresh():
        return EvolutionaryGraph(g.n, g.edges)

    tables = {}
    for k, (rule, r) in enumerate(spec):
        got = estimate(g, [k], rule=rule, r=r, runs=6, seed=k)
        want = estimate(fresh(), [k], rule=rule, r=r, runs=6, seed=k)
        assert replace(got, wall_time=0.0) == replace(want, wall_time=0.0)
        proc = _Process(g, rule, r)
        if proc.play in tables:
            assert proc.rows is tables[proc.play][0]
        else:
            tables[proc.play] = (proc.rows, copy.deepcopy(g._ops[("events", proc.play)]))
    assert len(tables) == 4
    for play, (rows, snapshot) in tables.items():
        assert g._ops[("events", play)] == snapshot
