"""The per-kind play loops give the same bits as the reference event sampler.

``fixlab.montecarlo`` plays every event on locals, in one loop per
sampler kind (``_play_bd_b`` ... ``_play_ld``). ``simulate_run``,
``estimate`` and ``sample_transitions`` are compared here, exactly,
against ``tests/loop_montecarlo.py`` under every rule and fitness of
``test_montecarlo._COMBOS``, and under all five kinds at r < 1.
"""

from dataclasses import replace

import numpy as np
import pytest

from fixlab import Rule, estimate, generate, sample_transitions, simulate_run

from . import loop_montecarlo as ref
from .test_montecarlo import _COMBOS
from .util import random_digraph

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
    assert (g.out_cum[last] < 1.0).any()
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
