import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fixlab import (
    GENERATOR_KINDS,
    EvolutionaryGraph,
    NotStronglyConnected,
    Rule,
    build_chain,
    default_thread_count,
    estimate,
    fixation_exact,
    generate,
    required_runs,
    sample_transitions,
    simulate_run,
    speedup_benchmark,
    standard_error,
    state_of,
)
from fixlab.montecarlo import (
    _BUFFER, _Draws, _play, _play_bd_b, _play_bd_d, _play_db_b, _play_db_d, _play_ld, _Process,
    _run_seed, step_cap_for,
)

from .util import complete_graph, random_digraph, sampler_cumsums, two_cycle


# ------------------------------------------------------------- single runs


def test_two_cycle_absorbs_in_one_event():
    for seed in range(20):
        res = simulate_run(two_cycle(), [0], seed=seed)
        assert res.steps == 1
        assert not res.capped


def test_trivial_configs_absorb_immediately():
    res0 = simulate_run(two_cycle(), [], seed=1)
    assert (res0.fixated, res0.steps) == (False, 0)
    res1 = simulate_run(two_cycle(), [0, 1], seed=1)
    assert (res1.fixated, res1.steps) == (True, 0)


def test_run_is_deterministic_in_seed():
    g = random_digraph(3, 6)
    a = simulate_run(g, [0], rule=Rule.DB_B, r=1.5, seed=99)
    b = simulate_run(g, [0], rule=Rule.DB_B, r=1.5, seed=99)
    assert a == b


def test_step_cap_marks_runs():
    # two mutants on a complete graph cannot absorb in one event
    res = simulate_run(complete_graph(4), [0, 1], seed=5, step_cap=1)
    assert res.capped and not res.fixated and res.steps == 1


@pytest.mark.parametrize("cap", [0, -5])
def test_event_cap_below_one_is_refused(cap):
    with pytest.raises(ValueError, match="event cap must be at least 1"):
        simulate_run(two_cycle(), [0], step_cap=cap)
    with pytest.raises(ValueError, match="event cap must be at least 1"):
        estimate(two_cycle(), [0], runs=3, step_cap=cap)


# ------------------------------------------------------------- summaries


def test_estimate_on_two_cycle_has_exact_times():
    s = estimate(two_cycle(), [0], runs=200, seed=11)
    assert s.runs == 200
    assert s.mean_fixation_time == pytest.approx(1.0)
    assert s.mean_absorption_time == pytest.approx(1.0)
    assert s.capped_runs == 0
    assert 0.3 <= s.fixation_frequency <= 0.7
    assert s.std_error == pytest.approx(
        math.sqrt(s.fixation_frequency * (1 - s.fixation_frequency) / 199)
    )


def test_estimate_is_reproducible():
    g = random_digraph(13, 7)
    one = estimate(g, [2], rule=Rule.BD_B, r=1.5, runs=300, seed=4)
    two = estimate(g, [2], rule=Rule.BD_B, r=1.5, runs=300, seed=4)
    assert replace(one, wall_time=0.0) == replace(two, wall_time=0.0)


def test_estimate_depends_on_seed():
    g = random_digraph(13, 7)
    a = estimate(g, [2], runs=300, seed=1)
    b = estimate(g, [2], runs=300, seed=2)
    assert a.fixations != b.fixations


def test_capped_runs_are_excluded_from_times():
    s = estimate(complete_graph(4), [0, 1], runs=50, seed=3, step_cap=1)
    assert s.capped_runs == 50
    assert s.mean_fixation_time is None
    assert s.mean_absorption_time is None
    assert s.fixations == 0


def test_estimate_rejects_tiny_run_counts():
    with pytest.raises(ValueError):
        estimate(two_cycle(), [0], runs=1)


def test_estimate_requires_strong_connectivity():
    g = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    with pytest.raises(NotStronglyConnected):
        estimate(g, [0], runs=10)


def test_neutral_names_need_unit_fitness():
    with pytest.raises(ValueError, match="bd-b or bd-d"):
        estimate(two_cycle(), [0], rule=Rule.BD, r=2.0, runs=10)


def test_degenerate_configs_summarize_cleanly():
    s = estimate(two_cycle(), [], runs=10, seed=0)
    assert s.fixation_frequency == 0.0
    assert s.mean_fixation_time is None
    assert s.mean_absorption_time == 0.0


# ------------------------------------------------------------- error math


def test_standard_error_values():
    assert standard_error(0.5, 2501) == pytest.approx(0.01, rel=1e-3)
    assert standard_error(0.0, 100) == 0.0
    with pytest.raises(ValueError):
        standard_error(0.5, 1)


def test_required_runs_values():
    assert required_runs(0.5, 0.01).runs == 2501
    assert required_runs(0.5, 0.5).runs == 2
    assert required_runs(0.1, 0.01).runs == 901
    assert required_runs(1.0, 0.01).degenerate
    assert required_runs(0.0, 0.01).runs == 2
    with pytest.raises(ValueError):
        required_runs(1.2, 0.01)
    with pytest.raises(ValueError):
        required_runs(0.5, 0.0)
    for epsilon in (math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            required_runs(0.5, epsilon)
    # epsilon**2 overflows the ratio to infinity (1e-160) or underflows to 0
    for epsilon in (1e-160, 1e-200, 5e-324):
        with pytest.raises(ValueError, match="too small for a finite run count"):
            required_runs(0.5, epsilon)
    assert required_runs(0.5, 1e-150).runs > 10**299


def test_error_shrinks_until_target():
    # the run count returned really does push the error bar to the target
    runs = required_runs(0.3, 0.02).runs
    assert standard_error(0.3, runs) <= 0.02
    assert standard_error(0.3, runs - 10) > 0.02


# ------------------------------------------------------------- calibration


_COMBOS = [
    (Rule.BD, 1.0), (Rule.DB, 1.0), (Rule.LD, 1.0),
    (Rule.BD_B, 1.6), (Rule.BD_D, 1.6),
    (Rule.DB_B, 1.6), (Rule.DB_D, 1.6), (Rule.LD, 1.6),
]


@pytest.mark.parametrize("rule,r", _COMBOS, ids=[f"{r}@{x}" for r, x in _COMBOS])
def test_one_step_frequencies_match_the_chain(rule, r):
    """Empirical one-event frequencies against the exact transition row."""
    g = random_digraph(41, 5)
    config = [0, 3]
    events = 60_000
    counts = sample_transitions(g, config, rule=rule, r=r, events=events, seed=13)
    chain = build_chain(g, rule, r=r)
    dests, probs = chain.row(state_of(config))
    expected = dict(zip(dests.tolist(), probs.tolist()))
    assert set(counts) <= set(expected)
    for dst, q in expected.items():
        freq = counts.get(dst, 0) / events
        margin = 5.0 * math.sqrt(q * (1.0 - q) / events) + 1e-9
        assert abs(freq - q) <= margin, (dst, freq, q)


@pytest.mark.parametrize("rule,r", [
    (Rule.BD_B, 1.5), (Rule.DB_D, 2.0), (Rule.LD, 1.8),
])
def test_fixation_frequency_matches_oracle(rule, r):
    g = random_digraph(47, 5)
    exact = fixation_exact(build_chain(g, rule, r=r), [1])
    s = estimate(g, [1], rule=rule, r=r, runs=3000, seed=21)
    assert abs(s.fixation_frequency - exact) <= 4.0 * s.std_error


def test_mean_absorption_time_matches_oracle():
    from fixlab import mean_times_exact
    g = random_digraph(53, 5)
    chain = build_chain(g, Rule.BD)
    times = mean_times_exact(chain, [0])
    s = estimate(g, [0], runs=4000, seed=8)
    # absorption time has a fat tail; allow a generous band
    assert s.mean_absorption_time == pytest.approx(times.absorption, rel=0.15)


# ------------------------------------------------------------- guards


def test_birth_rules_need_outgoing_edges():
    g = EvolutionaryGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="outgoing"):
        sample_transitions(g, [0], rule=Rule.BD, events=1)


def test_death_rules_need_incoming_edges():
    g = EvolutionaryGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="incoming"):
        sample_transitions(g, [0], rule=Rule.DB, events=1)


def test_nonpositive_fitness_is_rejected():
    with pytest.raises(ValueError):
        simulate_run(two_cycle(), [0], rule=Rule.BD_B, r=0.0)


# one rule per sampler kind, each with the fitness that overflows its totals
_KINDS = (Rule.BD_B, Rule.BD_D, Rule.DB_B, Rule.DB_D, Rule.LD)


@pytest.mark.parametrize("r", [1e308, 1e-308])
@pytest.mark.parametrize("rule", _KINDS, ids=str)
def test_a_fitness_that_overflows_the_totals_is_refused(rule, r):
    # at 1e308 r m overflowed under bd-b and ld (NaN picks) and db-b capped
    # runs; at 1e-308 m / r overflowed under db-d, and bd-d capped every run
    g = random_digraph(5, 6)
    message = "^" + re.escape(f"fitness r = {r} overflows the event totals on this graph")
    for call in (lambda: estimate(g, [0], rule=rule, r=r, runs=4),
                 lambda: simulate_run(g, [0], rule=rule, r=r),
                 lambda: sample_transitions(g, [0], rule=rule, r=r, events=4)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("rule", _KINDS, ids=str)
def test_a_fitness_just_inside_the_bound_absorbs(rule):
    # the largest and smallest r the bound takes: every run ends without NaN
    # or inf in a total, the fitter type fixing and the weaker dying out
    g = random_digraph(5, 6)
    size = g.n * len(g.out_dst)
    for r, fixes in ((1e308 / size, True), (size / 1e308, False)):
        s = estimate(g, [0, 1, 2], rule=rule, r=r, runs=8, seed=1)
        assert s.capped_runs == 0
        assert s.fixations == (8 if fixes else 0)


def test_bisect_stays_inside_a_row_whose_cumsum_ends_below_one():
    # nine weights of 1/9 accumulate to 0.9999999999999996; a draw above
    # that must pick the row's last edge, not the next vertex's first
    star = EvolutionaryGraph(
        10, [(0, j, 1.0 / 9) for j in range(1, 10)] + [(j, 0, 1.0) for j in range(1, 10)],
    )
    lo, hi = int(star.out_ptr[0]), int(star.out_ptr[1])
    assert sampler_cumsums(star)[0][-1] < 1.0
    proc = _Process(star, Rule.BD, 1.0)
    st = proc.new_state([0])
    # crafted draws: the first picks breeder 0 (the only mutant), the
    # second lands above the row's cumsum
    draws = _Draws(_run_seed(0, 0))
    draws.buf = [0.0, math.nextafter(1.0, 0.0)]
    res = _play(proc, st, draws, 1)
    assert (res.steps, res.capped) == (1, True)
    assert draws.i == 2
    # the target is the last edge of the row, vertex 9; without the clamp
    # it would be edge (1, 0), whose target is already a mutant
    assert star.out_dst[hi - 1] == 9
    assert [v for v in range(10) if st.member[v]] == [0, 9]


# the loop each rule name plays, as the module docstring documents: at
# r = 1 bd and bd-d play bd-b's and db plays db-d's; every other rule, and
# every biased rule at r != 1, plays its own
_LOOP_OF = [
    ("bd", 1.0, _play_bd_b), ("bd-b", 1.0, _play_bd_b), ("bd-d", 1.0, _play_bd_b),
    ("db", 1.0, _play_db_d), ("db-b", 1.0, _play_db_b), ("db-d", 1.0, _play_db_d),
    ("ld", 1.0, _play_ld),
    ("bd-b", 1.5, _play_bd_b), ("bd-d", 1.5, _play_bd_d), ("db-b", 1.5, _play_db_b),
    ("db-d", 1.5, _play_db_d), ("ld", 1.5, _play_ld),
]


@pytest.mark.parametrize("name,r,play", _LOOP_OF, ids=[f"{n}@{r}" for n, r, _ in _LOOP_OF])
def test_each_rule_plays_the_loop_the_module_documents(name, r, play):
    assert _Process(random_digraph(5, 6), name, r).play is play


@pytest.mark.parametrize("name", ["bd", "db"])
def test_a_neutral_rule_name_away_from_unit_fitness_is_refused(name):
    message = (f"rule {name} is the neutral kernel; pick {name}-b or "
               f"{name}-d to say where fitness 1.5 applies")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _Process(random_digraph(5, 6), name, 1.5)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_bd_b_rows_hold_each_rows_cumsum(kind):
    # the sampler's cumulative weights are np.cumsum's bits, strictly
    # increasing, and end within 1e-12 of 1 once the last weight is added
    for seed in range(10):
        g = generate(kind, 6 + 2 * seed, seed=seed, weighting="random", m=2, k=4, p=0.3)
        for v, cum in enumerate(sampler_cumsums(g)):
            w = g.out_w[g.out_ptr[v]:g.out_ptr[v + 1]]
            assert cum.tobytes() == np.cumsum(w).tobytes()
            assert (np.diff(cum) > 0).all()
            assert cum[-1] == pytest.approx(1.0, abs=1e-12)


def test_a_run_that_absorbs_early_draws_few_variates():
    # the chunk grows with the run, so a short run does not draw a whole
    # _BUFFER it never reads; the stream it reads stays the run's own
    g = random_digraph(3, 5)
    proc = _Process(g, Rule.BD_B, 1.5)
    for seed in range(40):
        draws = _Draws(_run_seed(seed, 0))
        res = _play(proc, proc.new_state([0]), draws, 10**6)
        if res.steps <= 4:
            break
    assert res.steps <= 4 and not res.capped
    # the generator's next variate tells how many it has drawn
    stream = _run_seed(seed, 0).random(_BUFFER + 1).tolist()
    drawn = stream.index(draws.rng.random())
    assert 2 * res.steps <= drawn < _BUFFER
    assert draws.buf[:draws.i] == stream[:draws.i]


# ------------------------------------------------------------- threading


def test_thread_env_is_ignored(monkeypatch):
    # runs play on the calling thread; a value that was refused once is ignored
    monkeypatch.setenv("FIXLAB_THREADS", "0")
    assert default_thread_count() == 1
    assert estimate(two_cycle(), [0], runs=10, seed=0).runs == 10


# ------------------------------------------------------------- benchmark


def test_speedup_benchmark_reports_consistent_fields():
    g = random_digraph(61, 8)
    result = speedup_benchmark(g, [0], mc_runs=400, seed=17)
    assert result.n == 8
    assert result.mc_time > 0 and result.solver_time > 0
    assert result.speedup == pytest.approx(result.mc_time / result.solver_time)
    assert 0.0 <= result.mc_estimate <= 1.0
    if result.entered_band:
        band = max(result.mc_std_error, 1e-12)
        assert abs(result.solver_estimate - result.mc_estimate) <= band


def test_speedup_benchmark_needs_proper_config():
    g = random_digraph(61, 8)
    with pytest.raises(ValueError):
        speedup_benchmark(g, [], mc_runs=10)


# ------------------------------------------------------------- counts and seeds


def test_estimate_refuses_a_non_integer_run_count():
    with pytest.raises(ValueError, match=r"^runs 2\.5 is not an integer$"):
        estimate(two_cycle(), [0], runs=2.5)


@pytest.mark.parametrize("events,message", [
    (2.5, r"^events 2\.5 is not an integer$"),
    (-1, r"^events must be nonnegative, got -1$"),
])
def test_sample_transitions_refuses_a_bad_event_count(events, message):
    with pytest.raises(ValueError, match=message):
        sample_transitions(two_cycle(), [0], events=events)


@pytest.mark.parametrize("cap", [2.5, math.inf, True])
def test_event_caps_are_refused_unless_integer(cap):
    with pytest.raises(ValueError, match=f"^per-run event cap {re.escape(repr(cap))} is not an integer$"):
        step_cap_for(two_cycle(), cap)


SEED_TAKERS = {
    "estimate": lambda seed: estimate(two_cycle(), [0], runs=4, seed=seed),
    "simulate_run": lambda seed: simulate_run(two_cycle(), [0], seed=seed),
    "sample_transitions": lambda seed: sample_transitions(two_cycle(), [0], events=4, seed=seed),
    "speedup_benchmark": lambda seed: speedup_benchmark(
        random_digraph(61, 8), [0], mc_runs=4, seed=seed),
}


@pytest.mark.parametrize("bad", [1.5, True], ids=repr)
@pytest.mark.parametrize("name", list(SEED_TAKERS))
def test_simulator_seeds_are_refused_not_truncated(name, bad):
    with pytest.raises(ValueError, match=f"^seed {re.escape(repr(bad))} is not an integer$"):
        SEED_TAKERS[name](bad)
