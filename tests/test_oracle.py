import copy
import os
import subprocess
import sys
import warnings

import networkx as nx
import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import diags
from scipy.sparse.linalg import spsolve

from fixlab import (
    ORACLE_CAP,
    EvolutionaryGraph,
    Rule,
    SolveOptions,
    build_chain,
    config_of,
    fixation_exact,
    mean_times_exact,
    solve,
    state_of,
)
from fixlab import linear, oracle
from fixlab.linear import MAX_ITERATIONS, RESIDUAL_TOL, RTOL, CsrOperator

from .loop_chain import (
    chain_absorbs,
    loop_transitions,
    pinned_system,
    sliced_solutions,
    states_reaching,
    transient_system,
)
from .util import (
    complete_graph,
    cycle_graph,
    random_digraph,
    star_graph,
    two_cycle,
    undirected_graph,
)

ALL_RULES = (Rule.BD, Rule.DB, Rule.LD, Rule.BD_B, Rule.BD_D, Rule.DB_B, Rule.DB_D)


# ------------------------------------------------------------- encoding


def test_state_encoding_is_little_endian():
    assert state_of([0]) == 1
    assert state_of([1]) == 2
    assert state_of([0, 2]) == 5
    assert config_of(5, 3) == frozenset({0, 2})
    assert config_of(0, 4) == frozenset()


def test_state_round_trip():
    for state in range(16):
        assert state_of(config_of(state, 4)) == state


@pytest.mark.parametrize("state", [-1, -8, 8, 9, 2**70, -(2**70), np.int64(-1), np.uint8(8)])
def test_states_outside_the_chain_are_refused_by_range(state):
    # -1 once read as every vertex and 9 as vertex 0 alone
    with pytest.raises(ValueError, match=rf"^state {int(state)} outside 0\.\.7$"):
        config_of(state, 3)


@pytest.mark.parametrize("bad", [2.0, True, np.float64(1.0), "1", None], ids=repr)
def test_non_integer_states_are_refused_not_truncated(bad):
    with pytest.raises(ValueError, match="^state .* is not an integer$"):
        config_of(bad, 3)


def test_chain_rows_are_refused_outside_the_chain():
    # -31 once gave state 1's row and -1 an empty one; 32 and 2.0 raised
    # numpy's IndexError
    chain = build_chain(cycle_graph(5), Rule.BD)
    for state in (-31, -1, 32, 2**70):
        with pytest.raises(ValueError, match=rf"^state {state} outside 0\.\.31$"):
            chain.row(state)
    for bad in (2.0, True, np.float64(1.0)):
        with pytest.raises(ValueError, match="is not an integer"):
            chain.row(bad)
    for state in (0, 31):
        assert [a.tolist() for a in chain.row(np.int64(state))] == [[state], [1.0]]
    assert config_of(np.int64(31), 5) == frozenset(range(5))


# ------------------------------------------------------------- structure


def test_absorbing_states_self_loop():
    chain = build_chain(two_cycle(), Rule.BD)
    for state in (0, 3):
        dests, probs = chain.row(state)
        assert dests.tolist() == [state]
        assert probs.tolist() == [1.0]


def test_two_cycle_neutral_row():
    chain = build_chain(two_cycle(), Rule.BD)
    dests, probs = chain.row(1)
    table = dict(zip(dests.tolist(), probs.tolist()))
    assert table == {0: pytest.approx(0.5), 3: pytest.approx(0.5)}


def test_two_cycle_biased_row():
    chain = build_chain(two_cycle(), Rule.BD_B, r=2.0)
    table = dict(zip(*map(np.ndarray.tolist, chain.row(1))))
    assert table[3] == pytest.approx(2.0 / 3.0)
    assert table[0] == pytest.approx(1.0 / 3.0)


def test_two_cycle_ld_row():
    chain = build_chain(two_cycle(), Rule.LD)
    table = dict(zip(*map(np.ndarray.tolist, chain.row(1))))
    assert table == {0: pytest.approx(0.5), 3: pytest.approx(0.5)}


@pytest.mark.parametrize("rule", ALL_RULES)
def test_rows_are_stochastic(rule):
    r = 1.0 if rule in (Rule.BD, Rule.DB) else 1.7
    g = random_digraph(7, 5)
    chain = build_chain(g, rule, r=r)
    sums = np.asarray(chain.transitions.sum(axis=1)).ravel()
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert chain.transitions.min() >= -1e-15


@pytest.mark.parametrize("rule, r", [
    (rule, r) for rule in ALL_RULES
    for r in ((1.0,) if rule in (Rule.BD, Rule.DB) else (1.0, 0.6, 1.7))
])
def test_array_build_matches_the_loop_reference(rule, r):
    # float64 sums taken in another order: entries agree to 1e-14
    # (worst seen 1.2e-15), and the nonzero pattern exactly
    for n in range(3, 10):
        g = random_digraph(300 + n, n)
        chain = build_chain(g, rule, r=r)
        reference = loop_transitions(g, rule, r=r)
        for state in range(chain.n_states):
            dests, probs = chain.row(state)
            lo, hi = reference.indptr[state], reference.indptr[state + 1]
            assert dests.tolist() == reference.indices[lo:hi].tolist()
            assert np.abs(probs - reference.data[lo:hi]).max() <= 1e-14


def test_rows_that_do_not_sum_to_one_are_refused(monkeypatch):
    real = oracle._replacement_odds

    def skewed(*args):
        gain, loss = real(*args)
        return gain * 1.01, loss

    monkeypatch.setattr(oracle, "_replacement_odds", skewed)
    with pytest.raises(ArithmeticError, match="do not sum to 1"):
        build_chain(random_digraph(7, 5), Rule.BD)


# ------------------------------------------------------------- fixation


def test_two_cycle_values():
    assert fixation_exact(build_chain(two_cycle(), Rule.BD), [0]) == pytest.approx(0.5)
    chain = build_chain(two_cycle(), Rule.BD_B, r=2.0)
    assert fixation_exact(chain, [0]) == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("r", [1.5, 2.0])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_complete_graph_matches_moran_formula(r, n):
    # uniform complete graph under birth-biased updating is the classic
    # well-mixed process
    chain = build_chain(complete_graph(n), Rule.BD_B, r=r)
    expected = (1.0 - 1.0 / r) / (1.0 - r ** (-n))
    assert fixation_exact(chain, [0]) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("rule", (Rule.BD, Rule.DB, Rule.LD))
def test_neutral_chain_agrees_with_iteration(rule):
    g = random_digraph(19, 6)
    chain = build_chain(g, rule)
    for config in ([0], [2, 4], [1, 3, 5]):
        exact = fixation_exact(chain, config)
        rep = solve(g, config, SolveOptions(rule=rule, epsilon=1e-9))
        assert rep.fixation == pytest.approx(exact, abs=1e-8)


def test_chain_at_the_cap_agrees_with_iteration():
    skeleton = nx.gnm_random_graph(ORACLE_CAP, 60, seed=3)
    assert nx.is_connected(skeleton)
    g = undirected_graph(ORACLE_CAP, skeleton.edges)
    chain = build_chain(g, Rule.BD)
    exact = [fixation_exact(chain, [v]) for v in range(g.n)]
    assert sum(exact) == pytest.approx(1.0, abs=1e-9)
    options = SolveOptions(rule=Rule.BD, epsilon=1e-8)
    for v in range(g.n):
        assert exact[v] == pytest.approx(solve(g, [v], options).fixation, abs=1e-6)
    assert set(chain.residuals) == {"h_fix", "a_all", "u_fix", "u_ext"}
    assert max(chain.residuals.values()) <= RESIDUAL_TOL
    # the extinction-weighted times start from the other solves, a - u_fix,
    # and may take no step; the three cold solves take tens
    cold = [chain.iterations[name] for name in ("h_fix", "a_all", "u_fix")]
    assert min(cold) >= 1 and chain.iterations["u_ext"] < min(cold)


def test_solve_restarts_past_a_bicgstab_breakdown(monkeypatch):
    # a single BiCGSTAB run breaks down on this star's extinction
    # probabilities: the oracle's pinned system with 1 at the empty state,
    # started there; the oracle takes extinction as 1 - fixation, so the
    # system is solved here
    chain = build_chain(star_graph(11), Rule.BD_B, r=0.01)
    system = pinned_system(chain)
    b = np.zeros(chain.n_states)
    b[0] = 1.0
    infos = []
    real = linear.bicgstab

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        infos.append(result[1])
        return result

    monkeypatch.setattr(linear, "bicgstab", recorded)
    x, residual, _ = linear.checked_solve(CsrOperator(system), b, "h_ext", b.copy())
    assert infos[0] == -10 and infos[-1] == 0
    assert residual <= RESIDUAL_TOL
    assert np.max(np.abs(b - system @ x)) <= RESIDUAL_TOL * max(1.0, np.max(np.abs(x)))
    h = fixation_exact(chain, [1])
    times = mean_times_exact(chain, [1])
    assert max(chain.residuals.values()) <= RESIDUAL_TOL
    assert h == pytest.approx(0.0, abs=1e-12)
    assert times.extinction == pytest.approx(times.absorption, rel=1e-12)


def test_solve_restarts_past_a_drifted_residual(monkeypatch):
    # on the directed 5-cycle's pinned system a single run of the u systems
    # stops on its recurrence residual while the true residual is still far
    # off; the oracle's runs on the even half take one or two steps there
    # and stop on the true solution
    chain = build_chain(cycle_graph(5), Rule.BD)
    h = fixation_exact(chain, [0])
    runs = []
    real = linear.bicgstab

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        runs.append(result[1])
        return result

    monkeypatch.setattr(linear, "bicgstab", recorded)
    system = pinned_system(chain)
    inner = np.ones(chain.n_states)
    inner[[0, -1]] = 0.0
    b = oracle._solutions(chain)["h_fix"] * inner
    x, residual, _ = linear.checked_solve(CsrOperator(system), b, "u_fix")
    assert len(runs) > 1 and runs[0] == 0
    assert residual <= RESIDUAL_TOL
    times = mean_times_exact(chain, [0])
    assert max(chain.residuals.values()) <= RESIDUAL_TOL
    assert h == pytest.approx(0.2, abs=1e-12)
    assert x[1] / h == pytest.approx(times.fixation, rel=1e-9)
    blended = h * times.fixation + (1.0 - h) * times.extinction
    assert blended == pytest.approx(times.absorption, rel=1e-10)


# vertex 4 has no incoming edge and feeds two 2-cycles: the first run of
# the fixation solve breaks down (rho = 0), and a restart finishes it
_FEEDER = EvolutionaryGraph(5, [
    (0, 3, 1.0), (1, 2, 1.0), (2, 1, 1.0), (3, 0, 1.0), (4, 0, 0.5), (4, 2, 0.5),
])


def test_checked_solve_sums_the_steps_of_every_run(monkeypatch):
    runs = []
    real = linear.bicgstab

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        runs.append(result[1:])
        return result

    monkeypatch.setattr(linear, "bicgstab", counted)
    chain = build_chain(_FEEDER, Rule.BD)
    fixation_exact(chain, [0])
    assert runs[0][0] == -10  # the fixation probabilities restart
    assert len(runs) > len(chain.iterations)
    assert sum(steps for _, steps in runs) == sum(chain.iterations.values())
    assert max(chain.residuals.values()) <= RESIDUAL_TOL


def _inverse_degree_graph():
    g = nx.gnm_random_graph(8, 14, seed=3)
    return EvolutionaryGraph(8, [(u, v, 1.0 / g.degree(u)) for u in g for v in g[u]])


@pytest.mark.parametrize("r", [1e3, 1e-3, 1e6, 1e-6, 1e10, 1e-10, 1e20, 1e50, 1e5, 1e-50])
@pytest.mark.parametrize("rule", [Rule.BD_B, Rule.BD_D, Rule.DB_B, Rule.DB_D, Rule.LD], ids=str)
def test_a_system_whose_right_hand_side_is_tiny_is_solved(rule, r):
    # u_fix's right-hand side is h, ~1e-22 at r = 1e-6, and u_ext's is
    # 1 - h, as small at r = 1e6: an absolute rho bound of eps^2 called
    # either a breakdown on its first step, on 14 of the first 40 pairs
    chain = build_chain(_inverse_degree_graph(), rule, r)
    h = fixation_exact(chain, [0])
    times = mean_times_exact(chain, [0])
    assert 0.0 <= h <= 1.0
    assert max(chain.residuals.values()) <= RESIDUAL_TOL
    assert times.absorption > 0


def test_the_rho_bound_scales_with_the_right_hand_side():
    # scaled by a power of two, b ~ 1e-22 takes the steps of b itself, and
    # every product and sum scales exactly, so x keeps its bits scaled
    chain = build_chain(_inverse_degree_graph(), Rule.BD_B, 1.5)
    system, p = transient_system(chain)
    b = p[:, [p.shape[1] - 1]].toarray().ravel()
    x, info, steps = linear.bicgstab(CsrOperator(system), b)
    tiny_x, tiny_info, tiny_steps = linear.bicgstab(CsrOperator(system), b * 2.0**-73)
    assert (tiny_info, tiny_steps) == (info, steps) and info == 0
    assert tiny_x.tobytes() == (x * 2.0**-73).tobytes()


def test_bicgstab_ends_a_breakdown_on_a_finite_iterate():
    # scaled by 2^-500, |t|^2 underflows to 0 in omega = <t, s> / |t|^2:
    # the run took 0/0 and then every step on NaN vectors, and the refusal
    # read "residual nan". It is a breakdown, the iterate stays finite, and
    # the refusal reports the residual it was refused at
    chain = build_chain(_inverse_degree_graph(), Rule.BD_B, 1.5)
    system, p = transient_system(chain)
    b = p[:, [p.shape[1] - 1]].toarray().ravel() * 2.0**-500
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, info, steps = linear.bicgstab(CsrOperator(system), b)
        assert info == -11 and steps < MAX_ITERATIONS
        assert np.isfinite(x).all()
        with pytest.raises(ArithmeticError,
                           match=r"^sparse matrix solve for h_fix failed .* info -11, residual \d"):
            linear.checked_solve(CsrOperator(system), b, "h_fix")


@pytest.mark.parametrize("r", [1e308, 1e-308])
@pytest.mark.parametrize("rule", [Rule.BD_B, Rule.BD_D, Rule.DB_B, Rule.DB_D, Rule.LD], ids=str)
def test_a_fitness_that_overflows_the_chain_is_refused(rule, r):
    # the build warned of an overflow, then found rows that do not sum to 1
    with pytest.raises(ValueError, match=f"^fitness r = {r:g}".replace("+", r"\+")):
        build_chain(random_digraph(2, 6), rule, r)


def test_fixation_stays_a_probability_far_below_the_solve_accuracy():
    # the hub of this star fixes with chance ~1e-44; the absolute-accuracy
    # solve gave -3.1e-44 there, and extinction chances a hair above 1
    chain = build_chain(star_graph(13), Rule.BD_B, r=0.01)
    for v in range(chain.n):
        h = fixation_exact(chain, [v])
        assert 0.0 <= h <= 1.0e-12
        times = mean_times_exact(chain, [v])
        assert times.extinction == pytest.approx(times.absorption, rel=1e-12)
    assert max(chain.residuals.values()) <= RESIDUAL_TOL


def test_chain_that_never_absorbs_is_refused():
    # two source components: a state that holds them apart never absorbs
    g = EvolutionaryGraph(6, [
        (0, 1, 0.5), (0, 4, 0.5), (1, 0, 1.0), (2, 3, 0.5), (2, 5, 0.5),
        (3, 2, 1.0), (4, 5, 1.0), (5, 4, 1.0),
    ])
    for rule in (Rule.BD, Rule.DB, Rule.LD):
        chain = build_chain(g, rule)
        assert not chain_absorbs(chain)
        with pytest.raises(ArithmeticError, match="never reach fixation or extinction"):
            fixation_exact(chain, [0])
        with pytest.raises(ArithmeticError, match="no vertex reaches every other"):
            mean_times_exact(chain, [0])
        assert fixation_exact(chain, []) == 0.0
        assert fixation_exact(chain, range(6)) == 1.0


def _digraphs(seed, count):
    """Random digraphs with n = 2..6 and row-stochastic weights, strongly
    connected or not: the vertices fall in two groups, and a pair is an
    edge with one drawn chance inside a group and another, often 0, for
    each direction between them."""
    rng = np.random.default_rng(seed)
    while count:
        n = int(rng.integers(2, 7))
        group = rng.integers(0, 2, n)
        inside = rng.uniform(0.6, 1.0)
        across = rng.choice([0.0, 0.4], 2)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < (
            inside if group[a] == group[b] else across[group[a]])]
        if not pairs:
            continue
        raw = rng.uniform(0.1, 1.0, len(pairs))
        sums = np.bincount([a for a, _ in pairs], weights=raw, minlength=n)
        yield EvolutionaryGraph(n, [(a, b, w / sums[a]) for (a, b), w in zip(pairs, raw)])
        count -= 1


@pytest.mark.parametrize("rule, r", [
    (rule, r) for rule in ALL_RULES
    for r in ((1.0,) if rule in (Rule.BD, Rule.DB) else (1.0, 0.3, 2.5))
])
def test_graph_level_absorption_matches_the_chain_search(rule, r):
    # the oracle decides absorption on the graph (some vertex reaches every
    # vertex); the reference searches the chain backwards from both ends
    absorbing = refused = 0
    for g in _digraphs(41, 80):
        try:
            chain = build_chain(g, rule, r=r)
        except ValueError:  # a vertex the rule's family cannot draw from
            continue
        config = [0]
        if not chain_absorbs(chain):
            refused += 1
            with pytest.raises(ArithmeticError, match="never reach fixation or extinction"):
                fixation_exact(chain, config)
            continue
        absorbing += 1
        h_fix = fixation_exact(chain, config)
        system, p = transient_system(chain)
        h_ext = spsolve(system.tocsc(), p[:, [0]].toarray().ravel())[state_of(config) - 1]
        assert abs(h_ext - (1.0 - h_fix)) <= 2 * RESIDUAL_TOL
        times = mean_times_exact(chain, config)
        assert max(chain.residuals.values()) <= RESIDUAL_TOL
        if 1e-6 < h_fix < 1 - 1e-6:
            blended = h_fix * times.fixation + (1.0 - h_fix) * times.extinction
            assert blended == pytest.approx(times.absorption, rel=1e-8)
        # an end is possible from a state exactly when the chain reaches it
        to_empty = states_reaching(chain, 0)
        to_full = states_reaching(chain, chain.n_states - 1)
        for s in range(1, chain.n_states - 1):
            times = mean_times_exact(chain, config_of(s, chain.n))
            assert (times.extinction_defined, times.fixation_defined) == (
                to_empty[s], to_full[s])
    assert absorbing and refused


def test_extinction_is_undefined_where_mutants_hold_the_source_component():
    # vertex 2 is a sink fed by vertex 0, so {0, 1} is the source component;
    # once it is all mutant no resident can come back and extinction has no
    # mean, though the fixation probability solves to just below 1
    g = EvolutionaryGraph(3, [(0, 1, 0.5), (0, 2, 0.5), (1, 0, 1.0)])
    chain = build_chain(g, Rule.DB)
    assert chain.source == 0b011
    times = mean_times_exact(chain, [0, 1])
    assert not times.extinction_defined and np.isnan(times.extinction)
    assert times.fixation_defined and times.fixation == pytest.approx(3.0)
    assert mean_times_exact(chain, [0]).extinction_defined
    assert not mean_times_exact(chain, [2]).fixation_defined


def test_source_search_runs_once_per_graph(monkeypatch):
    g = random_digraph(43, 6)
    calls = []
    real = oracle.reaches_all

    def counted(graph, config):
        calls.append(config)
        return real(graph, config)

    monkeypatch.setattr(oracle, "reaches_all", counted)
    first = build_chain(g, Rule.BD)
    assert len(calls) == g.n
    for rule, r in ((Rule.DB, 1.0), (Rule.LD, 1.5), (Rule.BD_B, 2.0)):
        assert build_chain(g, rule, r=r).source == first.source == 0b111111
    assert len(calls) == g.n


def test_chain_with_no_source_component_is_refused_however_built():
    g = EvolutionaryGraph(2, [(0, 1, 1.0), (1, 0, 1.0)])
    built = build_chain(g, Rule.BD)
    assert built.source == 0b11
    chain = oracle.ChainModel(2, Rule.BD, 1.0, built.transitions, 0, built.half)
    with pytest.raises(ArithmeticError, match="never reach fixation or extinction"):
        fixation_exact(chain, [0])
    assert fixation_exact(chain, [0, 1]) == 1.0


def test_trivial_configs():
    chain = build_chain(two_cycle(), Rule.BD)
    assert fixation_exact(chain, []) == 0.0
    assert fixation_exact(chain, [0, 1]) == 1.0


def test_advantage_never_hurts_any_rule():
    g = random_digraph(29, 5)
    for rule in (Rule.BD_B, Rule.BD_D, Rule.DB_B, Rule.DB_D, Rule.LD):
        base = fixation_exact(build_chain(g, rule, r=1.0), [1])
        for r in (1.5, 2.0):
            assert fixation_exact(build_chain(g, rule, r=r), [1]) >= base - 1e-12


# ------------------------------------------------------------- guards


def test_neutral_names_refuse_fitness():
    g = two_cycle()
    with pytest.raises(ValueError, match="bd-b or bd-d"):
        build_chain(g, Rule.BD, r=2.0)
    with pytest.raises(ValueError, match="db-b or db-d"):
        build_chain(g, Rule.DB, r=2.0)
    # the link rule has a single biased form, so the plain name works
    assert build_chain(g, Rule.LD, r=2.0) is not None


def test_state_space_cap():
    with pytest.raises(ValueError, match="cap"):
        build_chain(cycle_graph(ORACLE_CAP + 1), Rule.BD)


def test_db_chain_needs_incoming_edges():
    from fixlab import EvolutionaryGraph
    g = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    with pytest.raises(ValueError, match="incoming"):
        build_chain(g, Rule.DB)


@pytest.mark.parametrize("rule, r", [(Rule.BD, 1.0), (Rule.BD_B, 1.5), (Rule.BD_D, 0.7)])
def test_bd_chain_needs_outgoing_edges(rule, r):
    # vertex 2 has no outgoing edge, so a birth-death event from it has no target
    g = EvolutionaryGraph(3, [(0, 1, 0.5), (0, 2, 0.5), (1, 0, 1.0)])
    with pytest.raises(ValueError, match=r"vertices \[2\] have no outgoing edges"):
        build_chain(g, rule, r=r)


# ------------------------------------------------------------- mean times


def test_two_cycle_mean_times():
    times = mean_times_exact(build_chain(two_cycle(), Rule.BD), [0])
    assert times.fixation == pytest.approx(1.0)
    assert times.extinction == pytest.approx(1.0)
    assert times.absorption == pytest.approx(1.0)
    assert times.fixation_defined and times.extinction_defined


def test_conditional_times_decompose_absorption():
    g = random_digraph(37, 5)
    chain = build_chain(g, Rule.DB_B, r=1.4)
    for config in ([0], [1, 3]):
        h = fixation_exact(chain, config)
        times = mean_times_exact(chain, config)
        blended = h * times.fixation + (1.0 - h) * times.extinction
        assert blended == pytest.approx(times.absorption, rel=1e-10)


def test_mean_times_on_trivial_configs():
    chain = build_chain(two_cycle(), Rule.BD)
    empty = mean_times_exact(chain, [])
    assert not empty.fixation_defined
    assert empty.extinction == 0.0 and empty.absorption == 0.0
    full = mean_times_exact(chain, [0, 1])
    assert not full.extinction_defined
    assert full.fixation == 0.0 and full.absorption == 0.0


def test_longer_cycles_take_longer():
    quick = mean_times_exact(build_chain(cycle_graph(3), Rule.BD), [0]).absorption
    slow = mean_times_exact(build_chain(cycle_graph(6), Rule.BD), [0]).absorption
    assert slow > quick


# ------------------------------------------------------------- BiCGSTAB

# scipy's bicgstab takes rtol from 1.12 on, with the steps linear.bicgstab
# copies; 1.10 and 1.11 call it tol and run a different implementation
SCIPY_STEPS = tuple(int(part) for part in scipy.__version__.split(".")[:2]) >= (1, 12)
same_steps_as_scipy = pytest.mark.skipif(
    not SCIPY_STEPS, reason="scipy below 1.12 has no rtol= and other BiCGSTAB steps")


def _scipy_bicgstab(system, b, x0=None, maxiter=MAX_ITERATIONS, diagonal=None):
    from scipy.sparse.linalg import bicgstab

    steps = []
    diagonal = system.diagonal() if diagonal is None else diagonal
    x, info = bicgstab(system, b, x0=x0, rtol=RTOL, atol=0.0, maxiter=maxiter,
                       M=diags(1.0 / diagonal), callback=steps.append)
    return x, info, len(steps)


def _assert_same_run(ours, reference):
    assert ours[0].tobytes() == reference[0].tobytes()
    assert ours[1:] == reference[1:]


@st.composite
def _chains(draw, rules=ALL_RULES, sizes=st.integers(2, 6)):
    """The chain of a drawn digraph under a drawn rule: a ring through every
    vertex plus random extra edges."""
    n = draw(sizes)
    vertex = st.integers(0, n - 1)
    extra = draw(st.sets(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                         max_size=2 * n))
    pairs = sorted(extra | {(v, (v + 1) % n) for v in range(n)})
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(pairs), max_size=len(pairs)))
    sums = np.bincount([s for s, _ in pairs], weights=raw, minlength=n)
    g = EvolutionaryGraph(n, [(s, d, w / sums[s]) for (s, d), w in zip(pairs, raw)])
    rule = draw(st.sampled_from(rules))
    r = 1.0 if rule in (Rule.BD, Rule.DB) else draw(st.sampled_from((0.01, 0.6, 1.7, 40.0)))
    return build_chain(g, rule, r=r)


@st.composite
def _systems(draw):
    """One absorption system of a drawn chain, twice: ``(system, b)`` against
    the sliced I - Q from zeros, and ``(pinned, b, start)`` against the
    oracle's pinned I - P from the start that holds the ends at their
    values. The right-hand side is P's column of an end (1 at that end), or
    1 on every transient state."""
    chain = draw(_chains())
    system, p = transient_system(chain)
    end = draw(st.sampled_from((0, chain.n_states - 1, None)))
    b = np.ones(p.shape[0]) if end is None else p[:, [end]].toarray().ravel()
    pinned_b = np.zeros(chain.n_states)
    if end is None:
        pinned_b[1:-1] = 1.0
    else:
        pinned_b[end] = 1.0
    start = np.zeros(chain.n_states) if end is None else pinned_b.copy()
    return (system, b), (pinned_system(chain), pinned_b, start)


@same_steps_as_scipy
@settings(max_examples=150, deadline=None)
@given(_systems())
def test_bicgstab_takes_scipys_steps(case):
    (system, b), (pinned, pinned_b, start) = case
    _assert_same_run(linear.bicgstab(CsrOperator(system), b),
                     _scipy_bicgstab(system, b))
    _assert_same_run(linear.bicgstab(CsrOperator(pinned), pinned_b, start.copy()),
                     _scipy_bicgstab(pinned, pinned_b, x0=start.copy()))


@pytest.mark.parametrize("rule", ALL_RULES)
@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_move_of_the_chain_flips_one_vertex(rule, parity, data):
    # the even-parity reduction rests on this: P links states of even and
    # odd mutant count only, and the pinned ends have no move at all; at odd
    # N the full state is odd, in the half the reduction eliminates
    sizes = st.sampled_from([n for n in range(2, 8) if n % 2 == parity])
    chain = data.draw(_chains(rules=(rule,), sizes=sizes))
    p = chain.transitions.tocoo()
    moves = p.row != p.col
    flipped = p.row[moves] ^ p.col[moves]
    assert ((flipped & (flipped - 1)) == 0).all() and (flipped > 0).all()
    assert not np.isin(p.row[moves], [0, chain.n_states - 1]).any()
    half = chain.half
    assert (half.even >> 1).tolist() == list(range(chain.n_states // 2))
    assert [bin(s).count("1") % 2 for s in half.even] == [0] * half.n_states
    assert ((chain.n_states - 1) in half.odd) == (chain.n % 2 == 1)


def _dense_half(half):
    """S as a dense matrix, one column per unit vector."""
    matvec = half.matvec
    return np.column_stack([matvec(unit, np.empty(half.n_states))
                            for unit in np.eye(half.n_states)])


@pytest.mark.parametrize("rule, r", [
    (Rule.BD, 1.0), (Rule.DB, 1.0), (Rule.LD, 1.7), (Rule.BD_B, 0.6), (Rule.BD_D, 1.7),
    (Rule.DB_B, 40.0), (Rule.DB_D, 0.01),
])
@pytest.mark.parametrize("n", [2, 3, 6, 7, 8])
def test_even_half_is_the_schur_complement_of_the_pinned_system(rule, r, n):
    chain = build_chain(random_digraph(70 + n, n), rule, r=r)
    half = chain.half
    a = pinned_system(chain).toarray()
    e, o = half.even, half.odd
    d = np.diag(a)
    # the odd states link to even ones only, so A_OO is its diagonal
    assert (a[np.ix_(o, o)] == np.diag(d[o])).all()
    assert (a[np.ix_(e, e)] == np.diag(d[e])).all()
    schur = np.diag(d[e]) - a[np.ix_(e, o)] @ np.diag(1.0 / d[o]) @ a[np.ix_(o, e)]
    assert np.abs(d[e][:, None] * _dense_half(half) - schur).max() <= 1e-15
    assert np.abs(d[e] * half.diagonal() - np.diag(schur)).max() <= 1e-15
    # the right-hand side on the half and the back-substitution solve A x = b
    b = np.random.default_rng(n).uniform(-1.0, 1.0, chain.n_states)
    x = half.extend(np.linalg.solve(_dense_half(half), half.reduce(b, None)[0]), b)
    assert np.abs(x - np.linalg.solve(a, b)).max() <= 1e-12


def _half_operator(half):
    """S as a scipy LinearOperator: [I, -B'] times v stacked on C'v, one
    sparse product each, which adds in the order of ``EvenHalf.matvec``."""
    from scipy.sparse import csr_matrix, hstack, identity
    from scipy.sparse.linalg import LinearOperator

    m = half.n_states
    c = csr_matrix((half.c, half.indices, half.indptr), shape=(m, m))
    minus_b = csr_matrix((half.minus_b, half.indices, half.indptr), shape=(m, m))
    stacked = hstack([identity(m, format="csr"), minus_b], format="csr")
    return LinearOperator((m, m), matvec=lambda v: stacked @ np.concatenate([v, c @ v]),
                          dtype=float)


@same_steps_as_scipy
@settings(max_examples=150, deadline=None)
@given(_chains(), st.sampled_from((0, -1, None)))
def test_bicgstab_on_the_even_half_takes_scipys_steps(chain, end):
    # the oracle's own right-hand sides and starts on the half: an end's
    # indicator from the start that holds the ends at their values, or 1 on
    # every transient state from zeros
    half = chain.half
    b = np.zeros(chain.n_states)
    if end is None:
        b[1:-1] = 1.0
    else:
        b[end] = 1.0
    rhs = half.reduce(b, None)[0]
    start = (b if end is not None else np.zeros(chain.n_states))[half.even]
    operator = _half_operator(half)
    _assert_same_run(linear.bicgstab(half, rhs, start.copy()),
                     _scipy_bicgstab(operator, rhs, x0=start.copy(), diagonal=half.diagonal()))


@settings(max_examples=60, deadline=None)
@given(_systems())
def test_checked_solve_meets_the_residual_bound(case):
    (system, b), (pinned, pinned_b, start) = case
    for a, rhs, x in ((system, b, None), (pinned, pinned_b, start)):
        x, residual, _ = linear.checked_solve(CsrOperator(a), rhs, "h_fix", x)
        assert residual <= RESIDUAL_TOL
        assert np.max(np.abs(rhs - a @ x)) <= RESIDUAL_TOL * max(1.0, np.max(np.abs(x)))


class _DenseSystem:
    """A system that is neither CSR nor a chain's half: a dense matrix whose
    product adds each row's terms in column order, as ``csr_matvec`` adds
    a sorted row's."""

    name = "dense matrix"

    def __init__(self, matrix):
        self.matrix = matrix

    def diagonal(self):
        return self.matrix.diagonal()

    def matvec(self, v, out):
        out.fill(0.0)
        for column, value in zip(self.matrix.T, v):
            out += column * value
        return out

    def reduce(self, rhs, x):
        return rhs, x

    def extend(self, y, rhs):
        return y

    def residual(self, rhs, x):
        return rhs - self.matrix @ x


@settings(max_examples=60, deadline=None)
@given(_systems())
def test_any_system_of_the_contract_is_solved_as_its_csr_matrix(case):
    # bicgstab and checked_solve read only the contract, so a system they
    # have never seen takes the CSR operator's steps on the same matrix
    (system, b), (pinned, pinned_b, start) = case
    for a, rhs, x in ((system, b, None), (pinned, pinned_b, start)):
        dense, sparse = _DenseSystem(a.toarray()), CsrOperator(a)
        fresh = (lambda: None) if x is None else x.copy
        _assert_same_run(linear.bicgstab(dense, rhs, fresh()),
                         linear.bicgstab(sparse, rhs, fresh()))
        got = linear.checked_solve(dense, rhs, "h_fix", fresh())
        expected = linear.checked_solve(sparse, rhs, "h_fix", fresh())
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[2] == expected[2]
        assert max(got[1], expected[1]) <= RESIDUAL_TOL


@pytest.mark.parametrize("rule, r", [
    (Rule.BD, 1.0), (Rule.DB, 1.0), (Rule.LD, 1.7), (Rule.BD_B, 0.6), (Rule.BD_D, 1.7),
    (Rule.DB_B, 40.0), (Rule.DB_D, 0.01),
])
@pytest.mark.parametrize("n", [3, 6, 9, 10])
def test_residual_from_p_keeps_the_solutions_of_the_pinned_system(rule, r, n):
    # the oracle checks its solves against P; checked against the pinned
    # I - P instead, the same runs give the same bits. The residuals differ
    # by rounding only: each entry is a float64 sum of at most n + 3 terms
    # (b_s, pin_s x_s with pin <= 2, and P's row times x, at most |x| in
    # all) taken in another order, so the two differ by at most
    # 2 (n + 3) eps (|b| + 4 |x|)
    chain = build_chain(random_digraph(90 + n, n), rule, r=r)
    solutions = oracle._solutions(chain)
    system = pinned_system(chain)
    # the chain's half, with its residual taken from the pinned I - P
    checked = copy.copy(chain.half)
    checked.residual = lambda rhs, x: rhs - system @ x
    inner = np.ones(chain.n_states)
    inner[[0, -1]] = 0.0
    to_full = np.zeros(chain.n_states)
    to_full[-1] = 1.0
    # the right-hand sides and starts of oracle._solutions
    cases = {
        "h_fix": (to_full, to_full.copy()),
        "a_all": (inner, None),
        "u_fix": (solutions["h_fix"] * inner, None),
        "u_ext": (solutions["h_ext"] * inner, solutions["a_all"] - solutions["u_fix"]),
    }
    for name, (b, start) in cases.items():
        x, residual, iterations = linear.checked_solve(checked, b, name, start)
        if name == "h_fix":
            np.clip(x, 0.0, 1.0, out=x)
        assert x.tobytes() == solutions[name].tobytes(), name
        assert iterations == chain.iterations[name]
        scale = max(1.0, np.max(np.abs(x)))
        bound = 2 * (n + 3) * np.finfo(float).eps * (np.max(np.abs(b)) + 4 * scale) / scale
        assert abs(chain.residuals[name] - residual) <= bound, name


@pytest.mark.parametrize("kind", ["empty", "odd", "full"])
def test_a_solution_wrong_at_one_state_is_refused(kind, monkeypatch):
    # the residual covers every state: an odd one, which BiCGSTAB never
    # iterates on, and either end, whose row is pinned. The error is sized
    # so that only the wrong state's own row sees it: it moves that row's
    # residual by 2 RESIDUAL_TOL and every other row's by at most a quarter
    # of that, so a check that skipped the state would pass the solution.
    # Under db a one-vertex state of N = 7 becomes an end with chance 1/7
    chain = build_chain(random_digraph(7, 7), Rule.DB)
    p = chain.transitions.toarray()
    pin = np.ones(chain.n_states)
    pin[[0, -1]] = 2.0
    own = pin - np.diag(p)
    others = (p - np.diag(np.diag(p))).max(axis=0)
    odd = chain.half.odd[chain.half.odd != chain.n_states - 1]
    wrong = {"empty": 0, "full": chain.n_states - 1,
             "odd": odd[np.argmax(own[odd] / others[odd])]}[kind]
    assert own[wrong] >= 4 * others[wrong]
    real = oracle.EvenHalf.extend

    def corrupted(self, x_even, b):
        x = real(self, x_even, b)
        x[wrong] += 2 * RESIDUAL_TOL / own[wrong]
        return x

    monkeypatch.setattr(oracle.EvenHalf, "extend", corrupted)
    with pytest.raises(ArithmeticError, match="solve for h_fix failed"):
        fixation_exact(chain, [0])


def _assert_agrees_with_the_sliced_solve(chain, lu=True):
    solutions = oracle._solutions(chain)
    for name, reference in sliced_solutions(chain, lu).items():
        got = solutions[name]
        assert got.shape == (chain.n_states,)
        assert got[0] == (name == "h_ext") and got[-1] == (name == "h_fix")
        scale = max(1.0, np.max(np.abs(reference)))
        assert np.max(np.abs(got[1:-1] - reference)) <= RESIDUAL_TOL * scale, name
    assert max(chain.residuals.values()) <= RESIDUAL_TOL


@settings(max_examples=150, deadline=None)
@given(_chains())
def test_pinned_solutions_agree_with_the_sliced_solve(chain):
    _assert_agrees_with_the_sliced_solve(chain)


@pytest.mark.parametrize("graph, rule, r", [
    # no null event from either one-mutant state, so P has no diagonal there
    (two_cycle(), Rule.BD, 1.0),
    # one source component, {0, 1}, that is not the whole graph: extinction
    # is forced to 0 on the states that hold it
    (EvolutionaryGraph(3, [(0, 1, 0.5), (0, 2, 0.5), (1, 0, 1.0)]), Rule.DB, 1.0),
    # fixation chances near 1e-44, far below the solve's accuracy
    (star_graph(13), Rule.BD_B, 0.01),
])
def test_pinned_solutions_agree_with_the_sliced_solve_on_edge_cases(graph, rule, r):
    # against the cold BiCGSTAB route the pinned system replaced
    chain = build_chain(graph, rule, r=r)
    assert (pinned_system(chain).diagonal() > 0).all()
    _assert_agrees_with_the_sliced_solve(chain, lu=False)


@pytest.mark.parametrize("r", [0.01, 0.6, 1.7])
def test_directed_five_cycle_under_db_b_solves_at_any_fitness(r):
    # each vertex has one in-neighbour, so fitness steers no draw and db-b
    # is plain db; from zeros, BiCGSTAB on this chain's extinction-weighted
    # times stalled at residual 0.33 through every restart
    times = mean_times_exact(build_chain(cycle_graph(5), Rule.DB_B, r=r), [0])
    expected = mean_times_exact(build_chain(cycle_graph(5), Rule.DB), [0])
    assert times.fixation == pytest.approx(expected.fixation, rel=1e-10)
    assert times.extinction == pytest.approx(expected.extinction, rel=1e-10)
    assert times.absorption == pytest.approx(expected.absorption, rel=1e-10)


@same_steps_as_scipy
@pytest.mark.parametrize("graph, rule, r", [
    (random_digraph(11, 6), Rule.BD_B, 1.7),
    (cycle_graph(5), Rule.BD, 1.0),
    (star_graph(6), Rule.DB_D, 0.01),
])
def test_bicgstab_continues_from_a_given_start_as_scipy_does(graph, rule, r):
    chain = build_chain(graph, rule, r=r)
    system, p = transient_system(chain)
    b = np.ones(p.shape[0])
    start = _scipy_bicgstab(system, b, maxiter=2)[0]
    _assert_same_run(linear.bicgstab(CsrOperator(system), b, start.copy()),
                     _scipy_bicgstab(system, b, x0=start.copy()))
    # the pinned system, from two steps past the start that pins the full state
    pinned = pinned_system(chain)
    b = np.zeros(chain.n_states)
    b[-1] = 1.0
    start = _scipy_bicgstab(pinned, b, x0=b.copy(), maxiter=2)[0]
    _assert_same_run(linear.bicgstab(CsrOperator(pinned), b, start.copy()),
                     _scipy_bicgstab(pinned, b, x0=start.copy()))


@same_steps_as_scipy
def test_bicgstab_on_a_zero_right_hand_side():
    system, p = transient_system(build_chain(random_digraph(12, 5), Rule.LD, r=1.5))
    b = np.zeros(p.shape[0])
    ours = linear.bicgstab(CsrOperator(system), b)
    _assert_same_run(ours, _scipy_bicgstab(system, b))
    assert ours[1:] == (0, 0) and not ours[0].any()


@same_steps_as_scipy
@pytest.mark.parametrize("maxiter", [1, 2, 3])
def test_bicgstab_that_runs_out_of_steps(maxiter, monkeypatch):
    system, p = transient_system(build_chain(random_digraph(13, 7), Rule.DB_B, r=1.7))
    b = p[:, [p.shape[1] - 1]].toarray().ravel()
    monkeypatch.setattr(linear, "MAX_ITERATIONS", maxiter)
    ours = linear.bicgstab(CsrOperator(system), b)
    _assert_same_run(ours, _scipy_bicgstab(system, b, maxiter=maxiter))
    assert ours[1:] == (maxiter, maxiter)


# the four solves of one N = 15 chain, written raw to stdout
_SOLVE_IN_A_CHILD = """
import sys
from fixlab import build_chain, generate, oracle
chain = build_chain(generate("preferential_attachment", 15, seed=3, m=2), "bd")
solutions = oracle._solutions(chain)
for name in ("h_fix", "a_all", "u_fix", "u_ext"):
    sys.stdout.buffer.write(solutions[name].tobytes())
"""


def test_solutions_do_not_depend_on_the_blas_thread_count():
    # the solves run on the even half, 2^14 states, past one slice, so each
    # inner product is summed over slices that BLAS computes on one thread;
    # one np.dot over the whole vector took u_ext in 0 steps under one thread
    # and in 1 under two, and gave other bits
    assert 2**14 > linear._DOT_SLICE
    out = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _SOLVE_IN_A_CHILD], capture_output=True, timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        out.append(proc.stdout)
    assert len(out[0]) == 4 * 2**15 * 8
    assert out[0] == out[1]
