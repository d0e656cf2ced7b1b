import networkx as nx
import numpy as np
import pytest

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
from fixlab.oracle import RESIDUAL_TOL

from .loop_chain import loop_transitions
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
    assert set(chain.residuals) == {"h_fix", "h_ext", "a_all", "u_fix", "u_ext"}
    assert max(chain.residuals.values()) <= RESIDUAL_TOL
    assert all(k >= 1 for k in chain.iterations.values())


def test_solve_restarts_past_a_bicgstab_breakdown():
    # a single BiCGSTAB run breaks down on h_ext for this star
    chain = build_chain(star_graph(11), Rule.BD_B, r=0.01)
    h = fixation_exact(chain, [1])
    times = mean_times_exact(chain, [1])
    assert max(chain.residuals.values()) <= RESIDUAL_TOL
    assert h == pytest.approx(0.0, abs=1e-12)
    assert times.extinction == pytest.approx(times.absorption, rel=1e-12)


def test_solve_restarts_past_a_drifted_residual():
    # on the directed 5-cycle a single run of the u systems stops on its
    # recurrence residual while the true residual is still far off
    chain = build_chain(cycle_graph(5), Rule.BD)
    h = fixation_exact(chain, [0])
    times = mean_times_exact(chain, [0])
    assert max(chain.residuals.values()) <= RESIDUAL_TOL
    assert h == pytest.approx(0.2, abs=1e-12)
    blended = h * times.fixation + (1.0 - h) * times.extinction
    assert blended == pytest.approx(times.absorption, rel=1e-10)


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
        with pytest.raises(ArithmeticError, match="never reach fixation or extinction"):
            fixation_exact(chain, [0])


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
