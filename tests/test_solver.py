import numpy as np
import pytest

from fixlab import (
    NotStronglyConnected,
    Rule,
    SolveOptions,
    additivity_check,
    bracket,
    build_chain,
    degree_selection_class,
    fixation_exact,
    init_vector,
    solve,
    trajectory,
    undirected_closed_form,
)

from .util import (
    complete_graph,
    cycle_graph,
    path3,
    random_digraph,
    star_graph,
    two_cycle,
    undirected_graph,
)

RULES = (Rule.BD, Rule.DB, Rule.LD)


# ------------------------------------------------------------- basics


def test_two_cycle_single_mutant():
    rep = solve(two_cycle(), [0], SolveOptions(epsilon=1e-9))
    assert rep.fixation == pytest.approx(0.5, abs=1e-9)
    assert rep.iterations == 1
    assert rep.converged
    lo, hi = rep.bracket()
    assert hi - lo <= 2e-9


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("n", [3, 5, 8])
def test_complete_graph_is_isothermal(rule, n):
    rep = solve(complete_graph(n), [0], SolveOptions(rule=rule, epsilon=1e-9))
    assert rep.fixation == pytest.approx(1.0 / n, abs=1e-8)


@pytest.mark.parametrize("rule", RULES)
def test_directed_cycle_single_mutant(rule):
    # rotational symmetry forces 1/N for every start vertex
    rep = solve(cycle_graph(5), [2], SolveOptions(rule=rule, epsilon=1e-9))
    assert rep.fixation == pytest.approx(0.2, abs=1e-8)


def test_empty_and_full_configs_are_immediate():
    g = random_digraph(1, 6)
    rep0 = solve(g, [])
    assert rep0.fixation == 0.0 and rep0.iterations == 0 and rep0.converged
    rep1 = solve(g, range(6))
    assert rep1.fixation == 1.0 and rep1.iterations == 0 and rep1.converged


def test_refuses_weakly_connected_graphs():
    from fixlab import EvolutionaryGraph
    g = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    with pytest.raises(NotStronglyConnected) as err:
        solve(g, [0])
    assert err.value.reason == "not_strongly_connected"


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(rule=Rule.BD_B)
    with pytest.raises(ValueError):
        SolveOptions(epsilon=0.0)
    with pytest.raises(ValueError):
        SolveOptions(criterion="median")
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_options_refuse_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="finite and positive"):
        SolveOptions(epsilon=epsilon)


def test_options_accept_rule_names():
    assert SolveOptions(rule="ld").rule is Rule.LD
    with pytest.raises(ValueError, match="neutral only"):
        SolveOptions(rule="bd-b")


def test_unconverged_run_is_reported():
    g = random_digraph(2, 8)
    rep = solve(g, [0], SolveOptions(epsilon=1e-12, max_iters=3))
    assert not rep.converged
    assert rep.iterations == 3


# ------------------------------------------------------------- guarantees


@pytest.mark.parametrize("rule", RULES)
def test_estimate_within_epsilon_of_exact(rule):
    eps = 1e-8
    for seed in (3, 14, 15):
        g = random_digraph(seed, 6)
        config = [seed % 6]
        rep = solve(g, config, SolveOptions(rule=rule, epsilon=eps))
        exact = fixation_exact(build_chain(g, rule), config)
        assert rep.converged
        assert abs(rep.fixation - exact) <= eps
        lo, hi = rep.bracket()
        assert lo - 1e-12 <= exact <= hi + 1e-12


@pytest.mark.parametrize("rule", RULES)
def test_stdev_criterion_matches_exact(rule):
    g = random_digraph(6, 6)
    rep = solve(g, [1, 4], SolveOptions(rule=rule, criterion="stdev", epsilon=1e-9))
    exact = fixation_exact(build_chain(g, rule), [1, 4])
    assert rep.converged
    assert rep.fixation == pytest.approx(exact, abs=1e-6)


def test_recorded_brackets_nest_and_hold_the_answer():
    g = random_digraph(9, 7)
    rep = solve(g, [2], SolveOptions(epsilon=1e-9, record_trajectory=True))
    tr = rep.trajectory
    assert len(tr) == rep.iterations + 1
    assert (np.diff(tr.min) >= -1e-14).all()
    assert (np.diff(tr.max) <= 1e-14).all()
    exact = fixation_exact(build_chain(g, Rule.BD), [2])
    assert ((tr.min - 1e-12 <= exact) & (exact <= tr.max + 1e-12)).all()


def test_more_mutants_never_hurt():
    g = random_digraph(17, 6)
    opts = SolveOptions(epsilon=1e-10)
    f_small = solve(g, [0], opts).fixation
    f_large = solve(g, [0, 3], opts).fixation
    assert f_large >= f_small - 1e-9


# ------------------------------------------------------------- additivity


@pytest.mark.parametrize("rule", RULES)
def test_additivity_of_disjoint_sets(rule):
    g = random_digraph(23, 6)
    rep = additivity_check(g, [0, 2], [4], SolveOptions(rule=rule, epsilon=1e-9))
    assert rep.defect <= 3e-9


def test_additivity_rejects_overlap():
    g = random_digraph(23, 6)
    with pytest.raises(ValueError, match="overlap"):
        additivity_check(g, [0, 1], [1, 2])


def test_singleton_fixations_sum_to_one():
    g = random_digraph(31, 7)
    total = sum(
        solve(g, [i], SolveOptions(epsilon=1e-9)).fixation for i in range(7)
    )
    assert total == pytest.approx(1.0, abs=7e-9)


# ------------------------------------------------------------- closed forms


def test_path_closed_forms():
    g = path3()
    bd_center = undirected_closed_form(g, 1, Rule.BD)
    assert bd_center.fixation == pytest.approx(1.0 / 5.0)
    assert bd_center.limit_expected_mutants == pytest.approx(3.0 / 5.0)
    bd_leaf = undirected_closed_form(g, 0, Rule.BD)
    assert bd_leaf.fixation == pytest.approx(2.0 / 5.0)
    db_center = undirected_closed_form(g, 1, Rule.DB)
    assert db_center.fixation == pytest.approx(0.5)
    db_leaf = undirected_closed_form(g, 2, Rule.DB)
    assert db_leaf.fixation == pytest.approx(0.25)


def test_closed_form_matches_solver_on_random_undirected():
    from .util import random_undirected
    g = random_undirected(5, 12, p=0.35)
    for i in (0, 5, 11):
        cf = undirected_closed_form(g, i, Rule.BD)
        rep = solve(g, [i], SolveOptions(epsilon=1e-9))
        assert rep.fixation == pytest.approx(cf.fixation, abs=1e-7)
        cf_db = undirected_closed_form(g, i, Rule.DB)
        rep_db = solve(g, [i], SolveOptions(rule=Rule.DB, epsilon=1e-9))
        assert rep_db.fixation == pytest.approx(cf_db.fixation, abs=1e-7)


def test_closed_form_needs_undirected_unweighted():
    g = random_digraph(2, 5)
    with pytest.raises(ValueError):
        undirected_closed_form(g, 0, Rule.BD)
    with pytest.raises(ValueError):
        undirected_closed_form(path3(), 0, Rule.LD)


# ------------------------------------------------------------- vertex classes


def test_degree_classes_on_path():
    assert degree_selection_class(path3()) == ["amplifier", "suppressor", "amplifier"]


def test_degree_classes_on_regular_graph():
    square = undirected_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert degree_selection_class(square) == ["neutral"] * 4


def test_degree_classes_on_star():
    labels = degree_selection_class(star_graph(4))
    assert labels[0] == "suppressor"
    assert labels[1:] == ["amplifier"] * 4


# ------------------------------------------------------------- trajectories


def test_trajectory_row_count_and_start():
    g = path3()
    tr = trajectory(g, [1], steps=7)
    assert len(tr) == 8
    assert tr.t.tolist() == list(range(8))
    assert tr.min[0] == 0.0 and tr.max[0] == 1.0
    assert tr.ex[0] == pytest.approx(1.0)


def test_trajectory_zero_steps_keeps_initial_row():
    tr = trajectory(path3(), [0], steps=0)
    assert len(tr) == 1
    assert tr.ex[0] == pytest.approx(1.0)


def test_trajectory_constant_on_two_cycle():
    tr = trajectory(two_cycle(), [0], steps=5)
    assert np.allclose(tr.ex, 1.0)
    assert np.allclose(tr.avg, 0.5)


def test_trajectory_allows_weak_connectivity():
    from fixlab import EvolutionaryGraph
    g = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    tr = trajectory(g, [0], rule=Rule.BD, steps=10)
    # the source vertex never receives anything, so its value is pinned
    assert np.allclose(tr.max, 1.0)


def test_trajectory_csv_contract():
    tr = trajectory(two_cycle(), [0], steps=2)
    text = tr.to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "t,min,max,avg,stdev,ex"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[5]) == pytest.approx(1.0)


def test_trajectory_write_csv_file(tmp_path):
    tr = trajectory(path3(), [0], steps=3)
    dest = tmp_path / "tr.csv"
    tr.write_csv(str(dest))
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "t,min,max,avg,stdev,ex"
    assert len(lines) == 5


def test_trajectory_rejects_negative_steps():
    with pytest.raises(ValueError):
        trajectory(path3(), [0], steps=-1)


# ------------------------------------------------------------- helpers


def test_bracket_helper():
    g = path3()
    pv = init_vector(g, [1])
    lo, hi = bracket(pv)
    assert (lo, hi) == (0.0, 1.0)
    lo2, hi2 = bracket(np.array([0.25, 0.5]))
    assert (lo2, hi2) == (0.25, 0.5)
