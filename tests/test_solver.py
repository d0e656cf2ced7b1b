import numpy as np
import pytest

from fixlab import (
    EvolutionaryGraph,
    NotStronglyConnected,
    Rule,
    SolveOptions,
    additivity_check,
    build_chain,
    degree_selection_class,
    estimate,
    fixation_exact,
    mttf_lower_bound,
    simulate_run,
    solve,
    speedup_benchmark,
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


# vertex 0 reaches 1 and 2, which never reach it back
WEAK = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])

# route -> (call taking a starting set, the label its refusal names)
GATED_ROUTES = {
    "solve": (lambda c: solve(WEAK, c), "fixation probability"),
    "mttf_lower_bound": (lambda c: mttf_lower_bound(WEAK, c), "mean time to fixation"),
    "estimate": (lambda c: estimate(WEAK, c, runs=4), "simulation to absorption"),
    "simulate_run": (lambda c: simulate_run(WEAK, c), "simulation to absorption"),
    "speedup_benchmark": (lambda c: speedup_benchmark(WEAK, c, mc_runs=4), "speedup benchmark"),
}


@pytest.mark.parametrize("route", list(GATED_ROUTES))
@pytest.mark.parametrize("config", [[0], [1, 2], [0, 2]])
def test_every_gated_route_refuses_a_proper_set_with_its_own_label(route, config):
    call, what = GATED_ROUTES[route]
    with pytest.raises(NotStronglyConnected) as err:
        call(config)
    assert str(err.value).startswith(f"{what} requires a strongly connected graph")


def test_gated_routes_keep_their_own_answer_to_the_trivial_sets():
    empty, full = [], [0, 1, 2]
    assert (solve(WEAK, empty).fixation, solve(WEAK, full).fixation) == (0.0, 1.0)
    assert estimate(WEAK, empty, runs=4).fixations == 0
    assert estimate(WEAK, full, runs=4).fixations == 4
    assert not simulate_run(WEAK, empty).fixated
    assert simulate_run(WEAK, full).fixated
    with pytest.raises(ValueError, match="empty configuration never fixates"):
        mttf_lower_bound(WEAK, empty)
    full_report = mttf_lower_bound(WEAK, full)
    assert (full_report.lower_bound, full_report.iterations) == (0.0, 0)
    for config in (empty, full):
        with pytest.raises(ValueError, match="nonempty proper starting set"):
            speedup_benchmark(WEAK, config, mc_runs=4)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("criterion", ["range", "stdev"])
def test_trivial_sets_pin_every_field_of_their_reports(criterion, record):
    options = SolveOptions(criterion=criterion, record_trajectory=record)
    for graph in (WEAK, cycle_graph(3)):
        for config, value in (([], 0.0), ([0, 1, 2], 1.0)):
            rep = solve(graph, config, options)
            assert [type(x) for x in (rep.fixation, rep.half_range, rep.iterations)] \
                == [float, float, int]
            assert (rep.fixation, rep.half_range, rep.iterations, rep.converged) \
                == (value, 0.0, 0, True)
            assert rep.values.dtype == np.float64 and rep.values.tolist() == [value] * 3
            if record:
                assert rep.trajectory.t.dtype == np.int64
                assert rep.trajectory.to_csv_text() == (
                    f"t,min,max,avg,stdev,ex\r\n0,{value},{value},{value},0.0,{3 * value}\r\n")
            else:
                assert rep.trajectory is None
        full = mttf_lower_bound(graph, [0, 1, 2], record=record)
        fields = (full.lower_bound, full.partial_sum, full.normalizer, full.iterations,
                  full.truncated, full.negative_increments)
        assert [type(x) for x in fields] == [float, float, float, int, bool, int]
        assert fields == (0.0, 0.0, 1.0, 0, False, 0)
        if record:
            trace = full.trace
            assert len(trace) == 0 and trace.t.dtype == np.int64
            assert [a.dtype for a in (trace.p_min, trace.increment, trace.running_sum)] \
                == [np.float64] * 3
            assert trace.to_csv_text() == "t,P_min,increment,running_sum\r\n"
        else:
            assert full.trace is None


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


# two disjoint undirected edges, and a path beside an isolated vertex
APART = (undirected_graph(4, [(0, 1), (2, 3)]), undirected_graph(3, [(0, 1)]))


@pytest.mark.parametrize("graph", APART)
@pytest.mark.parametrize("rule", [Rule.BD, Rule.DB])
def test_closed_form_refuses_a_disconnected_graph(graph, rule):
    with pytest.raises(NotStronglyConnected, match="closed form requires"):
        undirected_closed_form(graph, 0, rule)


@pytest.mark.parametrize("rule", [Rule.BD, Rule.DB])
def test_closed_form_refuses_a_single_vertex(rule):
    with pytest.raises(ValueError, match="needs at least 2 vertices, got 1"):
        undirected_closed_form(EvolutionaryGraph(1, []), 0, rule)


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


@pytest.mark.parametrize("graph", APART)
def test_degree_classes_refuse_a_disconnected_graph(graph):
    with pytest.raises(NotStronglyConnected, match="degree classification requires"):
        degree_selection_class(graph)


def test_degree_classes_refuse_a_single_vertex():
    with pytest.raises(ValueError, match="needs at least 2 vertices, got 1"):
        degree_selection_class(EvolutionaryGraph(1, []))


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
