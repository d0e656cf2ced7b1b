import io

import pytest

from fixlab import (
    NotStronglyConnected,
    Rule,
    mttf_exact,
    mttf_lower_bound,
)

from .util import cycle_graph, random_digraph, two_cycle


def test_two_cycle_bound_is_exact():
    rep = mttf_lower_bound(two_cycle(), [0])
    assert rep.lower_bound == pytest.approx(1.0)
    assert rep.iterations == 1
    assert rep.negative_increments == 0
    assert not rep.truncated
    exact = mttf_exact(two_cycle(), [0])
    assert exact.fixation == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [2, 5, 11, 23])
def test_bound_stays_below_exact_fixation_time(seed):
    g = random_digraph(seed, 6)
    rep = mttf_lower_bound(g, [seed % 6])
    exact = mttf_exact(g, [seed % 6])
    assert rep.lower_bound <= exact.fixation + 1e-9
    assert rep.lower_bound > 0.0
    # no step of the birth-death iteration lowers the minimum
    assert rep.negative_increments == 0


def test_bound_on_directed_cycle():
    g = cycle_graph(5)
    rep = mttf_lower_bound(g, [0])
    exact = mttf_exact(g, [0])
    assert 0.0 < rep.lower_bound <= exact.fixation + 1e-9


@pytest.mark.parametrize("rule", [Rule.DB, Rule.LD])
def test_other_kernels_run_and_count_sign_flips(rule):
    g = random_digraph(3, 6)
    rep = mttf_lower_bound(g, [1], rule=rule)
    assert rep.iterations > 0
    assert rep.negative_increments >= 0
    assert rep.lower_bound == pytest.approx(rep.partial_sum / rep.normalizer)


def test_trivial_and_invalid_configs():
    g = two_cycle()
    full = mttf_lower_bound(g, [0, 1])
    assert full.lower_bound == 0.0 and full.iterations == 0
    with pytest.raises(ValueError, match="empty"):
        mttf_lower_bound(g, [])


@pytest.mark.parametrize("stop", [float("nan"), float("inf")])
def test_non_finite_stopping_threshold_is_refused(stop):
    with pytest.raises(ValueError, match="must be finite"):
        mttf_lower_bound(random_digraph(8, 6), [0], stop_stdev=stop)


def test_requires_strong_connectivity():
    from fixlab import EvolutionaryGraph
    g = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    with pytest.raises(NotStronglyConnected):
        mttf_lower_bound(g, [0])


def test_truncation_is_reported():
    g = random_digraph(8, 8)
    rep = mttf_lower_bound(g, [0], max_iters=2)
    assert rep.truncated
    assert rep.iterations == 2


def test_trace_matches_report(tmp_path):
    g = random_digraph(6, 5)
    rep = mttf_lower_bound(g, [2], record=True)
    trace = rep.trace
    assert len(trace.t) == rep.iterations
    assert trace.running_sum[-1] == pytest.approx(rep.partial_sum)
    buf = io.StringIO()
    trace.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,P_min,increment,running_sum"
    assert len(lines) == rep.iterations + 1
    dest = tmp_path / "trace.csv"
    trace.write_csv(str(dest))
    assert dest.read_text().startswith("t,P_min,increment,running_sum")


def test_normalizer_is_mean_final_probability():
    rep = mttf_lower_bound(two_cycle(), [0])
    assert rep.normalizer == pytest.approx(0.5)
    assert rep.partial_sum == pytest.approx(0.5)
