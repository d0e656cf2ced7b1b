import io
import tracemalloc

import pytest

from fixlab import (
    EvolutionaryGraph,
    NotStronglyConnected,
    Rule,
    SolveOptions,
    build_chain,
    generate,
    mean_times_exact,
    mttf_lower_bound,
    solve,
)
from fixlab.mttf import MttfReport

from .util import cycle_graph, random_digraph, two_cycle


def test_two_cycle_bound_is_exact():
    rep = mttf_lower_bound(two_cycle(), [0])
    assert rep.lower_bound == pytest.approx(1.0)
    assert rep.iterations == 1
    assert rep.negative_increments == 0
    assert not rep.truncated
    exact = mean_times_exact(build_chain(two_cycle()), [0])
    assert exact.fixation == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [2, 5, 11, 23])
def test_bound_stays_below_exact_fixation_time(seed):
    g = random_digraph(seed, 6)
    rep = mttf_lower_bound(g, [seed % 6])
    exact = mean_times_exact(build_chain(g), [seed % 6])
    assert rep.lower_bound <= exact.fixation + 1e-9
    assert rep.lower_bound > 0.0
    # no step of the birth-death iteration lowers the minimum
    assert rep.negative_increments == 0


def test_bound_on_directed_cycle():
    g = cycle_graph(5)
    rep = mttf_lower_bound(g, [0])
    exact = mean_times_exact(build_chain(g), [0])
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


@pytest.mark.parametrize("stop", [float("nan"), float("inf"), -1.0, -1e-300])
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


def test_a_start_at_consensus_builds_no_kernel():
    # vertex 0 has no in-edges, so the death-birth kernel is undefined; the
    # full set stops on row 0, before the row stream asks for a kernel
    g = EvolutionaryGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    report = solve(g, [0, 1, 2], SolveOptions(rule="db"))
    assert (report.fixation, report.iterations) == (1.0, 0)
    assert mttf_lower_bound(g, [0, 1, 2], rule="db") == MttfReport(0.0, 0.0, 1.0, 0, False, 0)
    assert ("kernel", Rule.DB) not in g._ops


def test_a_long_bound_holds_flat_memory():
    # db on a 100-vertex BA graph runs to the cap at a threshold of 0. Kept to
    # the end, the minima, increments and running sums of a million steps
    # would take about 50 MB; folded every 2^16 rows they take under 3 MB
    g = generate("preferential_attachment", 100, seed=1, m=2)
    mttf_lower_bound(g, [0], rule="db", max_iters=1)  # builds the kernel and loads scipy
    tracemalloc.start()
    try:
        rep = mttf_lower_bound(g, [0], rule="db", stop_stdev=0.0, max_iters=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.truncated and rep.iterations == 10**6
    assert peak < 5_000_000
