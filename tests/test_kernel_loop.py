"""The kernel loop gives the same bits as the ``op @ values`` reference loop.

``fixlab.dynamics.blocks`` writes the steps into the rows of one array
per block, calling scipy's CSR kernel directly and clipping with
ufuncs, and every route takes its per-step statistics once per block.
Each route that runs on the engine is compared here, field by field
and exactly, against ``tests/loop_iterate.py``, including stops on
either side of a block boundary.
"""

from dataclasses import replace

import numpy as np
import pytest

from fixlab import (
    NEUTRAL_RULES,
    Rule,
    SolveOptions,
    generate,
    iterate,
    kernel_matrix,
    load_graph,
    mttf_lower_bound,
    save_graph,
    solve,
    speedup_benchmark,
    trajectory,
)
from fixlab.cli import main
from fixlab.dynamics import block_height, step_values

from . import loop_iterate as ref
from .util import random_digraph

SIZES = (3, 4, 6, 9, 14, 22, 35, 60)


def _config(graph, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, graph.n))
    return sorted(rng.choice(graph.n, size=k, replace=False).tolist())


def assert_same_report(got, want):
    assert (got.fixation, got.half_range, got.iterations, got.converged) == (
        want.fixation, want.half_range, want.iterations, want.converged)
    assert got.values.tobytes() == want.values.tobytes()
    if want.trajectory is None:
        assert got.trajectory is None
    else:
        assert got.trajectory.to_csv_text() == want.trajectory.to_csv_text()


def assert_same_mttf(got, want):
    fields = ("lower_bound", "partial_sum", "normalizer", "iterations",
              "truncated", "negative_increments")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert got.trace.to_csv_text() == want.trace.to_csv_text()


def _solve_cases(n):
    cases = [
        SolveOptions(epsilon=1e-9, record_trajectory=True),
        SolveOptions(epsilon=1e-9, criterion="stdev", record_trajectory=True),
        SolveOptions(epsilon=1e-12, max_iters=5, record_trajectory=True),
        SolveOptions(epsilon=1e-12, criterion="stdev", max_iters=5),
    ]
    if 5 <= n <= 14:  # small enough to reach the float floor quickly
        cases += [
            SolveOptions(epsilon=1e-300, stall_window=20),
            SolveOptions(epsilon=1e-300, criterion="stdev", stall_window=20),
        ]
    return cases


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
@pytest.mark.parametrize("n", SIZES)
def test_solve_matches_the_reference_loop(rule, n):
    g = random_digraph(n, n)
    config = _config(g, n)
    outcomes = set()
    for opts in _solve_cases(n):
        opts = replace(opts, rule=rule)
        got = solve(g, config, opts)
        assert_same_report(got, ref.solve(g, config, opts))
        outcomes.add((got.converged, got.iterations == opts.max_iters))
    # the cases cover converged, capped and (where run) stalled solves
    assert (True, False) in outcomes and (False, True) in outcomes
    if 5 <= n <= 14:
        assert (False, False) in outcomes


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
@pytest.mark.parametrize("n", SIZES)
def test_trajectory_and_mttf_match_the_reference_loop(rule, n):
    g = random_digraph(n, n)
    config = _config(g, n + 1)
    got = trajectory(g, config, rule=rule, steps=40)
    assert got.to_csv_text() == ref.trajectory(g, config, rule, 40).to_csv_text()
    for max_iters in (10_000_000, 7):
        got = mttf_lower_bound(g, config, rule=rule, max_iters=max_iters, record=True)
        assert_same_mttf(got, ref.mttf_lower_bound(g, config, rule, 2.5e-6, max_iters))


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
@pytest.mark.parametrize("n", (3, 6, 9))
def test_speedup_benchmark_solver_fields_match_the_reference_loop(rule, n):
    g = random_digraph(n, n)
    config = _config(g, n + 2)
    free = speedup_benchmark(g, config, rule=rule, mc_runs=60, seed=n)
    # cut at the stopping row itself and on either side of a block boundary
    for max_iters in (10_000_000, 2, free.solver_iterations, 31, 32, 33):
        got = speedup_benchmark(g, config, rule=rule, mc_runs=60, seed=n, max_iters=max_iters)
        want = ref.speedup_solver(
            g, config, rule, got.mc_estimate, got.mc_std_error, max_iters, 2.5e-6)
        assert (got.solver_estimate, got.solver_iterations, got.entered_band) == want


@pytest.fixture(scope="module")
def ba10k():
    return generate("preferential_attachment", 10_000, seed=4, weighting="random", m=2)


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_large_graph_matches_the_reference_loop(ba10k, rule):
    config = [0, 17, 4321]
    for opts in (
        SolveOptions(rule=rule, epsilon=1e-12, max_iters=60, record_trajectory=True),
        SolveOptions(rule=rule, epsilon=1e-12, criterion="stdev", max_iters=60),
    ):
        assert_same_report(solve(ba10k, config, opts), ref.solve(ba10k, config, opts))
    got = trajectory(ba10k, config, rule=rule, steps=30)
    assert got.to_csv_text() == ref.trajectory(ba10k, config, rule, 30).to_csv_text()
    got = mttf_lower_bound(ba10k, config, rule=rule, max_iters=60, record=True)
    assert_same_mttf(got, ref.mttf_lower_bound(ba10k, config, rule, 2.5e-6, 60))


def test_clip_catches_a_step_that_rounds_past_one():
    g = random_digraph(16, 7)
    ones = np.ones(7)
    raw = kernel_matrix(g, Rule.BD) @ ones
    assert raw.max() > 1.0  # the unclipped product leaves [0, 1]
    got = next(iterate(g, Rule.BD, ones))
    want = next(ref.iterate(g, Rule.BD, ones))
    assert got.tobytes() == want.tobytes()
    assert got.max() == 1.0


@pytest.mark.parametrize("rule", ["bd", "db", "ld"])
def test_mttf_trace_file_matches_the_reference_loop(capsys, tmp_path, rule):
    g = random_digraph(8, 9)
    path, dest = tmp_path / "g.json", tmp_path / "trace.csv"
    save_graph(g, str(path))
    assert main([
        "mttf", "--graph", str(path), "--config", "[2, 5]", "--rule", rule, "--out", str(dest),
    ]) == 0
    capsys.readouterr()
    # the reference runs on the graph as read back: ingest renormalizes rows
    want = ref.mttf_lower_bound(load_graph(str(path)), [2, 5], rule, 2.5e-6, 10_000_000)
    assert dest.read_bytes() == want.trace.to_csv_text().encode()


# ------------------------------------------------------------- block boundaries


def _boundaries(b, records):
    """Iteration counts at rows 1, B-1, B and B+1 of a block, in the first
    block whose four counts all are records of ``records``."""
    for start in range(0, len(records) - b - 1, b):
        targets = sorted({start + 1, start + b - 1, start + b, start + b + 1})
        if all(records[t] for t in targets):
            return targets
    raise AssertionError("no block whose boundary rows are all records")


def _taus(table, criterion):
    """The stopping statistic per step, read off a reference trajectory."""
    if criterion == "range":
        return [0.5 * (hi - lo) for lo, hi in zip(table.min.tolist(), table.max.tolist())]
    return table.stdev.tolist()


def _since_best(taus):
    since, best, out = 0, taus[0], [0]
    for tau in taus[1:]:
        if tau < best:
            best, since = tau, 0
        else:
            since += 1
        out.append(since)
    return out


@pytest.mark.parametrize("criterion", ["range", "stdev"])
@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_solve_stops_on_either_side_of_a_block_boundary(rule, criterion):
    g = random_digraph(21, 7)
    config = [1, 4]
    b = block_height(g.n)
    assert b == 32
    run = SolveOptions(rule=rule, criterion=criterion, epsilon=1e-300,
                       stall_window=10**9, max_iters=1000, record_trajectory=True)
    taus = _taus(ref.solve(g, config, run).trajectory, criterion)
    # converged: epsilon is the statistic at the target, a new low there
    lows = [t > 0 and tau < min(taus[:t]) for t, tau in enumerate(taus)]
    # stalled: the window is the run of non-improving steps at the target,
    # longer than any run before it
    since = _since_best(taus)
    highs = [t > 0 and n > max(since[:t]) for t, n in enumerate(since)]
    cases = []
    for target in _boundaries(b, lows):
        cases.append((target, True, replace(run, epsilon=taus[target])))
    for target in _boundaries(b, highs):
        cases.append((target, False, replace(run, stall_window=since[target])))
    for target in (1, b - 1, b, b + 1):
        cases.append((target, False, replace(run, max_iters=target)))
    for target, converged, opts in cases:
        want = ref.solve(g, config, opts)
        assert (want.iterations, want.converged) == (target, converged)
        assert_same_report(solve(g, config, opts), want)


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_mttf_trajectory_and_step_cut_inside_a_block(rule):
    g = random_digraph(22, 9)
    config = [0, 5, 6]
    b = block_height(g.n)
    for max_iters in (1, b - 1, b + b // 2, 2 * b + 1):
        got = mttf_lower_bound(g, config, rule=rule, max_iters=max_iters, record=True)
        assert got.truncated and got.iterations == max_iters
        assert_same_mttf(got, ref.mttf_lower_bound(g, config, rule, 2.5e-6, max_iters))
    for steps in (0, 1, b - 1, b + 1, 2 * b + 5):
        got = trajectory(g, config, rule=rule, steps=steps)
        assert len(got) == steps + 1
        assert got.to_csv_text() == ref.trajectory(g, config, rule, steps).to_csv_text()
    values = np.random.default_rng(3).random(g.n)
    got = step_values(g, rule, values)
    assert got.shape == (g.n,)
    assert got.tobytes() == next(ref.iterate(g, rule, values)).tobytes()


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_large_graph_cuts_inside_a_block(ba10k, rule):
    # at N = 10^4 a block holds 6 rows
    b = block_height(ba10k.n)
    assert b == 6
    config = [3, 250]
    opts = SolveOptions(rule=rule, epsilon=1e-12, max_iters=2 * b + 1, record_trajectory=True)
    assert_same_report(solve(ba10k, config, opts), ref.solve(ba10k, config, opts))
    got = mttf_lower_bound(ba10k, config, rule=rule, max_iters=b + 2, record=True)
    assert_same_mttf(got, ref.mttf_lower_bound(ba10k, config, rule, 2.5e-6, b + 2))
    got = trajectory(ba10k, config, rule=rule, steps=b + 1)
    assert got.to_csv_text() == ref.trajectory(ba10k, config, rule, b + 1).to_csv_text()
