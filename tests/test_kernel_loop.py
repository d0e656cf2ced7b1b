"""The kernel loop gives the same bits as the ``op @ values`` reference loop.

``fixlab.dynamics.blocks`` writes the steps into the rows of one array
per block, calling scipy's CSR kernel directly and clipping with
ufuncs, and every route takes its per-step statistics once per block.
Each route that runs on the engine is compared here, field by field
and exactly, against ``tests/loop_iterate.py``, including stops on
either side of a block boundary and of a stacked chunk (the rows one
call of the kernel runs). The engine runs the vertices in order of
kernel row length; on every graph here from n = 6 that order is not the
identity, and nothing of it may show in an output.
"""

import os
import threading
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fixlab import (
    NEUTRAL_RULES,
    EvolutionaryGraph,
    Rule,
    SolveOptions,
    generate,
    init_vector,
    kernel_matrix,
    load_graph,
    mttf_lower_bound,
    save_graph,
    solve,
    speedup_benchmark,
    trajectory,
)
from fixlab import dynamics
from fixlab import montecarlo as montecarlo_mod
from fixlab import mttf as mttf_mod
from fixlab import solver as solver_mod
from fixlab.cli import main
from fixlab.dynamics import block_height, blocks, engine_kernel, stack_depth, step_values

from . import loop_iterate as ref
from . import loop_kernel
from .util import normalize_rows, random_digraph

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
    """Pairs of options and the stall window to solve them with."""
    window = solver_mod.STALL_WINDOW
    cases = [
        (SolveOptions(epsilon=1e-9, record_trajectory=True), window),
        (SolveOptions(epsilon=1e-9, criterion="stdev", record_trajectory=True), window),
        (SolveOptions(epsilon=1e-12, max_iters=5, record_trajectory=True), window),
        (SolveOptions(epsilon=1e-12, criterion="stdev", max_iters=5), window),
    ]
    if 5 <= n <= 14:  # small enough to reach the float floor quickly
        cases += [
            (SolveOptions(epsilon=1e-300), 20),
            (SolveOptions(epsilon=1e-300, criterion="stdev"), 20),
        ]
    return cases


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
@pytest.mark.parametrize("n", SIZES)
def test_solve_matches_the_reference_loop(monkeypatch, rule, n):
    g = random_digraph(n, n)
    config = _config(g, n)
    outcomes = set()
    for opts, window in _solve_cases(n):
        monkeypatch.setattr(solver_mod, "STALL_WINDOW", window)
        opts = replace(opts, rule=rule)
        got = solve(g, config, opts)
        assert_same_report(got, ref.solve(g, config, opts, window))
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
def test_larger_graphs_run_in_an_order_other_than_the_identity(rule):
    for n in SIZES[2:]:
        order = engine_kernel(random_digraph(n, n), rule).order
        assert not np.array_equal(order, np.arange(n))


@pytest.fixture(scope="module")
def ba300():
    return generate("preferential_attachment", 300, seed=5, weighting="random", m=2)


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_hub_graph_matches_the_reference_loop(ba300, rule):
    g = ba300
    assert not np.array_equal(engine_kernel(g, rule).order, np.arange(g.n))
    config = [0, 7, 123]
    b = block_height(g.n)
    for criterion in ("range", "stdev"):
        for record in (False, True):
            # a free stop, and a cut inside a block
            for max_iters in (10_000_000, b + b // 2):
                opts = SolveOptions(rule=rule, epsilon=3e-3, criterion=criterion,
                                    max_iters=max_iters, record_trajectory=record)
                got = solve(g, config, opts)
                assert got.converged == (max_iters > b + b // 2)
                assert_same_report(got, ref.solve(g, config, opts))
    for max_iters in (10_000_000, 2 * b + 3):
        got = mttf_lower_bound(g, config, rule=rule, stop_stdev=3e-3, max_iters=max_iters,
                               record=True)
        assert_same_mttf(got, ref.mttf_lower_bound(g, config, rule, 3e-3, max_iters))
    got = trajectory(g, config, rule=rule, steps=2 * b + 3)
    assert got.to_csv_text() == ref.trajectory(g, config, rule, 2 * b + 3).to_csv_text()
    values = np.random.default_rng(5).random(g.n)
    assert step_values(g, rule, values).tobytes() == next(ref.iterate(g, rule, values)).tobytes()


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_blocks_clip_an_odd_start_and_leave_it_unwritten(ba300, rule):
    g = ba300
    start = np.zeros(g.n)
    start[[5, 50, 100, 200]] = [np.nan, np.inf, -1.0, 2.0]
    kept = start.copy()
    with np.errstate(invalid="ignore"):
        raw = loop_kernel.kernel_matrix(g, rule) @ start
        rows = np.concatenate(list(blocks(g, rule, start, 40)))
        want = list(islice(ref.iterate(g, rule, start), 40))
    assert rows.tobytes() == np.array(want).tobytes()
    assert start.tobytes() == kept.tobytes()
    # the first step clips the product to [0, 1] and passes NaN through
    nan = np.isnan(raw)
    assert nan.any() and (raw[~nan] < 0).any() and (raw[~nan] > 1).any()
    assert np.array_equal(np.isnan(rows[0]), nan)
    assert rows[0][~nan].tobytes() == np.clip(raw[~nan], 0.0, 1.0).tobytes()


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
@pytest.mark.parametrize("n", (3, 6, 9))
def test_speedup_benchmark_solver_fields_match_the_reference_loop(rule, n):
    g = random_digraph(n, n)
    config = _config(g, n + 2)
    free = speedup_benchmark(g, config, rule=rule, mc_runs=60, seed=n)
    b = block_height(g.n)
    # cut at the stopping row itself, on either side of a block boundary,
    # and at 31-33 steps
    for max_iters in (10_000_000, 2, free.solver_iterations, 31, 32, 33, b - 1, b, b + 1):
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
    got = step_values(g, Rule.BD, ones)
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


def _boundaries(b, records, rows=None):
    """Iteration counts at ``rows`` of a block (by default rows 1, B-1, B
    and B+1, counted from 1), in the first block whose counts all are
    records of ``records``."""
    rows = (1, b - 1, b, b + 1) if rows is None else rows
    for start in range(0, len(records) - max(rows), b):
        targets = sorted({start + r for r in rows})
        if all(records[t] for t in targets):
            return targets
    raise AssertionError("no block whose rows are all records")


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


def _stop_row_by_row(taus, epsilon, best, since_best, window):
    """``solver._stop`` as the loop over single rows that ``solve`` ran."""
    for k, tau in enumerate(taus.tolist()):
        if tau <= epsilon:
            return k, True, best, since_best
        if tau < best:
            best, since_best = tau, 0
        else:
            since_best += 1
            if since_best >= window:
                return k, False, best, since_best
    return None, False, best, since_best


# few distinct values, so that rows tie with each other and with ``best``
_STATISTIC = st.sampled_from([0.0, 1e-7, 1e-6, 0.25, 0.5, np.inf, np.nan]) | st.floats(0, 1)


@st.composite
def _stop_cases(draw):
    window = draw(st.integers(1, 400))
    taus = draw(hnp.arrays(np.float64, st.integers(1, 300), elements=_STATISTIC))
    best = draw(_STATISTIC.filter(lambda x: x == x))
    since_best = draw(st.integers(0, window - 1))
    epsilon = draw(st.sampled_from([1e-300, 1e-6, 0.25]))
    return taus, epsilon, best, since_best, window


@settings(max_examples=500, deadline=None)
@given(_stop_cases())
# a tie with best is no new low, so the count reaches the window
@example((np.array([0.5, 0.5, 0.5]), 1e-6, 0.5, 0, 2))
# NaN rows are never a new low; the low after them is
@example((np.array([np.nan, np.nan, 0.1, 0.1, np.nan]), 1e-6, 0.2, 0, 3))
@example((np.array([0.3, np.nan, 0.2, 0.2, 0.4]), 1e-6, np.inf, 0, 1000))
# the count one short of the window stalls on row 0
@example((np.array([0.9, 0.1]), 1e-6, 0.5, 4, 5))
@example((np.array([0.1, 0.9]), 1e-6, 0.5, 4, 5))
# a window shorter than the block, reached after a new low in it
@example((np.array([0.4, 0.3, 0.5, 0.5, 0.5, 0.2, 0.6]), 1e-6, 0.45, 1, 3))
# epsilon met on row 0, and converged after a stall could have completed
@example((np.array([1e-7, 0.9, 0.9]), 1e-6, 0.5, 2, 3))
@example((np.array([0.9, 0.9, 1e-7]), 1e-6, 0.5, 0, 3))
@example((np.array([0.9, 0.9, 1e-7]), 1e-6, 0.5, 0, 2))
def test_block_stop_search_is_the_row_by_row_rule(case):
    got = solver_mod._stop(*case)
    want = _stop_row_by_row(*case)
    assert (got[0], got[1], got[3]) == (want[0], want[1], want[3])
    assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()


def _assert_same_stops(monkeypatch, g, config, cases):
    """Each case ``(iterations, converged, options, stall window)`` is the
    reference's stop and report."""
    for target, converged, opts, window in cases:
        monkeypatch.setattr(solver_mod, "STALL_WINDOW", window)
        want = ref.solve(g, config, opts, window)
        assert (want.iterations, want.converged) == (target, converged)
        assert_same_report(solve(g, config, opts), want)


def _assert_stops_at(monkeypatch, g, config, rule, criterion, rows, iters=1000):
    """Solves that converge, stall and reach the cap at ``rows`` of a block
    (counted from 1), each the reference's report; ``iters`` steps must
    reach the float floor."""
    b = block_height(g.n)
    run = SolveOptions(rule=rule, criterion=criterion, epsilon=1e-300,
                       max_iters=iters, record_trajectory=True)
    taus = _taus(ref.solve(g, config, run, 10**9).trajectory, criterion)
    # converged: epsilon is the statistic at the target, a new low there
    lows = [t > 0 and tau < min(taus[:t]) for t, tau in enumerate(taus)]
    # stalled: the window is the run of non-improving steps at the target,
    # longer than any run before it
    since = _since_best(taus)
    highs = [t > 0 and n > max(since[:t]) for t, n in enumerate(since)]
    cases = []
    for target in _boundaries(b, lows, rows):
        cases.append((target, True, replace(run, epsilon=taus[target]), 10**9))
    for target in _boundaries(b, highs, rows):
        cases.append((target, False, run, since[target]))
    for target in rows:
        cases.append((target, False, replace(run, max_iters=target), 10**9))
    _assert_same_stops(monkeypatch, g, config, cases)


@pytest.mark.parametrize("criterion", ["range", "stdev"])
@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_solve_stops_on_either_side_of_a_block_boundary(monkeypatch, rule, criterion):
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 32)
    g = random_digraph(21, 7)
    b = block_height(g.n)
    assert b == 32
    _assert_stops_at(monkeypatch, g, [1, 4], rule, criterion, (1, b - 1, b, b + 1))


@pytest.mark.parametrize("criterion", ["range", "stdev"])
@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_solve_stops_on_either_side_of_a_256_row_block_boundary(monkeypatch, rule, criterion):
    # the statistics make a new low at every step up to steps 436-780 and
    # none after, so the converged stops fall in the first block and the
    # stalled ones at a later block's edge
    g = random_digraph(5, 12)
    b = block_height(g.n)
    assert b == 256
    _assert_stops_at(monkeypatch, g, [1, 4], rule, criterion, (1, b - 1, b, b + 1),
                     iters=1500)


@pytest.fixture(scope="module")
def dense34():
    # 1.1k kernel entries: 14 stacked copies, so a block cut to 32 rows (the
    # tests patch the height) runs row 0 alone, then chunks of 14, 14 and 3
    # rows; the statistics reach the float floor in 1200-1450 steps
    return random_digraph(0, 34, p=0.95)


def _chunk_rows(depth):
    """Rows 1, D - 1, D and D + 1 of the block's first stacked chunk, as
    rows of the block counted from 1 (the chunk starts at block row 2)."""
    return (2, depth, depth + 1, depth + 2)


@pytest.mark.parametrize("criterion", ["range", "stdev"])
@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_solve_stops_on_either_side_of_a_stacked_chunk(monkeypatch, dense34, rule, criterion):
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 32)
    depth = engine_kernel(dense34, rule).depth
    assert depth == 14 and block_height(dense34.n) == 32
    _assert_stops_at(monkeypatch, dense34, [2, 9, 30], rule, criterion, _chunk_rows(depth),
                     iters=2000)


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_mttf_and_trajectory_cut_on_either_side_of_a_stacked_chunk(monkeypatch, dense34, rule):
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 32)
    g, config = dense34, [2, 9, 30]
    b, depth = block_height(g.n), engine_kernel(g, rule).depth
    # in the first block, in a later one, and in the block's short last chunk
    cuts = list(_chunk_rows(depth)) + [b + r for r in _chunk_rows(depth)] + [b - 1, b]
    for steps in cuts:
        got = trajectory(g, config, rule=rule, steps=steps)
        assert got.to_csv_text() == ref.trajectory(g, config, rule, steps).to_csv_text()
        got = mttf_lower_bound(g, config, rule=rule, stop_stdev=0.0, max_iters=steps, record=True)
        assert got.truncated and got.iterations == steps
        assert_same_mttf(got, ref.mttf_lower_bound(g, config, rule, 0.0, steps))


@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_mttf_trajectory_and_step_cut_inside_a_block(monkeypatch, rule):
    # the cuts, up to step 2 * 32 + 1, come before the bound's free stop
    # (138-259 steps)
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 32)
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


def _assert_same_mttf_both_ways(g, config, rule, stop_stdev, max_iters):
    """The report with its trace and without it, each the reference's."""
    want = ref.mttf_lower_bound(g, config, rule, stop_stdev, max_iters)
    got = mttf_lower_bound(g, config, rule=rule, stop_stdev=stop_stdev, max_iters=max_iters,
                           record=True)
    assert_same_mttf(got, want)
    got = mttf_lower_bound(g, config, rule=rule, stop_stdev=stop_stdev, max_iters=max_iters)
    assert got.trace is None
    assert got == replace(want, trace=None)
    return want


@pytest.mark.parametrize("fold", [1, 2, 33, 40])
@pytest.mark.parametrize("rule", NEUTRAL_RULES)
def test_mttf_folds_the_minima_on_either_side_of_a_fold(monkeypatch, rule, fold):
    # 32-row blocks and a fold once the minima hold ``fold`` rows: the cuts
    # fall on, just before and just after the steps where a fold runs
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 32)
    g, config = random_digraph(22, 9), [0, 5, 6]
    b = block_height(g.n)
    assert b == 32
    monkeypatch.setattr(mttf_mod, "_FOLD_ROWS", fold)
    free = _assert_same_mttf_both_ways(g, config, rule, 2.5e-6, 10_000_000)
    assert not free.truncated and free.iterations > 4 * b
    for max_iters in (0, 1, 2, b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1, 3 * b + 7):
        _assert_same_mttf_both_ways(g, config, rule, 0.0, max_iters)


def test_mttf_folds_at_its_own_row_count():
    # at 256 rows a block, as at 32, the minima of steps 0 .. 2^16 fold at
    # step 2^16, and the cut at step 2^16 + 64 folds the rest
    assert mttf_mod._FOLD_ROWS == 1 << 16
    g = random_digraph(22, 9)
    _assert_same_mttf_both_ways(g, [0, 5, 6], Rule.DB, 0.0, (1 << 16) + 64)


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


def _dense(n, edges, seed):
    """The first ``edges`` of the n(n - 1) ordered pairs in a random order,
    with random weights: a birth-death kernel of n + edges entries."""
    rng = np.random.default_rng(seed)
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    picked = rng.permutation(len(pairs))[:edges]
    raw = [(*pairs[i], float(rng.uniform(0.5, 1.0))) for i in sorted(picked)]
    return EvolutionaryGraph(n, normalize_rows(n, raw))


@pytest.mark.parametrize("entries, depth", [(8192, 2), (8193, 1)])
def test_kernel_at_the_one_copy_boundary_matches_the_reference_loop(entries, depth):
    assert stack_depth(entries) == depth
    g = _dense(100, entries - 100, seed=entries)
    kernel = engine_kernel(g, Rule.BD)
    assert len(kernel.stacked[2]) == depth * entries and kernel.depth == depth
    b = block_height(g.n)
    config = [3, 50]
    for steps in (1, 2, 3, b - 1, b, b + 3):
        got = trajectory(g, config, rule=Rule.BD, steps=steps)
        assert got.to_csv_text() == ref.trajectory(g, config, Rule.BD, steps).to_csv_text()
    opts = SolveOptions(epsilon=1e-12, max_iters=2 * b + 1)
    assert_same_report(solve(g, config, opts), ref.solve(g, config, opts))
    values = np.random.default_rng(entries).random(g.n)
    rows = np.concatenate([block.copy() for block in blocks(g, Rule.BD, values, b + 2)])
    want = list(islice(ref.iterate(g, Rule.BD, values), b + 2))
    assert rows.tobytes() == np.array(want).tobytes()


# ------------------------------------------------------------- the clip at 1


def _climber(closed, seed=287):
    """Five vertices with no in-edges feed vertex 5, which feeds vertex 6.

    From ones on 0-4 the values of 5 and 6 climb towards 1, and row 5 of
    the birth-death kernel sums past 1 in floats, so a product first
    passes 1 many steps in. Vertex 6 has no out-edges, so a NaN there
    stays there. ``closed`` adds the edges 5 -> 0-4, each weighing
    1e-20 (too little to move a value), and 6 -> 5, which make the graph
    strongly connected. ``seed`` draws the weights into 5.
    """
    weights = np.random.default_rng(seed).uniform(0.5, 1.0, size=5).tolist()
    edges = [(5, 6, 1.0)]
    for s, w in enumerate(weights):
        edges += [(s, 5, w), (s, 6, 1 - w)]
        if closed:
            edges.append((5, s, 1e-20))
    if closed:
        edges.append((6, 5, 1.0))
    return EvolutionaryGraph(7, edges)


def _passes_one(graph, values, steps):
    """Steps of the reference loop whose unclipped product passes 1."""
    op = kernel_matrix(graph, Rule.BD)
    steps_past = []
    for t, step in enumerate(islice(ref.iterate(graph, Rule.BD, values), steps), start=1):
        if np.nanmax(op @ values) > 1.0:
            steps_past.append(t)
        values = step
    return steps_past


def _assert_same_steps(graph, values, steps):
    """The engine's first steps from ``values``, each the reference's bits."""
    got = [row for block in blocks(graph, Rule.BD, values, steps) for row in block.copy()]
    want = islice(ref.iterate(graph, Rule.BD, values), steps)
    for row, want_row in zip(got, want, strict=True):
        assert row.tobytes() == want_row.tobytes()
    return got


def test_clip_redoes_a_later_block_from_the_row_past_one(monkeypatch):
    # the first product past 1, at step 42, is inside the second block of 32
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 32)
    g = _climber(closed=False)
    b = block_height(g.n)
    ones = np.array([1.0] * 5 + [0.0, 0.0])
    first = _passes_one(g, ones, 120)[0]
    # the first product past 1 is row k > 0 of a block after the first
    assert (first - 1) // b >= 1 and (first - 1) % b > 0
    _assert_same_steps(g, ones, 120)
    # steps cuts at, just after and past the redone row and its block
    for steps in (first - 1, first, first + 1, b * ((first - 1) // b + 1), 3 * b + 1):
        got = trajectory(g, range(5), rule=Rule.BD, steps=steps)
        assert got.to_csv_text() == ref.trajectory(g, range(5), Rule.BD, steps).to_csv_text()
        rows = np.concatenate([block.copy() for block in blocks(g, Rule.BD, ones, steps)])
        want = list(islice(ref.iterate(g, Rule.BD, ones), steps))
        assert rows.tobytes() == np.array(want).tobytes()


def test_clip_sees_past_one_beside_a_nan(monkeypatch):
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 32)
    g = _climber(closed=False)
    start = np.array([1.0] * 5 + [0.0, np.nan])
    first = _passes_one(g, start, 120)[0]
    assert (first - 1) // block_height(g.n) >= 1
    steps = _assert_same_steps(g, start, 120)
    # the NaN stays in every step, so the block that passes 1 holds it too
    assert all(np.isnan(row[6]) for row in steps)
    assert steps[first - 1][5] == 1.0


def test_solve_and_mttf_stop_after_a_redo(monkeypatch):
    # the first product past 1, at step 133, is inside the fifth block of 32
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 32)
    g = _climber(closed=True)
    b = block_height(g.n)
    config = range(5)
    start = init_vector(g, config)
    first = _passes_one(g, start, 200)[0]
    assert (first - 1) // b >= 1 and (first - 1) % b > 0
    block_end = b * ((first - 1) // b + 1)
    run = SolveOptions(epsilon=1e-300, max_iters=1000, record_trajectory=True)
    taus = _taus(ref.solve(g, config, run, 10**9).trajectory, "range")
    # the last new low is the step past 1, which the clip holds at 1
    assert taus[first] < min(taus[:first]) and min(taus[first:]) == taus[first]
    cases = [(first, True, replace(run, epsilon=taus[first]), 10**9)]
    for window in (block_end - first - 1, block_end - first, 2 * b):
        cases.append((first + window, False, run, window))
    for cut in (first, first + 1, block_end, block_end + 1):
        cases.append((cut, False, replace(run, max_iters=cut), 10**9))
    _assert_same_stops(monkeypatch, g, config, cases)
    for cut in (first, block_end + 1, 300):
        got = mttf_lower_bound(g, config, rule=Rule.BD, stop_stdev=0.0, max_iters=cut, record=True)
        assert got.truncated and got.iterations == cut
        assert_same_mttf(got, ref.mttf_lower_bound(g, config, Rule.BD, 0.0, cut))


def _in_second_chunk(graph, step):
    """Whether ``step`` is an inner row of the second stacked chunk of its block."""
    depth = engine_kernel(graph, Rule.BD).depth
    row = (step - 1) % block_height(graph.n)
    return depth + 1 < row < 2 * depth


def test_clip_redoes_from_a_row_past_one_in_any_call_of_a_block(monkeypatch):
    # the first product past 1, at step 55, is in the second stacked chunk
    # of the second block of 32
    monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 32)
    g = _climber(closed=False, seed=203)
    b = block_height(g.n)
    ones = np.array([1.0] * 5 + [0.0, 0.0])
    first = _passes_one(g, ones, 120)[0]
    assert (first - 1) // b == 1 and _in_second_chunk(g, first)
    starts = [(ones, first)]
    # started 30 steps on, the same step sits in the first block's second
    # chunk; started 22 steps on, it is row 0 of the second block, which
    # the one-copy call runs
    for skip in (30, 22):
        starts.append((next(islice(ref.iterate(g, Rule.BD, ones), skip - 1, None)), first - skip))
    assert _in_second_chunk(g, first - 30) and first - 30 <= b
    assert first - 22 == b + 1
    for start, past in starts:
        assert _passes_one(g, start, past) == [past]
        _assert_same_steps(g, start, 120)
        for steps in (past - 1, past, past + 1, b * ((past - 1) // b + 1), 3 * b + 1):
            rows = np.concatenate([block.copy() for block in blocks(g, Rule.BD, start, steps)])
            want = list(islice(ref.iterate(g, Rule.BD, start), steps))
            assert rows.tobytes() == np.array(want).tobytes()
    # a solve and an mttf bound that stop past a redo inside a later chunk
    g = _climber(closed=True, seed=263)
    config = range(5)
    first = _passes_one(g, init_vector(g, config), 200)[0]
    assert (first - 1) // b == 2 and _in_second_chunk(g, first)
    monkeypatch.setattr(solver_mod, "STALL_WINDOW", 10**9)
    run = SolveOptions(epsilon=1e-300, record_trajectory=True)
    for cut in (first, first + 1, 300):
        opts = replace(run, max_iters=cut)
        assert_same_report(solve(g, config, opts), ref.solve(g, config, opts, 10**9))
        got = mttf_lower_bound(g, config, rule=Rule.BD, stop_stdev=0.0, max_iters=cut, record=True)
        assert_same_mttf(got, ref.mttf_lower_bound(g, config, Rule.BD, 0.0, cut))


def test_all_ones_trajectory_clips_every_step():
    g = random_digraph(16, 7)
    ones = np.ones(g.n)
    # a kernel row sums past 1, so the product of ones passes 1 at every step
    assert _passes_one(g, ones, 100) == list(range(1, 101))
    _assert_same_steps(g, ones, 100)
    for steps in (1, 2, 33, 100):
        got = trajectory(g, range(g.n), rule=Rule.BD, steps=steps)
        assert got.to_csv_text() == ref.trajectory(g, range(g.n), Rule.BD, steps).to_csv_text()


# ------------------------------------------------------------- the engine's worker


def _set_cpus(monkeypatch, count):
    """The process may run on ``count`` CPUs, as ``blocks`` reads it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def _spy_producer(monkeypatch):
    """The name of the thread that computes each block ``blocks`` reads."""
    seen, engine_blocks = [], dynamics.engine_blocks

    def spy(*args):
        for block in engine_blocks(*args):
            seen.append(threading.current_thread().name)
            yield block

    monkeypatch.setattr(dynamics, "engine_blocks", spy)
    return seen


def _no_worker_left():
    return "fixlab-kernel" not in {t.name for t in threading.enumerate()}


@pytest.fixture(scope="module")
def ba50():
    return generate("preferential_attachment", 50, seed=3, weighting="random", m=2)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("size", [7, 50, 300, 10_000])
def test_trajectory_matches_the_reference_at_its_own_block_boundaries(
        monkeypatch, request, cpus, size):
    # at n = 7, 50, 300 and 10^4 the blocks are 256, 256, 218 and 6 rows
    g = {7: lambda: random_digraph(7, 7), 50: lambda: request.getfixturevalue("ba50"),
         300: lambda: request.getfixturevalue("ba300"),
         10_000: lambda: request.getfixturevalue("ba10k")}[size]()
    h = block_height(g.n)
    _set_cpus(monkeypatch, cpus)
    seen = _spy_producer(monkeypatch)
    config = [0, 3]
    cuts = (1, h - 1, h, h + 1, 2 * h + 3)
    # a trajectory of t steps is the first t + 1 rows of a longer one
    want = ref.trajectory(g, config, Rule.BD, max(cuts)).to_csv_text().split("\r\n")
    for steps in cuts:
        seen.clear()
        got = trajectory(g, config, rule=Rule.BD, steps=steps).to_csv_text()
        assert got == "\r\n".join(want[:steps + 2] + [""])
        # a worker computes the blocks only from n = 256, when there are two or
        # more, and with two CPUs
        worker = g.n >= 256 and steps > h and cpus > 1
        assert len(seen) == -(-steps // h)
        assert set(seen) == {"fixlab-kernel" if worker else threading.current_thread().name}
        assert _no_worker_left()


CONFIG = [0, 3]


def _block_routes(stdev, half_range):
    """Each route beside ``trajectory`` that reads ``blocks``, as a call of
    (graph, max_iters) whose answer compares with ==. The mttf bound and the
    stdev solve stop at the deviation ``stdev``, the recorded solve at the
    half range ``half_range``; the benchmark's simulated estimate is 0 on
    these graphs, so it stops only at its cap."""

    def mttf(g, cap):
        r = mttf_lower_bound(g, CONFIG, stop_stdev=stdev, max_iters=cap, record=True)
        return (r.lower_bound, r.partial_sum, r.normalizer, r.iterations, r.truncated,
                r.negative_increments, r.trace.to_csv_text())

    def speedup(g, cap):
        r = speedup_benchmark(g, CONFIG, mc_runs=4, seed=1, max_iters=cap)
        return r.mc_estimate, r.solver_estimate, r.solver_iterations, r.entered_band

    def solved(g, opts):
        r = solve(g, CONFIG, opts)
        table = None if r.trajectory is None else r.trajectory.to_csv_text()
        return r.fixation, r.half_range, r.iterations, r.converged, r.values.tobytes(), table

    return {
        "mttf": mttf,
        "speedup": speedup,
        "solve stdev": lambda g, cap: solved(
            g, SolveOptions(epsilon=stdev, criterion="stdev", max_iters=cap)),
        "solve recorded": lambda g, cap: solved(
            g, SolveOptions(epsilon=half_range, max_iters=cap, record_trajectory=True)),
    }


ROUTES = ("mttf", "speedup", "solve stdev", "solve recorded")


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("size", [7, 50, 300])
def test_every_blocks_route_has_the_same_bits_on_one_and_two_cpus(
        monkeypatch, request, route, size):
    g = {7: lambda: random_digraph(7, 7), 50: lambda: request.getfixturevalue("ba50"),
         300: lambda: request.getfixturevalue("ba300")}[size]()
    h = block_height(g.n)
    # the deviation and half range at row 2.5 h, which stop the routes inside
    # their third block, or sooner
    table = ref.trajectory(g, CONFIG, Rule.BD, 2 * h + h // 2)
    stopping = _block_routes(table.stdev[-1], 0.5 * (table.max[-1] - table.min[-1]))
    capped = _block_routes(1e-300, 1e-300)
    seen = _spy_producer(monkeypatch)
    # two blocks, the shortest run that starts a worker; and four blocks
    for call, cap in ((capped, h + 1), (stopping, 3 * h + 5)):
        answers = []
        for cpus in (1, 2):
            _set_cpus(monkeypatch, cpus)
            seen.clear()
            answers.append(call[route](g, cap))
            # every run here asks for more than one block
            worker = g.n >= 256 and cpus > 1
            assert seen and set(seen) == {
                "fixlab-kernel" if worker else threading.current_thread().name}
            assert _no_worker_left()
        assert answers[0] == answers[1]


def test_blocks_reuse_one_buffer_and_the_last_block_survives_close(monkeypatch, ba300):
    _set_cpus(monkeypatch, 2)
    h = block_height(ba300.n)
    values = init_vector(ba300, CONFIG)
    want = np.array(list(islice(ref.iterate(ba300, Rule.BD, values), 2 * h)))
    reader = blocks(ba300, Rule.BD, values, 5 * h)
    first = next(reader)
    assert first.tobytes() == want[:h].tobytes()
    second = next(reader)
    # the second block is written over the first
    assert np.shares_memory(first, second) and first.tobytes() == second.tobytes()
    # closed with the worker ahead, the reader writes the buffer no more
    reader.close()
    assert _no_worker_left()
    assert second.tobytes() == want[h:].tobytes()


class _Stop(Exception):
    """An exception no code under test raises of its own."""


def _fails_on_the_second_block(monkeypatch):
    """Make every engine block after the first raise ``_Stop``."""
    engine_blocks = dynamics.engine_blocks

    def fails(*args):
        computed = engine_blocks(*args)
        yield next(computed)
        raise _Stop("the second block")

    monkeypatch.setattr(dynamics, "engine_blocks", fails)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_block_is_raised_in_the_caller_with_no_thread_left(monkeypatch, ba300, cpus):
    _set_cpus(monkeypatch, cpus)
    _fails_on_the_second_block(monkeypatch)
    threads = threading.active_count()
    # the traceback, held here, keeps trajectory's frame alive
    with pytest.raises(_Stop, match="the second block") as caught:
        trajectory(ba300, [0, 3], steps=5 * block_height(ba300.n))
    assert threading.active_count() == threads
    assert caught.traceback


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("route", ROUTES)
def test_a_failing_block_in_any_route_leaves_no_thread(monkeypatch, ba300, route, cpus):
    _set_cpus(monkeypatch, cpus)
    _fails_on_the_second_block(monkeypatch)
    threads = threading.active_count()
    # the traceback, held here, keeps the route's frame alive
    with pytest.raises(_Stop, match="the second block") as caught:
        _block_routes(1e-300, 1e-300)[route](ba300, 5 * block_height(ba300.n))
    assert threading.active_count() == threads
    assert caught.traceback


def _fails_on_the_third_call(monkeypatch, module, name, error):
    """Make ``module.name`` raise ``error`` on its third call; the calls' row counts."""
    calls, reduce = [], getattr(module, name)

    def fails(block, *rest):
        calls.append(len(block))
        if len(calls) == 3:
            raise error("the second block")
        return reduce(block, *rest)

    monkeypatch.setattr(module, name, fails)
    return calls


@pytest.mark.parametrize("error", [_Stop, KeyboardInterrupt])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_reduction_stops_the_worker(monkeypatch, ba300, cpus, error):
    _set_cpus(monkeypatch, cpus)
    # row 0, then the first block, then the second
    calls = _fails_on_the_third_call(monkeypatch, solver_mod, "_row_stats", error)
    threads = threading.active_count()
    # the traceback, held here, keeps trajectory's frame alive
    with pytest.raises(error) as caught:
        trajectory(ba300, [0, 3], steps=5 * block_height(ba300.n))
    assert len(calls) == 3
    assert threading.active_count() == threads
    assert caught.traceback


# the reduction each route calls on row 0 and then once a block
REDUCTIONS = {
    "mttf": (mttf_mod, "std"),
    "speedup": (montecarlo_mod, "_std_of"),
    "solve stdev": (solver_mod, "_criterion_stats"),
    "solve recorded": (solver_mod, "_row_stats"),
}


@pytest.mark.parametrize("error", [_Stop, KeyboardInterrupt])
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("route", ROUTES)
def test_a_failing_reduction_in_any_route_stops_the_worker(monkeypatch, ba300, route, cpus, error):
    _set_cpus(monkeypatch, cpus)
    calls = _fails_on_the_third_call(monkeypatch, *REDUCTIONS[route], error)
    threads = threading.active_count()
    # the traceback, held here, keeps the route's frame alive
    with pytest.raises(error) as caught:
        _block_routes(1e-300, 1e-300)[route](ba300, 5 * block_height(ba300.n))
    assert len(calls) == 3
    assert threading.active_count() == threads
    assert caught.traceback


def test_closing_the_worker_after_its_first_block_joins_it(ba50):
    kernel = engine_kernel(ba50, Rule.BD)
    h = block_height(ba50.n)
    values = init_vector(ba50, [0, 3])
    threads = threading.active_count()
    ahead = dynamics._ahead(dynamics.engine_blocks(kernel, values, 5 * h))
    first = next(ahead)
    assert threading.active_count() == threads + 1
    ahead.close()
    assert threading.active_count() == threads
    # the block handed out is the engine's, bit for bit
    want = next(dynamics.engine_blocks(kernel, values, 5 * h))
    assert first.tobytes() == want.tobytes()
