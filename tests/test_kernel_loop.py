"""The kernel loop gives the same bits as the ``op @ values`` reference loop.

``fixlab.iterate`` calls scipy's CSR kernel directly and clips with
ufuncs, and the per-step statistics skip numpy's method wrappers. Each
route that runs on the loop is compared here, field by field and
exactly, against ``tests/loop_iterate.py``.
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
    for max_iters in (10_000_000, 2):
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
