"""The kernel loop as ``op @ values`` plus ``np.clip``, kept as the test reference.

This is the loop that ``fixlab.iterate`` replaced with one direct call
of scipy's CSR kernel and ufunc clips, together with the per-step
statistics of ``solve``, ``trajectory``, ``mttf_lower_bound`` and
``speedup_benchmark`` written with the array methods
(``.min()``/``.max()``/``.mean()``/``.std()``), on the kernel that the
sparse-arithmetic build of ``tests/loop_kernel.py`` gives. The tests
require the package to give the same bits. It also keeps the residual of
the birth-death mutant-count recurrence, which the tests check each step
against.
"""

from itertools import chain, islice

import numpy as np

from fixlab import SolveOptions, SolveReport, TrajectoryTable, init_vector
from fixlab.mttf import MttfReport, MttfTrace

from .loop_kernel import kernel_matrix


def iterate(graph, rule, values):
    op = kernel_matrix(graph, rule)
    while True:
        values = op @ values
        np.clip(values, 0.0, 1.0, out=values)
        yield values


def _row(t, values):
    return (
        t,
        float(values.min()), float(values.max()),
        float(values.mean()), float(values.std()),
        float(values.sum()),
    )


def _table(rows):
    arr = np.array(rows, dtype=float)
    return TrajectoryTable(
        t=arr[:, 0].astype(np.int64), min=arr[:, 1], max=arr[:, 2],
        avg=arr[:, 3], stdev=arr[:, 4], ex=arr[:, 5],
    )


def _stat(values, criterion):
    if criterion == "range":
        return 0.5 * float(values.max() - values.min())
    return float(values.std())


def solve(graph, config, options=SolveOptions(), stall_window=1000):
    """``fixlab.solve`` on a proper subset of a strongly connected graph,
    with ``fixlab.solver.STALL_WINDOW`` at ``stall_window``."""
    values = init_vector(graph, config)
    rows = [_row(0, values)]
    tau = _stat(values, options.criterion)
    best, since_best, iters = tau, 0, 0
    converged = tau <= options.epsilon
    steps = () if converged else islice(iterate(graph, options.rule, values), options.max_iters)
    for iters, values in enumerate(steps, start=1):
        rows.append(_row(iters, values))
        tau = _stat(values, options.criterion)
        if tau <= options.epsilon:
            converged = True
            break
        if tau < best:
            best, since_best = tau, 0
        else:
            since_best += 1
            if since_best >= stall_window:
                converged = False
                break
    if options.criterion == "range":
        lo, hi = float(values.min()), float(values.max())
        fixation = lo + 0.5 * (hi - lo)
    else:
        fixation = float(values.mean())
    return SolveReport(
        fixation=fixation, half_range=tau, iterations=iters, converged=converged,
        values=values, trajectory=_table(rows) if options.record_trajectory else None,
    )


def trajectory(graph, config, rule, steps):
    values = init_vector(graph, config)
    rows = [_row(0, values)]
    for t, values in enumerate(islice(iterate(graph, rule, values), steps), start=1):
        rows.append(_row(t, values))
    return _table(rows)


def mttf_lower_bound(graph, config, rule, stop_stdev, max_iters):
    """``fixlab.mttf_lower_bound`` with its trace, on a proper subset."""
    p = init_vector(graph, config)
    p_min = float(p.min())
    stdev = float(np.std(p))
    total, t, negatives, rows = 0.0, 0, 0, []
    steps = islice(iterate(graph, rule, p), max_iters) if stdev > stop_stdev else ()
    for t, p in enumerate(steps, start=1):
        prev_min, p_min = p_min, float(p.min())
        inc = t * (p_min - prev_min)
        if inc < 0:
            negatives += 1
        total += inc
        rows.append((t, p_min, inc, total))
        stdev = float(np.std(p))
        if stdev <= stop_stdev:
            break
    normalizer = float(np.mean(p))
    arr = np.array(rows, dtype=float) if rows else np.zeros((0, 4))
    trace = MttfTrace(
        t=arr[:, 0].astype(np.int64), p_min=arr[:, 1],
        increment=arr[:, 2], running_sum=arr[:, 3],
    )
    return MttfReport(
        lower_bound=total / normalizer if normalizer > 0 else 0.0,
        partial_sum=total, normalizer=normalizer, iterations=t,
        truncated=stdev > stop_stdev, negative_increments=negatives, trace=trace,
    )


def speedup_solver(graph, config, rule, frequency, std_error, max_iters, fallback_stdev):
    """The iteration half of ``speedup_benchmark``: (estimate, iterations, entered)."""
    values = init_vector(graph, config)
    entered = False
    for iters, values in enumerate(chain([values], iterate(graph, rule, values))):
        avg = float(values.mean())
        if iters >= max_iters:
            break
        if std_error > 0 and abs(avg - frequency) <= std_error:
            entered = True
            break
        if float(values.std()) <= fallback_stdev:
            break
    return avg, iters, entered


def expected_mutants_step_residual(graph, prev, nxt):
    """Consistency residual of the birth-death mutant-count recurrence.

    For one birth-death step, the next expected count must equal
    Ex + Ex/N - (1/N) * sum_i T_i * P_i evaluated on the previous
    vector, where T is the vertex temperature. Holds to float rounding
    (about 1e-12 * N) on any graph where every vertex has at least one
    outgoing edge; strong connectivity is not needed.
    """
    p = np.asarray(prev, dtype=float)
    q = np.asarray(nxt, dtype=float)
    ex = float(np.sum(p))
    predicted = ex + ex / graph.n - float(graph.temperatures @ p) / graph.n
    return abs(float(np.sum(q)) - predicted)
