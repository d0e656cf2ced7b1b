"""The kernel loop as ``op @ values`` plus ``np.clip``, kept as the test reference.

This is the loop that ``fixlab.iterate`` replaced with one direct call
of scipy's CSR kernel and ufunc clips, together with the per-step
statistics of ``solve``, ``trajectory``, ``mttf_lower_bound`` and
``speedup_benchmark`` written with the array methods
(``.min()``/``.max()``/``.mean()``/``.std()``). The tests require the
package to give the same bits.
"""

from itertools import chain, islice

import numpy as np

from fixlab import SolveOptions, SolveReport, TrajectoryTable, init_vector, kernel_matrix
from fixlab.mttf import MttfReport, MttfTrace


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


def solve(graph, config, options=SolveOptions()):
    """``fixlab.solve`` on a proper subset of a strongly connected graph."""
    values = init_vector(graph, config).values
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
            if since_best >= options.stall_window:
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
    values = init_vector(graph, config).values
    rows = [_row(0, values)]
    for t, values in enumerate(islice(iterate(graph, rule, values), steps), start=1):
        rows.append(_row(t, values))
    return _table(rows)


def mttf_lower_bound(graph, config, rule, stop_stdev, max_iters):
    """``fixlab.mttf_lower_bound`` with its trace, on a proper subset."""
    p = init_vector(graph, config).values
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
    values = init_vector(graph, config).values
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
