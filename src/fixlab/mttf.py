"""Mean time to fixation: an iterative lower bound (exact times: ``oracle``).

The probability that fixation has already happened by step t never
exceeds the smallest vertex probability at step t. Charging each step
its increment of that minimum therefore undercounts the true expected
fixation time, and dividing the accumulated sum by the final average
vertex probability (the best fixation estimate at termination) yields
a lower bound on the conditional mean. Under the birth-death kernel
the minimum never decreases, so truncating the sum early still leaves
a valid bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Rule, _row_extreme, _stream, init_vector, resolve_rule, std, step_count
from .solver import _StepTable, _starting_set

STOP_STDEV = 2.5e-6

# row minima held before they are folded into the running total: 512 KB
_FOLD_ROWS = 1 << 16


@dataclass(frozen=True)
class MttfReport:
    lower_bound: float
    partial_sum: float
    normalizer: float
    iterations: int
    truncated: bool
    negative_increments: int
    trace: "MttfTrace | None" = None


@dataclass(frozen=True)
class MttfTrace(_StepTable):
    HEADER = ("t", "P_min", "increment", "running_sum")

    t: np.ndarray
    p_min: np.ndarray
    increment: np.ndarray
    running_sum: np.ndarray


def _fold(p_min, t, total, chunks):
    """Fold the minima ``p_min``, the first at step t, into the running ``total``:
    the new total and the count of negative increments. The trace rows of steps
    t + 1 on are appended to ``chunks`` unless it is None."""
    steps = np.arange(t + 1, t + len(p_min), dtype=np.int64)
    increment = np.diff(p_min)
    increment *= steps
    # np.add.accumulate adds in order: however the steps are folded, the sums have the
    # bits of one running total from 0.0 (which turns a first increment of -0.0 into 0.0)
    running = np.add.accumulate(np.concatenate(([total], increment)))
    if chunks is not None:
        chunks.append((steps, p_min[1:], increment, running[1:]))
    return float(running[-1]), int(np.count_nonzero(increment < 0))


def mttf_lower_bound(
    graph, config, rule=Rule.BD,
    stop_stdev=STOP_STDEV, max_iters=10_000_000, record=False,
):
    """Accumulate t * (increment of the vector minimum) until consensus.

    Stops when the standard deviation of the vertex probabilities falls
    to ``stop_stdev``; the bound is the accumulated sum divided by the
    average vertex probability at that point. Hitting ``max_iters``
    sets ``truncated`` (the partial value is still a valid bound for
    the birth-death kernel). For death-birth and link dynamics the
    minimum is not guaranteed monotone; any negative increments are
    counted in the report instead of being silently absorbed. Without
    ``record`` the memory held does not grow with the step count.
    """
    rule = resolve_rule(rule, kernel=True)
    max_iters = step_count(max_iters, "max_iters")
    # a standard deviation is never below 0, so a negative threshold is never met
    if not (math.isfinite(stop_stdev) and stop_stdev >= 0):
        raise ValueError(f"stdev stopping threshold must be finite and at least 0, got {stop_stdev}")
    members = _starting_set(graph, config, "mean time to fixation")
    if not members:
        raise ValueError("empty configuration never fixates; no time to bound")
    # the full set is at consensus: its deviation of 0 stops on row 0; the minima of
    # steps t .. t + held - 1 are folded at _FOLD_ROWS rows and at the end
    minima, held, chunks = [], 0, []
    t, total, negatives = 0, 0.0, 0
    rows = _stream(graph, rule, init_vector(graph, members), max_iters)
    try:
        for block in rows:
            stdevs = std(block)
            stop = np.flatnonzero(stdevs <= stop_stdev)
            if len(stop):
                block, stdevs = block[:stop[0] + 1], stdevs[:stop[0] + 1]
            minima.append(_row_extreme(np.minimum, block))
            held += len(block)
            end = len(stop) > 0 or t + held > max_iters
            if end or held >= _FOLD_ROWS:
                p_min, minima = np.concatenate(minima), [minima[-1][-1:]]
                total, count = _fold(p_min, t, total, chunks if record else None)
                t, held, negatives = t + held - 1, 1, negatives + count
            if end:
                break
    finally:
        rows.close()
    normalizer = float(np.mean(block[-1]))
    return MttfReport(
        lower_bound=total / normalizer if normalizer > 0 else 0.0,
        partial_sum=total, normalizer=normalizer, iterations=t,
        truncated=bool(stdevs[-1] > stop_stdev), negative_increments=negatives,
        trace=MttfTrace(*map(np.concatenate, zip(*chunks))) if record else None,
    )
