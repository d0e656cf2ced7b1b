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

from .dynamics import Rule, blocks, init_vector, resolve_rule, std, step_count
from .solver import _StepTable, _starting_set

STOP_STDEV = 2.5e-6


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
    counted in the report instead of being silently absorbed.
    """
    rule = resolve_rule(rule, kernel=True)
    max_iters = step_count(max_iters, "max_iters")
    # a standard deviation is never below 0, so a negative threshold is never met
    if not (math.isfinite(stop_stdev) and stop_stdev >= 0):
        raise ValueError(f"stdev stopping threshold must be finite and at least 0, got {stop_stdev}")
    members = _starting_set(graph, config, "mean time to fixation")
    if not members:
        raise ValueError("empty configuration never fixates; no time to bound")
    # the full set is at consensus: its deviation of 0 skips the loop
    p = init_vector(graph, members)
    p_min = float(np.minimum.reduce(p))
    stdev = std(p)
    total = 0.0
    t = 0
    negatives = 0
    rows = [] if record else None
    steps = blocks(graph, rule, p, max_iters) if stdev > stop_stdev else ()
    for block in steps:
        p_mins, stdevs = np.minimum.reduce(block, axis=1).tolist(), std(block).tolist()
        for k, stdev in enumerate(stdevs):
            t += 1
            prev_min, p_min = p_min, p_mins[k]
            inc = t * (p_min - prev_min)
            if inc < 0:
                negatives += 1
            total += inc
            if record:
                rows.append((t, p_min, inc, total))
            if stdev <= stop_stdev:
                break
        p = block[k]
        if stdev <= stop_stdev:
            break
    truncated = stdev > stop_stdev
    normalizer = float(np.mean(p))
    bound = total / normalizer if normalizer > 0 else 0.0
    trace = None
    if record:
        arr = np.array(rows, dtype=float) if rows else np.zeros((0, 4))
        trace = MttfTrace(
            t=arr[:, 0].astype(np.int64), p_min=arr[:, 1],
            increment=arr[:, 2], running_sum=arr[:, 3],
        )
    return MttfReport(
        lower_bound=bound, partial_sum=total, normalizer=normalizer,
        iterations=t, truncated=truncated, negative_increments=negatives,
        trace=trace,
    )
