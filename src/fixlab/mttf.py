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

from .dynamics import Rule, _stream, init_vector, resolve_rule, std, step_count
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
    # the full set is at consensus: its deviation of 0 stops on row 0
    p_mins = []
    for block in _stream(graph, rule, init_vector(graph, members), max_iters):
        stdevs = std(block)
        stop = np.flatnonzero(stdevs <= stop_stdev)
        if len(stop):
            block, stdevs = block[:stop[0] + 1], stdevs[:stop[0] + 1]
        p_mins.append(np.minimum.reduce(block, axis=1))
        if len(stop):
            break
    p_min = np.concatenate(p_mins)
    t = np.arange(1, len(p_min), dtype=np.int64)
    increment = t * np.diff(p_min)
    # np.add.accumulate adds in order, so the sum has the bits of a running
    # total from 0.0 (which turns a first increment of -0.0 into 0.0)
    running = np.add.accumulate(np.concatenate(([0.0], increment)))
    total = float(running[-1])
    normalizer = float(np.mean(block[-1]))
    return MttfReport(
        lower_bound=total / normalizer if normalizer > 0 else 0.0,
        partial_sum=total, normalizer=normalizer, iterations=len(t),
        truncated=bool(stdevs[-1] > stop_stdev),
        negative_increments=int(np.count_nonzero(increment < 0)),
        trace=MttfTrace(t, p_min[1:], increment, running[1:]) if record else None,
    )
