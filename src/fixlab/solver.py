"""Fixation probability by iterating an update kernel to consensus.

On a strongly connected graph the per-vertex mutant probabilities all
converge to the fixation probability of the starting set, and at every
step the true value is bracketed by the running minimum and maximum.
Iterating until half the bracket width drops below epsilon therefore
gives an answer with a hard plus-or-minus epsilon guarantee. The
alternative criterion stops on the standard deviation of the vector
and returns its average, which converges sooner in practice but
carries no such guarantee.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import (
    Rule, _row_extreme, _std_of, _stream, blocks, engine_blocks, engine_kernel, init_vector,
    neutral_part, resolve_rule, std, step_count,
)
from .graphs import check_config, is_strongly_connected, stats


class NotStronglyConnected(ValueError):
    """Raised when an operation needs a strongly connected graph.

    Fixation is only meaningful when any starting set can both take
    over and die out; trajectory recording still works on arbitrary
    graphs.
    """

    reason = "not_strongly_connected"

    def __init__(self, what="fixation probability"):
        super().__init__(
            f"{what} requires a strongly connected graph; "
            "use a trajectory instead on this input"
        )


def _starting_set(graph, config, what):
    """``check_config(graph, config)``, refusing a proper nonempty set on a
    graph that is not strongly connected with ``NotStronglyConnected(what)``.

    The empty and the full set pass: each question decides what they mean.
    """
    members = check_config(graph, config)
    if 0 < len(members) < graph.n and not is_strongly_connected(graph):
        raise NotStronglyConnected(what)
    return members


CRITERIA = ("range", "stdev")

# steps without a new low of the statistic after which a solve stops, stalled
# at the floating-point floor
STALL_WINDOW = 1000


@dataclass(frozen=True)
class SolveOptions:
    rule: Rule = Rule.BD
    epsilon: float = 1e-6
    criterion: str = "range"
    max_iters: int = 10_000_000
    record_trajectory: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rule", resolve_rule(self.rule, kernel=True))
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(
                f"epsilon must be finite and positive for guaranteed termination, "
                f"got {self.epsilon}"
            )
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        object.__setattr__(self, "max_iters", step_count(self.max_iters, "max_iters", least=1))


def write_csv(target, header, rows):
    """Write a header line and rows to a path or text file object.

    Every table the package writes goes through here, in the csv
    module's default dialect: comma separated, quoted only when a cell
    needs it, CRLF line ends. Python floats are written by repr, so
    they read back exactly.
    """
    if isinstance(target, (str, bytes)):
        with open(target, "w", newline="") as fh:
            write_csv(fh, header, rows)
        return
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows(rows)


class _StepTable:
    """Columns of equal length, an integer step column first and float
    columns after it, written as CSV under ``HEADER``."""

    HEADER = ()

    def __len__(self):
        return len(self.t)

    def write_csv(self, target):
        t, *rest = (getattr(self, f.name) for f in fields(self))
        rows = ([int(t[k])] + [float(col[k]) for col in rest] for k in range(len(t)))
        write_csv(target, self.HEADER, rows)

    def to_csv_text(self):
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


@dataclass(frozen=True)
class TrajectoryTable(_StepTable):
    """Per-step summary rows: t, min, max, avg, stdev, expected mutants."""

    HEADER = ("t", "min", "max", "avg", "stdev", "ex")

    t: np.ndarray
    min: np.ndarray
    max: np.ndarray
    avg: np.ndarray
    stdev: np.ndarray
    ex: np.ndarray


def _row_stats(block):
    """Per-row min, max, sum and standard deviation of a ``(rows, n)`` block."""
    total = np.add.reduce(block, axis=1)
    return (
        _row_extreme(np.minimum, block), _row_extreme(np.maximum, block),
        total, _std_of(block, total),
    )


def _trajectory_table(parts, n):
    """The ``TrajectoryTable`` of the ``_row_stats`` of consecutive blocks from row 0."""
    lo, hi, total, stdev = (np.concatenate(column) for column in zip(*parts))
    return TrajectoryTable(
        t=np.arange(len(total), dtype=np.int64), min=lo, max=hi,
        avg=total / n, stdev=stdev, ex=total,
    )


@dataclass(frozen=True)
class SolveReport:
    fixation: float
    half_range: float
    iterations: int
    converged: bool
    values: np.ndarray
    trajectory: TrajectoryTable | None = None

    def bracket(self):
        """Guaranteed enclosure of the fixation probability: (min, max)."""
        return float(self.values.min()), float(self.values.max())


def _criterion_stats(block, criterion):
    """The stopping statistic of each row of a ``(rows, n)`` block, as an array."""
    if criterion == "range":
        return 0.5 * (_row_extreme(np.maximum, block) - _row_extreme(np.minimum, block))
    return std(block)


def _stop(taus, epsilon, best, since_best, window):
    """Where the stop rule of ``solve`` stops in a block of statistics ``taus``.

    The rule reads the rows in order. It stops, converged, on the first
    row at or below ``epsilon``. Before that row, a row below ``best``
    is a new low and becomes ``best``; any other row (a tie or a NaN)
    adds one to ``since_best``, and the rule stops, stalled, on the row
    that brings it to ``window`` (at least 1). Returns ``(row,
    converged, best, since_best)``: the row it stops on, None if it
    reads through the block, and ``best`` (never NaN) and ``since_best``
    as it leaves them (a converged row changes neither).

    The search is array operations. The rows since the last new low are
    counted row by row (with accumulates) only where ``since_best`` and
    the rows before a converged row can reach ``window``; elsewhere the
    last new low is the first row at the least statistic, if that is
    below ``best``.
    """
    # the methods, not np.flatnonzero and np.argmax, whose wrappers cost
    # more than the search on a short solve's 256 rows
    below = taus <= epsilon
    end = int(below.argmax())
    if below[end]:
        row, converged = end, True
    else:
        row, converged, end = None, False, len(taus)
    head = taus[:end]
    if end and since_best + end >= window:
        rows = np.arange(end)
        # a row below every statistic before it (fmin skips NaN) is a new low
        before = np.fmin.accumulate(np.concatenate(([best], head[:-1])))
        last = np.maximum.accumulate(np.where(head < before, rows, -1 - since_best))
        since = rows - last
        stalled = np.flatnonzero(since >= window)
        k = end - 1
        if len(stalled):
            row = k = int(stalled[0])
            converged = False
        if last[k] >= 0:
            best = float(head[last[k]])
        return row, converged, best, int(since[k])
    if end:
        low = np.fmin.reduce(head)
        if low < best:
            first = int((head == low).argmax())
            return row, converged, float(head[first]), end - 1 - first
    return row, converged, best, since_best + end


def _estimate(values, criterion):
    if criterion == "range":
        lo, hi = float(values.min()), float(values.max())
        return lo + 0.5 * (hi - lo)
    return float(values.mean())


def solve(graph, config, options=SolveOptions()):
    """Fixation probability of a mutant set, with trajectory on request.

    The empty set fixates with probability 0 and the full vertex set
    with probability 1: both are at consensus before the first step, so
    the loop never starts. Any other set requires strong connectivity
    and iterates the chosen neutral kernel until the convergence
    statistic (half range, or standard deviation for the ``stdev``
    criterion) drops to ``options.epsilon``. Hitting the
    iteration cap, or the statistic stalling at the floating-point
    floor (no new low in ``STALL_WINDOW`` steps), reports
    ``converged=False`` with the bracket reached.

    The statistic is taken a block of steps at a time, the row extrema
    of the range with ``reduceat`` (``dynamics._row_extreme``), and
    ``_stop`` searches each block's statistics for the row the rule
    stops on as arrays. ``tests/loop_iterate.py`` keeps the rule as a
    loop over single steps, and the report has its bits.
    """
    members = _starting_set(graph, config, "fixation probability")
    values = init_vector(graph, members)
    parts = [_row_stats(values[None])] if options.record_trajectory else None
    tau = float(_criterion_stats(values[None], options.criterion)[0])
    best, since_best, window = tau, 0, STALL_WINDOW
    iters = 0
    converged = tau <= options.epsilon
    steps, rank = None, None
    if not converged and options.criterion == "range" and not options.record_trajectory:
        # a row's min and max do not depend on the order of its entries, so
        # the range reads the engine's blocks and puts back only the row it
        # stops on
        kernel = engine_kernel(graph, options.rule)
        steps, rank = engine_blocks(kernel, values, options.max_iters), kernel.rank
    elif not converged:
        steps = blocks(graph, options.rule, values, options.max_iters)
    try:
        for block in steps or ():
            taus = _criterion_stats(block, options.criterion)
            row, converged, best, since_best = _stop(taus, options.epsilon, best, since_best, window)
            k = len(block) - 1 if row is None else row
            if parts is not None:
                parts.append(_row_stats(block[:k + 1]))
            iters += k + 1
            values, tau = block[k], float(taus[k])
            if row is not None:
                break
    finally:
        if steps is not None:
            steps.close()
    return SolveReport(
        fixation=_estimate(values, options.criterion),
        half_range=tau,
        iterations=iters,
        converged=converged,
        # not a view that keeps the whole block alive
        values=values.copy() if rank is None else values.take(rank),
        trajectory=None if parts is None else _trajectory_table(parts, graph.n),
    )


@dataclass(frozen=True)
class AdditivityReport:
    f_first: float
    f_second: float
    f_union: float
    defect: float


def additivity_check(graph, c1, c2, options=SolveOptions()):
    """Solve two disjoint sets and their union; fixation adds up.

    The defect |F(c1) + F(c2) - F(c1 | c2)| is bounded by three times
    the solver tolerance.
    """
    a = check_config(graph, c1)
    b = check_config(graph, c2)
    if a & b:
        raise ValueError(f"configurations overlap on {sorted(a & b)}")
    fa = solve(graph, a, options).fixation
    fb = solve(graph, b, options).fixation
    fu = solve(graph, a | b, options).fixation
    return AdditivityReport(fa, fb, fu, abs(fa + fb - fu))


@dataclass(frozen=True)
class ClosedFormFixation:
    limit_expected_mutants: float
    fixation: float


def _degree_stats(graph, what):
    """``stats(graph)`` of a connected undirected unweighted graph of two or more
    vertices; a disconnected graph is refused with ``NotStronglyConnected``."""
    st = stats(graph)
    if not (st.is_undirected and st.is_unweighted):
        raise ValueError(f"{what} needs an undirected unweighted graph")
    if graph.n < 2:
        raise ValueError(f"{what} needs at least 2 vertices, got {graph.n}")
    if not st.is_strongly_connected:
        raise NotStronglyConnected(what)
    return st


def undirected_closed_form(graph, i, rule=Rule.BD):
    """Exact single-mutant answer on connected undirected unweighted graphs.

    For BD the expected mutant count from a single mutant at vertex i
    converges to 1 / (k_i * <1/k>) and fixation is that limit over N.
    For DB fixation is k_i / (2 * theta) with theta the undirected edge
    count. Other rules have no closed form here.
    """
    st = _degree_stats(graph, "closed form")
    (i,) = check_config(graph, [i])
    k_i = float(graph.k_out[i])
    if neutral_part(rule) is Rule.BD:
        limit = 1.0 / (k_i * st.mean_inverse_degree)
        return ClosedFormFixation(limit, limit / graph.n)
    if neutral_part(rule) is Rule.DB:
        theta = len(graph.out_dst) / 2.0
        fix = k_i / (2.0 * theta)
        return ClosedFormFixation(graph.n * fix, fix)
    raise ValueError(f"no closed form for rule {rule}")


def degree_selection_class(graph):
    """Label each vertex amplifier, suppressor, or neutral.

    On connected undirected unweighted graphs a single mutant on a
    vertex of degree below 1 / <1/k> takes over more than its share in
    expectation (amplifier); above it, less (suppressor).
    """
    st = _degree_stats(graph, "degree classification")
    threshold = 1.0 / st.mean_inverse_degree
    labels = []
    # Python ints: a loop over numpy scalars costs 15 times the stats above
    for k in graph.k_out.tolist():
        if abs(k - threshold) <= 1e-9 * max(1.0, threshold):
            labels.append("neutral")
        elif k < threshold:
            labels.append("amplifier")
        else:
            labels.append("suppressor")
    return labels


def trajectory(graph, config, rule=Rule.BD, steps=100):
    """Record steps+1 summary rows (t = 0..steps) of the chosen kernel.

    Works on any graph, strongly connected or not; kernels are defined
    pointwise and vertices without incoming edges simply never change.

    The rows of ``dynamics._stream``, reduced a block at a time by
    ``_row_stats``; a worker thread that computes them joins before the
    call returns or raises.
    """
    steps = step_count(steps)
    rule = resolve_rule(rule, kernel=True)
    engine_kernel(graph, rule)  # validate rule/graph pairing up front
    rows = _stream(graph, rule, init_vector(graph, config), steps)
    try:
        parts = [_row_stats(block) for block in rows]
    finally:
        rows.close()
    return _trajectory_table(parts, graph.n)
