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

from .dynamics import Rule, blocks, init_vector, kernel_matrix, neutral_part, resolve_rule, std
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


CRITERIA = ("range", "stdev")


@dataclass(frozen=True)
class SolveOptions:
    rule: Rule = Rule.BD
    epsilon: float = 1e-6
    criterion: str = "range"
    max_iters: int = 10_000_000
    record_trajectory: bool = False
    stall_window: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "rule", resolve_rule(self.rule, kernel=True))
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(
                f"epsilon must be finite and positive for guaranteed termination, "
                f"got {self.epsilon}"
            )
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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


class _Recorder:
    def __init__(self, enabled):
        self.enabled = enabled
        self.parts = [] if enabled else None

    def add(self, t, block):
        """Record rows t, t + 1, ... from the rows of a ``(rows, n)`` block."""
        if self.enabled:
            total = np.add.reduce(block, axis=1)
            self.parts.append(np.column_stack((
                np.arange(t, t + len(block)),
                np.minimum.reduce(block, axis=1), np.maximum.reduce(block, axis=1),
                total / block.shape[1], std(block), total,
            )))

    def table(self):
        if not self.enabled:
            return None
        arr = np.concatenate(self.parts)
        return TrajectoryTable(
            t=arr[:, 0].astype(np.int64), min=arr[:, 1], max=arr[:, 2],
            avg=arr[:, 3], stdev=arr[:, 4], ex=arr[:, 5],
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
        return float(self.values.min()), float(self.values.max())


def _criterion_stats(block, criterion):
    """The stopping statistic of each row of a ``(rows, n)`` block, as floats."""
    if criterion == "range":
        return (0.5 * (np.maximum.reduce(block, axis=1) - np.minimum.reduce(block, axis=1))).tolist()
    return std(block).tolist()


def _estimate(values, criterion):
    if criterion == "range":
        lo, hi = float(values.min()), float(values.max())
        return lo + 0.5 * (hi - lo)
    return float(values.mean())


def solve(graph, config, options=SolveOptions()):
    """Fixation probability of a mutant set, with trajectory on request.

    The empty set fixates with probability 0 and the full vertex set
    with probability 1; both return immediately. Any other set requires
    strong connectivity and iterates the chosen neutral kernel until
    the convergence statistic (half range, or standard deviation for
    the ``stdev`` criterion) drops to ``options.epsilon``. Hitting the
    iteration cap, or the statistic stalling at the floating-point
    floor, reports ``converged=False`` with the bracket reached.
    """
    members = check_config(graph, config)
    recorder = _Recorder(options.record_trajectory)
    if len(members) in (0, graph.n):
        values = init_vector(graph, members).values
        recorder.add(0, values[None])
        return SolveReport(
            fixation=float(len(members) == graph.n),
            half_range=0.0, iterations=0, converged=True,
            values=values, trajectory=recorder.table(),
        )
    if not is_strongly_connected(graph):
        raise NotStronglyConnected()

    values = init_vector(graph, members).values
    recorder.add(0, values[None])
    tau = _criterion_stats(values[None], options.criterion)[0]
    best = tau
    since_best = 0
    iters = 0
    converged = tau <= options.epsilon
    steps = () if converged else blocks(graph, options.rule, values, options.max_iters)
    for block in steps:
        stop = False
        for k, tau in enumerate(_criterion_stats(block, options.criterion)):
            if tau <= options.epsilon:
                converged = stop = True
                break
            if tau < best:
                best = tau
                since_best = 0
            else:
                since_best += 1
                if since_best >= options.stall_window:
                    stop = True  # statistic stopped improving; at the float floor
                    break
        recorder.add(iters + 1, block[:k + 1])
        iters += k + 1
        values = block[k]
        if stop:
            break
    return SolveReport(
        fixation=_estimate(values, options.criterion),
        half_range=tau,
        iterations=iters,
        converged=converged,
        values=values.copy(),  # not a view that keeps the whole block alive
        trajectory=recorder.table(),
    )


def bracket(pv_or_values):
    """Guaranteed enclosure of the fixation probability: (min, max)."""
    values = getattr(pv_or_values, "values", pv_or_values)
    return float(np.min(values)), float(np.max(values))


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


def undirected_closed_form(graph, i, rule=Rule.BD):
    """Exact single-mutant answer on undirected unweighted graphs.

    For BD the expected mutant count from a single mutant at vertex i
    converges to 1 / (k_i * <1/k>) and fixation is that limit over N.
    For DB fixation is k_i / (2 * theta) with theta the undirected edge
    count. Other rules have no closed form here.
    """
    st = stats(graph)
    if not (st.is_undirected and st.is_unweighted):
        raise ValueError("closed form needs an undirected unweighted graph")
    if not (0 <= i < graph.n):
        raise ValueError(f"vertex {i} outside 0..{graph.n - 1}")
    k_i = float(graph.k_out[i])
    if neutral_part(rule) is Rule.BD:
        limit = 1.0 / (k_i * st.mean_inverse_degree)
        return ClosedFormFixation(limit, limit / graph.n)
    if neutral_part(rule) is Rule.DB:
        theta = len(graph.edges) / 2.0
        fix = k_i / (2.0 * theta)
        return ClosedFormFixation(graph.n * fix, fix)
    raise ValueError(f"no closed form for rule {rule}")


def degree_selection_class(graph):
    """Label each vertex amplifier, suppressor, or neutral.

    On undirected unweighted graphs a single mutant on a vertex of
    degree below 1 / <1/k> takes over more than its share in
    expectation (amplifier); above it, less (suppressor).
    """
    st = stats(graph)
    if not (st.is_undirected and st.is_unweighted):
        raise ValueError("degree classification needs an undirected unweighted graph")
    threshold = 1.0 / st.mean_inverse_degree
    labels = []
    for k in graph.k_out:
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
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rule = resolve_rule(rule, kernel=True)
    kernel_matrix(graph, rule)  # validate rule/graph pairing up front
    members = check_config(graph, config)
    values = init_vector(graph, members).values
    recorder = _Recorder(True)
    recorder.add(0, values[None])
    t = 1
    for block in blocks(graph, rule, values, steps):
        recorder.add(t, block)
        t += len(block)
    return recorder.table()
