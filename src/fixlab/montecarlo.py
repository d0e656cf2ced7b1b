"""Stochastic replacement-process simulation for any fitness.

Each run plays single replacement events until the mutant set is the
whole vertex set or empty. Runs are reproducible and order
independent: run k of a session seeded with S draws its generator from
``SeedSequence(entropy=S, spawn_key=(k,))`` and nothing else. Every run
is played on the calling thread, in index order.

Event semantics by rule (fitness f is r on mutants, 1 on residents):

* bd-b: breeder drawn proportional to f, then one of its outgoing
  edges by weight; the breeder's type is copied onto the target.
* bd-d: breeder drawn uniformly, target drawn among its outgoing
  edges proportional to weight / f(target).
* db-b: dying vertex drawn uniformly, replacer drawn among its
  incoming neighbors proportional to f; edge weights do not steer
  either draw.
* db-d: dying vertex drawn proportional to 1/f, replacer drawn
  uniformly among its incoming neighbors.
* ld: a directed edge is drawn proportional to f(source); the source
  type is copied onto the target. Biasing the death side instead
  yields the same process, so one form is implemented.

At r = 1 each family collapses to its neutral kernel; the neutral rule
names are accepted and dispatched to the cheapest equivalent sampler.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from time import perf_counter

import numpy as np

from .dynamics import Rule, blocks, check_neighbours, init_vector, neutral_part, resolve_rule, std
from .graphs import check_config, is_strongly_connected
from .solver import NotStronglyConnected

# a run's draws come in chunks that start at _FIRST_CHUNK variates and
# double up to _BUFFER, so a run that absorbs early draws few
_FIRST_CHUNK = 64
_BUFFER = 4096

# sampler kinds; at r = 1 each rule maps to the cheapest equivalent form
_K_BD_B, _K_BD_D, _K_DB_B, _K_DB_D, _K_LD = range(5)
_KIND = {
    Rule.BD_B: _K_BD_B, Rule.BD_D: _K_BD_D,
    Rule.DB_B: _K_DB_B, Rule.DB_D: _K_DB_D, Rule.LD: _K_LD,
}
_KIND_AT_UNIT_FITNESS = {
    Rule.BD: _K_BD_B, Rule.BD_B: _K_BD_B, Rule.BD_D: _K_BD_B,
    Rule.DB: _K_DB_D, Rule.DB_B: _K_DB_B, Rule.DB_D: _K_DB_D,
    Rule.LD: _K_LD,
}


def default_thread_count():
    """Always 1: every run is played on the calling thread."""
    return 1


class _Draws:
    """Uniform variates from one generator, read in order from ``buf[i:]``.

    ``_play`` appends the generator's next ``chunk`` variates to the
    unread tail when fewer than two are left, and doubles ``chunk`` up
    to ``_BUFFER``; chunked draws from one generator equal one long
    draw, so the stream does not depend on where the chunks break.
    """

    __slots__ = ("rng", "buf", "i", "chunk")

    def __init__(self, rng):
        self.rng = rng
        self.buf = []
        self.i = 0
        self.chunk = _FIRST_CHUNK


class _State:
    """One trajectory: types, mutant count and the swap-set index lists.

    ``mut``/``res`` list the mutant and resident vertices and ``pos[v]``
    is v's index in whichever list holds it; under ld, ``eb_mut``/``eb_res``
    and ``epos`` do the same for edges by the type of their source.
    """

    __slots__ = ("member", "m", "mut", "res", "pos", "eb_mut", "eb_res", "epos")


@dataclass(frozen=True)
class RunResult:
    fixated: bool
    steps: int
    capped: bool


def _positions(universe, *lists):
    # pos[v] is v's index in the one list that holds it
    pos = [-1] * universe
    for items in lists:
        for k, v in enumerate(items):
            pos[v] = k
    return pos


class _Process:
    """Immutable sampling tables for one (graph, rule, r); shared by runs."""

    def __init__(self, graph, rule, r):
        self.graph = graph
        self.rule = resolve_rule(rule, r)
        self.r = float(r)
        self.n = graph.n
        self.kind = (_KIND_AT_UNIT_FITNESS if self.r == 1.0 else _KIND)[self.rule]
        check_neighbours(graph, self.rule, "events")
        self.out_ptr = graph.out_ptr.tolist()
        self.out_dst = graph.out_dst.tolist()
        self.out_w = graph.out_w.tolist()
        self.out_cum = graph.out_cum.tolist()
        self.in_ptr = graph.in_ptr.tolist()
        self.in_src = graph.in_src.tolist()
        self.k_in = graph.k_in.tolist()
        self.n_edges = len(graph.edges)
        self.edge_src = [graph.edges[e][0] for e in range(self.n_edges)]

    def new_state(self, members):
        st = _State()
        st.member = [0] * self.n
        for v in members:
            st.member[v] = 1
        st.m = len(members)
        st.mut = [v for v in range(self.n) if st.member[v]]
        st.res = [v for v in range(self.n) if not st.member[v]]
        st.pos = _positions(self.n, st.mut, st.res)
        st.eb_mut = st.eb_res = st.epos = None
        if self.kind == _K_LD:
            st.eb_mut = [e for e in range(self.n_edges) if st.member[self.edge_src[e]]]
            st.eb_res = [e for e in range(self.n_edges) if not st.member[self.edge_src[e]]]
            st.epos = _positions(self.n_edges, st.eb_mut, st.eb_res)
        return st


def _play(proc, st, draws, step_cap):
    """Play events on ``st`` until absorption or ``step_cap`` events.

    This is the module's one event law. Each sampler kind is an inline
    block and a flip is committed inline (swap-set move, ld edge-bucket
    moves, mutant count), all on locals. Draws are read from ``draws``,
    whose cursor is left after the last one used, so calls can share a
    stream. ``st`` is left at the final state.
    """
    n, m = proc.n, st.m
    if m == 0:
        return RunResult(False, 0, False)
    if m == n:
        return RunResult(True, 0, False)
    kind, r, n_edges = proc.kind, proc.r, proc.n_edges
    out_ptr, out_dst, out_w, out_cum = proc.out_ptr, proc.out_dst, proc.out_w, proc.out_cum
    in_ptr, in_src, k_in, edge_src = proc.in_ptr, proc.in_src, proc.k_in, proc.edge_src
    member, mut, res, pos = st.member, st.mut, st.res, st.pos
    eb_mut, eb_res, epos = st.eb_mut, st.eb_res, st.epos
    random, buf, i, chunk = draws.rng.random, draws.buf, draws.i, draws.chunk
    stop = len(buf) - 1  # an event reads at most two variates
    steps = 0
    while steps < step_cap:
        steps += 1
        if i >= stop:
            buf = buf[i:] + random(chunk).tolist()
            i, stop = 0, len(buf) - 1
            if chunk < _BUFFER:
                chunk *= 2
        # a pick int(x) from x in [0, len) is clamped against the last-ulp
        # rounding of u * len, and a draw past a row's float cumsum, which
        # can end a ulp or more below 1, is clamped to the row's last entry
        if kind == _K_BD_B:
            x = buf[i] * (r * m + (n - m))
            if x < r * m:
                k = int(x / r)
                breeder = mut[k if k < m else m - 1]
            else:
                k = int(x - r * m)
                breeder = res[k if k < n - m else n - m - 1]
            # the first edge of the row whose cumsum exceeds the draw
            last = out_ptr[breeder + 1] - 1
            k = bisect_right(out_cum, buf[i + 1], out_ptr[breeder], last + 1)
            i += 2
            vertex, new = out_dst[k if k < last else last], member[breeder]
        elif kind == _K_BD_D:
            breeder = int(buf[i] * n)
            if breeder >= n:
                breeder = n - 1
            lo, hi = out_ptr[breeder], out_ptr[breeder + 1]
            total = 0.0
            for k in range(lo, hi):
                w = out_w[k]
                total += w / r if member[out_dst[k]] else w
            x = buf[i + 1] * total
            i += 2
            acc = 0.0
            vertex = out_dst[hi - 1]
            for k in range(lo, hi):
                w = out_w[k]
                acc += w / r if member[out_dst[k]] else w
                if x < acc:
                    vertex = out_dst[k]
                    break
            new = member[breeder]
        elif kind == _K_DB_B:
            vertex = int(buf[i] * n)
            if vertex >= n:
                vertex = n - 1
            lo, hi = in_ptr[vertex], in_ptr[vertex + 1]
            total = 0.0
            for k in range(lo, hi):
                total += r if member[in_src[k]] else 1.0
            x = buf[i + 1] * total
            i += 2
            acc = 0.0
            rep = in_src[hi - 1]
            for k in range(lo, hi):
                acc += r if member[in_src[k]] else 1.0
                if x < acc:
                    rep = in_src[k]
                    break
            new = member[rep]
        elif kind == _K_DB_D:
            x = buf[i] * (m / r + (n - m))
            if x < m / r:
                k = int(x * r)
                vertex = mut[k if k < m else m - 1]
            else:
                k = int(x - m / r)
                vertex = res[k if k < n - m else n - m - 1]
            k = in_ptr[vertex] + int(buf[i + 1] * k_in[vertex])
            i += 2
            last = in_ptr[vertex + 1] - 1
            new = member[in_src[k if k < last else last]]
        else:  # ld
            cm = len(eb_mut)
            x = buf[i] * (r * cm + (n_edges - cm))
            i += 1
            if x < r * cm:
                k = int(x / r)
                e = eb_mut[k if k < cm else cm - 1]
            else:
                k = int(x - r * cm)
                e = eb_res[k if k < n_edges - cm else n_edges - cm - 1]
            vertex, new = out_dst[e], member[edge_src[e]]
        if member[vertex] != new:
            member[vertex] = new
            src, dst = (res, mut) if new else (mut, res)
            k = pos[vertex]
            last = src[-1]
            src[k] = last
            pos[last] = k
            src.pop()
            pos[vertex] = len(dst)
            dst.append(vertex)
            m = len(mut)
            if kind == _K_LD:
                src, dst = (eb_res, eb_mut) if new else (eb_mut, eb_res)
                for e in range(out_ptr[vertex], out_ptr[vertex + 1]):
                    k = epos[e]
                    last = src[-1]
                    src[k] = last
                    epos[last] = k
                    src.pop()
                    epos[e] = len(dst)
                    dst.append(e)
            if m == 0 or m == n:
                result = RunResult(m == n, steps, False)
                break
    else:
        result = RunResult(False, steps, True)
    st.m = m
    draws.buf, draws.i, draws.chunk = buf, i, chunk
    return result

def _run_seed(master_seed, index):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))
    )


def step_cap_for(graph, step_cap=None):
    """The per-run event cap applied: ``step_cap``, or 10^6 events per vertex."""
    return step_cap if step_cap is not None else 1_000_000 * graph.n


def simulate_run(graph, config, rule=Rule.BD, r=1.0, seed=0, step_cap=None):
    """Play one trajectory to absorption; deterministic in the seed."""
    members = check_config(graph, config)
    if 0 < len(members) < graph.n and not is_strongly_connected(graph):
        raise NotStronglyConnected("simulation to absorption")
    proc = _Process(graph, rule, r)
    cap = step_cap_for(graph, step_cap)
    return _play(proc, proc.new_state(members), _Draws(_run_seed(int(seed), 0)), cap)


@dataclass(frozen=True)
class SimulationSummary:
    runs: int
    fixations: int
    fixation_frequency: float
    std_error: float
    mean_fixation_time: float | None
    fixation_time_stdev: float | None
    mean_absorption_time: float | None
    wall_time: float
    seed: int
    capped_runs: int


def standard_error(frequency, runs):
    """Binomial standard error sqrt(f(1-f)/(R-1)) of a fixation frequency."""
    if runs < 2:
        raise ValueError("standard error needs at least 2 runs")
    return math.sqrt(frequency * (1.0 - frequency) / (runs - 1))


def estimate(
    graph, config, rule=Rule.BD, r=1.0,
    runs=2000, seed=0, step_cap=None,
):
    """Fixation frequency over independent runs, with timing and error bar.

    Run k draws its generator from the master seed and k alone, and the
    runs are played one after another on the calling thread. Capped runs
    (absorption not reached) are excluded from the time averages and
    reported in ``capped_runs``.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs for an error estimate")
    members = check_config(graph, config)
    if 0 < len(members) < graph.n and not is_strongly_connected(graph):
        raise NotStronglyConnected("simulation to absorption")
    proc = _Process(graph, rule, r)
    cap = step_cap_for(graph, step_cap)
    seed = int(seed)

    t0 = perf_counter()
    results = [
        _play(proc, proc.new_state(members), _Draws(_run_seed(seed, k)), cap)
        for k in range(runs)
    ]
    wall = perf_counter() - t0

    fixations = sum(1 for r_ in results if r_.fixated)
    capped = sum(1 for r_ in results if r_.capped)
    freq = fixations / runs
    fix_times = [r_.steps for r_ in results if r_.fixated and not r_.capped]
    abs_times = [r_.steps for r_ in results if not r_.capped]
    time_sd = None
    if len(fix_times) >= 2:
        time_sd = float(np.std(fix_times, ddof=1))
    return SimulationSummary(
        runs=runs,
        fixations=fixations,
        fixation_frequency=freq,
        std_error=standard_error(freq, runs),
        mean_fixation_time=(sum(fix_times) / len(fix_times)) if fix_times else None,
        fixation_time_stdev=time_sd,
        mean_absorption_time=(sum(abs_times) / len(abs_times)) if abs_times else None,
        wall_time=wall,
        seed=seed,
        capped_runs=capped,
    )


def sample_transitions(graph, config, rule=Rule.BD, r=1.0, events=100_000, seed=0):
    """Frequency of each successor mutant set after exactly one event.

    Returns {bitmask: count} over ``events`` independent single events
    from the same starting set (bit i set means vertex i is a mutant).
    Used to pin the sampler to the exact chain, state by state.
    """
    members = check_config(graph, config)
    proc = _Process(graph, rule, r)
    draws = _Draws(_run_seed(int(seed), 0))
    counts = {}
    for _ in range(events):
        st = proc.new_state(members)
        _play(proc, st, draws, 1)
        mask = 0
        for v in range(proc.n):
            if st.member[v]:
                mask |= 1 << v
        counts[mask] = counts.get(mask, 0) + 1
    return counts


@dataclass(frozen=True)
class RequiredRuns:
    runs: int
    degenerate: bool


def required_runs(estimate_value, epsilon):
    """Run count whose standard error matches a target tolerance.

    Solves sqrt(S(1-S)/(R-1)) = epsilon for R. An estimate of exactly
    0 or 1 has no finite-variance reading; the minimal count of 2 is
    returned with ``degenerate=True``.
    """
    if not (0.0 <= estimate_value <= 1.0):
        raise ValueError(f"estimate must lie in [0, 1], got {estimate_value}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if estimate_value in (0.0, 1.0):
        return RequiredRuns(runs=2, degenerate=True)
    ratio = estimate_value * (1.0 - estimate_value) / epsilon**2
    # snap values a few ulps off an integer so round inputs give the
    # textbook count instead of one extra run
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-9 * max(1.0, nearest):
        ratio = nearest
    runs = math.ceil(ratio) + 1
    return RequiredRuns(runs=max(2, runs), degenerate=False)


@dataclass(frozen=True)
class BenchmarkResult:
    n: int
    rule: Rule
    r: float
    mc_time: float
    solver_time: float
    speedup: float
    mc_estimate: float
    mc_std_error: float
    solver_estimate: float
    solver_iterations: int
    entered_band: bool


def speedup_benchmark(
    graph, config, rule=Rule.BD, r=1.0,
    mc_runs=2000, seed=0,
    max_iters=10_000_000, fallback_stdev=2.5e-6,
):
    """Wall-clock comparison: simulation versus iteration to the same error.

    First estimates fixation by ``mc_runs`` simulation runs, then times
    the averaging iteration until its estimate lies within one standard
    error of the simulated frequency. If the band is never entered
    (possible when the frequency is off by more than one error bar),
    iteration stops once the vector standard deviation reaches
    ``fallback_stdev`` and ``entered_band`` is False.
    """
    rule = resolve_rule(rule, r)
    members = check_config(graph, config)
    if not (0 < len(members) < graph.n):
        raise ValueError("benchmark needs a nonempty proper starting set")
    if not is_strongly_connected(graph):
        raise NotStronglyConnected("speedup benchmark")
    summary = estimate(graph, members, rule=rule, r=r, runs=mc_runs, seed=seed)

    t0 = perf_counter()
    values = init_vector(graph, members).values
    iters, entered = -1, False
    for block in chain([values[None]], blocks(graph, neutral_part(rule), values, max_iters)):
        avgs = (np.add.reduce(block, axis=1) / graph.n).tolist()
        for avg, stdev in zip(avgs, std(block).tolist()):
            iters += 1
            if iters >= max_iters:
                break
            if summary.std_error > 0 and abs(avg - summary.fixation_frequency) <= summary.std_error:
                entered = True
                break
            if stdev <= fallback_stdev:
                break
        else:
            continue
        break
    solver_time = perf_counter() - t0

    return BenchmarkResult(
        n=graph.n, rule=rule, r=r,
        mc_time=summary.wall_time, solver_time=solver_time,
        speedup=(summary.wall_time / solver_time) if solver_time > 0 else float("inf"),
        mc_estimate=summary.fixation_frequency,
        mc_std_error=summary.std_error,
        solver_estimate=avg,
        solver_iterations=iters,
        entered_band=entered,
    )
