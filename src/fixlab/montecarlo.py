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
from dataclasses import dataclass
from itertools import chain
from time import perf_counter

import numpy as np

from .dynamics import Rule, check_neighbours, init_vector, iterate, neutral_part, resolve_rule, std
from .graphs import check_config, is_strongly_connected
from .solver import NotStronglyConnected

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
    """Buffered uniform variates from one generator, drawn in a fixed order."""

    __slots__ = ("rng", "buf", "i", "size")

    def __init__(self, rng, size=_BUFFER):
        self.rng = rng
        self.size = size
        self.buf = rng.random(size).tolist()
        self.i = 0

    def u(self):
        i = self.i
        if i >= self.size:
            self.buf = self.rng.random(self.size).tolist()
            i = 0
        self.i = i + 1
        return self.buf[i]


class _SwapSet:
    """Index set with O(1) add, remove, and uniform pick."""

    __slots__ = ("items", "pos")

    def __init__(self, universe, members):
        self.items = list(members)
        self.pos = [-1] * universe
        for k, v in enumerate(self.items):
            self.pos[v] = k

    def __len__(self):
        return len(self.items)

    def add(self, v):
        self.pos[v] = len(self.items)
        self.items.append(v)

    def remove(self, v):
        items, pos = self.items, self.pos
        k = pos[v]
        last = items[-1]
        items[k] = last
        pos[last] = k
        items.pop()
        pos[v] = -1

    def pick(self, x):
        # x in [0, len); clamp guards the last-ulp rounding of u * len
        k = int(x)
        if k >= len(self.items):
            k = len(self.items) - 1
        return self.items[k]


class _State:
    __slots__ = ("member", "m", "mut", "res", "eb_mut", "eb_res")


@dataclass(frozen=True)
class RunResult:
    fixated: bool
    steps: int
    capped: bool


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
        st.mut = _SwapSet(self.n, [v for v in range(self.n) if st.member[v]])
        st.res = _SwapSet(self.n, [v for v in range(self.n) if not st.member[v]])
        if self.kind == _K_LD:
            st.eb_mut = _SwapSet(
                self.n_edges,
                [e for e in range(self.n_edges) if st.member[self.edge_src[e]]],
            )
            st.eb_res = _SwapSet(
                self.n_edges,
                [e for e in range(self.n_edges) if not st.member[self.edge_src[e]]],
            )
        else:
            st.eb_mut = st.eb_res = None
        return st

    def event(self, st, draws):
        """Sample one replacement event; returns (vertex, new_type)."""
        kind = self.kind
        r = self.r
        member = st.member
        if kind == _K_BD_B:
            m = st.m
            phi = r * m + (self.n - m)
            x = draws.u() * phi
            if x < r * m:
                breeder = st.mut.pick(x / r)
            else:
                breeder = st.res.pick(x - r * m)
            lo, hi = self.out_ptr[breeder], self.out_ptr[breeder + 1]
            target = self.out_dst[_bisect(self.out_cum, draws.u(), lo, hi)]
            return target, member[breeder]
        if kind == _K_BD_D:
            breeder = self._uniform_vertex(st, draws)
            lo, hi = self.out_ptr[breeder], self.out_ptr[breeder + 1]
            total = 0.0
            for k in range(lo, hi):
                w = self.out_w[k]
                total += w / r if member[self.out_dst[k]] else w
            x = draws.u() * total
            acc = 0.0
            target = self.out_dst[hi - 1]
            for k in range(lo, hi):
                w = self.out_w[k]
                acc += w / r if member[self.out_dst[k]] else w
                if x < acc:
                    target = self.out_dst[k]
                    break
            return target, member[breeder]
        if kind == _K_DB_B:
            dying = self._uniform_vertex(st, draws)
            lo, hi = self.in_ptr[dying], self.in_ptr[dying + 1]
            total = 0.0
            for k in range(lo, hi):
                total += r if member[self.in_src[k]] else 1.0
            x = draws.u() * total
            acc = 0.0
            rep = self.in_src[hi - 1]
            for k in range(lo, hi):
                acc += r if member[self.in_src[k]] else 1.0
                if x < acc:
                    rep = self.in_src[k]
                    break
            return dying, member[rep]
        if kind == _K_DB_D:
            m = st.m
            psi = m / r + (self.n - m)
            x = draws.u() * psi
            if x < m / r:
                dying = st.mut.pick(x * r)
            else:
                dying = st.res.pick(x - m / r)
            lo = self.in_ptr[dying]
            k = lo + int(draws.u() * self.k_in[dying])
            if k >= self.in_ptr[dying + 1]:
                k = self.in_ptr[dying + 1] - 1
            return dying, member[self.in_src[k]]
        # LD
        cm = len(st.eb_mut)
        phi = r * cm + (self.n_edges - cm)
        x = draws.u() * phi
        if x < r * cm:
            e = st.eb_mut.pick(x / r)
        else:
            e = st.eb_res.pick(x - r * cm)
        return self.out_dst[e], member[self.edge_src[e]]

    def _uniform_vertex(self, st, draws):
        v = int(draws.u() * self.n)
        return v if v < self.n else self.n - 1

    def apply_flip(self, st, vertex, new_type):
        """Commit a type change; returns the new mutant count."""
        st.member[vertex] = new_type
        if new_type:
            st.res.remove(vertex)
            st.mut.add(vertex)
            st.m += 1
        else:
            st.mut.remove(vertex)
            st.res.add(vertex)
            st.m -= 1
        if self.kind == _K_LD:
            lo, hi = self.out_ptr[vertex], self.out_ptr[vertex + 1]
            src_bucket, dst_bucket = (
                (st.eb_res, st.eb_mut) if new_type else (st.eb_mut, st.eb_res)
            )
            for e in range(lo, hi):
                src_bucket.remove(e)
                dst_bucket.add(e)
        return st.m

    def run(self, members, rng, step_cap):
        st = self.new_state(members)
        n = self.n
        if st.m == 0:
            return RunResult(False, 0, False)
        if st.m == n:
            return RunResult(True, 0, False)
        draws = _Draws(rng)
        steps = 0
        event = self.event
        member = st.member
        while True:
            if steps >= step_cap:
                return RunResult(False, steps, True)
            steps += 1
            vertex, new_type = event(st, draws)
            if member[vertex] != new_type:
                m = self.apply_flip(st, vertex, new_type)
                if m == 0:
                    return RunResult(False, steps, False)
                if m == n:
                    return RunResult(True, steps, False)


def _bisect(cum, x, lo, hi):
    # first k in [lo, hi) with cum[k] > x; clamped to hi - 1, since a
    # float cumsum can end a ulp or more below 1 and then below x
    last = hi - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cum[mid] > x:
            hi = mid
        else:
            lo = mid + 1
    return min(lo, last)


def _run_seed(master_seed, index):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))
    )


def simulate_run(graph, config, rule=Rule.BD, r=1.0, seed=0, step_cap=None):
    """Play one trajectory to absorption; deterministic in the seed."""
    members = check_config(graph, config)
    if 0 < len(members) < graph.n and not is_strongly_connected(graph):
        raise NotStronglyConnected("simulation to absorption")
    proc = _Process(graph, rule, r)
    cap = step_cap if step_cap is not None else 1_000_000 * graph.n
    return proc.run(members, _run_seed(int(seed), 0), cap)


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
    cap = step_cap if step_cap is not None else 1_000_000 * graph.n
    seed = int(seed)

    t0 = perf_counter()
    results = [proc.run(members, _run_seed(seed, k), cap) for k in range(runs)]
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
    rng = _run_seed(int(seed), 0)
    draws = _Draws(rng)
    counts = {}
    for _ in range(events):
        st = proc.new_state(members)
        vertex, new_type = proc.event(st, draws)
        if st.member[vertex] != new_type:
            proc.apply_flip(st, vertex, new_type)
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
    entered = False
    states = chain([values], iterate(graph, neutral_part(rule), values))
    for iters, values in enumerate(states):
        avg = float(values.mean())
        if iters >= max_iters:
            break
        if summary.std_error > 0 and abs(avg - summary.fixation_frequency) <= summary.std_error:
            entered = True
            break
        if std(values) <= fallback_stdev:
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
