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

Each biased rule has its own event loop (``_play_bd_b`` ... ``_play_ld``),
chosen once per ``_Process``; the loops share only the rare paths, the
flip commit and the draw refill. At r = 1 each family collapses to its
neutral kernel, the neutral rule names are accepted, and a rule plays
the cheapest equivalent loop: bd and bd-d play bd-b's, db plays db-d's,
and db-b keeps its own. A loop's per-vertex tables depend on the graph
alone, so they are built once per graph and loop and kept in
``graph._ops``, as the kernels are.

The bd-d and db-b loops scan the drawn vertex's row to weigh the second
draw. Each keeps a count per vertex of the mutants in its row, updated
on every flip, and steps past an event whose row holds only the drawn
vertex's own type: such an event is null whatever its second variate,
so both variates are still read and the stream keeps its bits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter

import numpy as np

from .dynamics import (
    Rule, _std_of, _stream, check_neighbours, engine_kernel, init_vector, neutral_part,
    resolve_rule, step_count,
)
from .graphs import check_config, vertex_id
from .mttf import STOP_STDEV
from .solver import _starting_set

# a run's draws come in chunks that start at _FIRST_CHUNK variates and
# double up to _BUFFER, so a run that absorbs early draws few
_FIRST_CHUNK = 64
_BUFFER = 4096

def default_thread_count():
    """Always 1: every run is played on the calling thread."""
    return 1


class _Draws:
    """Uniform variates from one generator, read in order from ``buf[i:]``.

    A play loop appends the generator's next ``chunk`` variates to the
    unread tail when fewer than two are left (``_refill``), and doubles
    ``chunk`` up to ``_BUFFER``; chunked draws from one generator equal
    one long draw, so the stream does not depend on where the chunks break.
    """

    __slots__ = ("rng", "buf", "i", "chunk")

    def __init__(self, rng):
        self.rng = rng
        self.buf = []
        self.i = 0
        self.chunk = _FIRST_CHUNK


def _refill(random, buf, i, chunk):
    # the unread tail and the next chunk: (buf, i, stop, chunk) for the loop
    buf = buf[i:] + random(chunk).tolist()
    return buf, 0, len(buf) - 1, chunk * 2 if chunk < _BUFFER else chunk


class _State:
    """One trajectory: types, mutant count and the swap-set index lists.

    ``mut``/``res`` list the mutant and resident vertices and ``pos[v]``
    is v's index in whichever list holds it; under ld, ``eb_mut``/``eb_res``
    and ``epos`` do the same for edges by the type of their source. Under
    bd-d and db-b, ``cnt[v]`` is the number of mutants in the row the loop
    reads for v (its out-neighbours, or its in-neighbours).
    """

    __slots__ = ("member", "m", "mut", "res", "pos", "eb_mut", "eb_res", "epos", "cnt")

    def copy(self):
        st = _State()
        st.member, st.m, st.mut, st.res, st.pos = (
            self.member[:], self.m, self.mut[:], self.res[:], self.pos[:])
        st.eb_mut = st.eb_res = st.epos = st.cnt = None
        if self.epos is not None:
            st.eb_mut, st.eb_res, st.epos = self.eb_mut[:], self.eb_res[:], self.epos[:]
        if self.cnt is not None:
            st.cnt = self.cnt[:]
        return st


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


def _rows(ptr, items):
    # the per-vertex slices of a CSR array pair, as lists
    ptr, items = ptr.tolist(), items.tolist()
    return [items[a:b] for a, b in zip(ptr, ptr[1:])]


def _tables(graph, play):
    """The per-vertex tables of one event loop, from the graph's arrays.

    Built once per graph and loop, as the kernels are, and read-only:
    ``(rows, watch, out_dst, edge_src)``. ``watch[u]`` lists the vertices
    whose row holds u, whose counts a flip of u moves: the other
    direction's adjacency under bd-d and db-b, None under the other
    loops. ``out_dst`` and ``edge_src`` are the edges' targets and sources
    as lists under ld, None under the other loops.
    """
    key = ("events", play)
    if key in graph._ops:
        return graph._ops[key]
    watch = out_dst = edge_src = None
    if play is _play_bd_b:
        # a row's cumulative weights without the last: the draw past the
        # last kept entry picks the last edge, also where the float sum
        # ends below 1; accumulate adds in order, as np.cumsum does
        rows = [(list(accumulate(w[:-1])), dst) for dst, w in zip(
            _rows(graph.out_ptr, graph.out_dst), _rows(graph.out_ptr, graph.out_w))]
    elif play is _play_bd_d:
        rows = [list(zip(dst, w)) for dst, w in zip(
            _rows(graph.out_ptr, graph.out_dst), _rows(graph.out_ptr, graph.out_w))]
        watch = _rows(graph.in_ptr, graph.in_src)
    elif play is _play_ld:
        ptr = graph.out_ptr.tolist()
        rows = [range(a, b) for a, b in zip(ptr, ptr[1:])]
        out_dst = graph.out_dst.tolist()
        edge_src = np.repeat(np.arange(graph.n), graph.k_out).tolist()
    else:
        rows = _rows(graph.in_ptr, graph.in_src)
        if play is _play_db_b:
            watch = _rows(graph.out_ptr, graph.out_dst)
    graph._ops[key] = tables = (rows, watch, out_dst, edge_src)
    return tables


class _Process:
    """Sampling tables for one (graph, rule, r); shared by runs.

    ``play`` is the event loop of the rule at r, and ``rows[v]`` the
    table that loop reads for vertex v, so an event does one list lookup:
    under bd-b the row's cumulative weights without the last and its
    targets, under bd-d its (target, weight) pairs, under db-b and db-d
    v's incoming neighbours, under ld v's outgoing edge ids. The tables
    come from ``_tables``, shared by every process of this loop on the
    graph.
    """

    def __init__(self, graph, rule, r):
        self.rule = resolve_rule(rule, r, graph=graph)
        self.r = float(r)
        self.n = graph.n
        self.n_edges = len(graph.out_dst)
        self.play = (_LOOP_AT_UNIT_FITNESS if self.r == 1.0 else _LOOP)[self.rule]
        check_neighbours(graph, self.rule, "events")
        self.rows, self.watch, self.out_dst, self.edge_src = _tables(graph, self.play)

    def new_state(self, members):
        st = _State()
        st.member = [0] * self.n
        for v in members:
            st.member[v] = 1
        st.m = len(members)
        st.mut = [v for v in range(self.n) if st.member[v]]
        st.res = [v for v in range(self.n) if not st.member[v]]
        st.pos = _positions(self.n, st.mut, st.res)
        st.eb_mut = st.eb_res = st.epos = st.cnt = None
        if self.watch is not None:
            st.cnt = [0] * self.n
            for u in st.mut:
                for v in self.watch[u]:
                    st.cnt[v] += 1
        if self.edge_src is not None:
            st.eb_mut = [e for e in range(self.n_edges) if st.member[self.edge_src[e]]]
            st.eb_res = [e for e in range(self.n_edges) if not st.member[self.edge_src[e]]]
            st.epos = _positions(self.n_edges, st.eb_mut, st.eb_res)
        return st


def _play(proc, st, draws, step_cap):
    """Play events on ``st`` until absorption or ``step_cap`` events.

    Runs the rule's own loop (``proc.play``). Draws are read from
    ``draws``, whose cursor is left after the last one used, so calls can
    share a stream. ``st`` is left at the final state.
    """
    if st.m == 0:
        return RunResult(False, 0, False)
    if st.m == proc.n:
        return RunResult(True, 0, False)
    return proc.play(proc, st, draws, step_cap)


def _move(items, src, dst, pos):
    # move each of ``items`` from swap list src to dst; pos[x] is x's index
    for x in items:
        k = pos[x]
        last = src[-1]
        src[k] = last
        pos[last] = k
        src.pop()
        pos[x] = len(dst)
        dst.append(x)


def _flip(st, vertex, new):
    # commit one flip of ``vertex`` to type ``new``: the one-item ``_move``
    # inline, as every flip pays it; returns the new mutant count
    st.member[vertex] = new
    mut, pos = st.mut, st.pos
    src, dst = (st.res, mut) if new else (mut, st.res)
    k = pos[vertex]
    last = src[-1]
    src[k] = last
    pos[last] = k
    src.pop()
    pos[vertex] = len(dst)
    dst.append(vertex)
    st.m = len(mut)
    return st.m


# In every loop below a pick int(x) from x in [0, len) is clamped against
# the last-ulp rounding of u * len; each event reads at most two variates,
# and the per-state totals are the per-event expressions, evaluated once
# per flip. A loop ends by writing back the draw cursor.
#
# Only bd-d and db-b skip an event whose row holds one type: theirs are the
# loops that scan the row. The bd-b, db-d and ld picks are O(1) or a
# bisect, and the same skip in bd-b cost more than it saved, as a flip of
# a BA hub updates the counts of many watchers: the bd and bd-b questions
# of the simulate benchmark (seed 1, one pass) took 0.35-0.38 s with it
# and 0.31-0.33 s without.

def _play_bd_b(proc, st, draws, cap):
    n, r, rows = proc.n, proc.r, proc.rows
    member, mut, res, m = st.member, st.mut, st.res, st.m
    random, buf, i, chunk = draws.rng.random, draws.buf, draws.i, draws.chunk
    stop = len(buf) - 1
    rm = r * m
    phi = rm + (n - m)
    for steps in range(1, cap + 1):
        if i >= stop:
            buf, i, stop, chunk = _refill(random, buf, i, chunk)
        x = buf[i] * phi
        if x < rm:
            k = int(x / r)
            breeder = mut[k if k < m else m - 1]
        else:
            k = int(x - rm)
            breeder = res[k if k < n - m else n - m - 1]
        # the first edge of the row whose cumsum exceeds the draw
        cum, dst = rows[breeder]
        vertex = dst[bisect_right(cum, buf[i + 1])]
        i += 2
        new = member[breeder]
        if member[vertex] != new:
            m = _flip(st, vertex, new)
            if m == 0 or m == n:
                result = RunResult(m == n, steps, False)
                break
            rm = r * m
            phi = rm + (n - m)
    else:
        result = RunResult(False, cap, True)
    draws.buf, draws.i, draws.chunk = buf, i, chunk
    return result


def _play_bd_d(proc, st, draws, cap):
    n, r, rows, watch = proc.n, proc.r, proc.rows, proc.watch
    member, cnt = st.member, st.cnt
    random, buf, i, chunk = draws.rng.random, draws.buf, draws.i, draws.chunk
    stop = len(buf) - 1
    for steps in range(1, cap + 1):
        if i >= stop:
            buf, i, stop, chunk = _refill(random, buf, i, chunk)
        breeder = int(buf[i] * n)
        if breeder >= n:
            breeder = n - 1
        row = rows[breeder]
        # every target holds the breeder's type: null, whatever buf[i + 1]
        if cnt[breeder] == (len(row) if member[breeder] else 0):
            i += 2
            continue
        total = 0.0
        for v, w in row:
            total += w / r if member[v] else w
        x = buf[i + 1] * total
        i += 2
        acc = 0.0
        vertex = row[-1][0]
        for v, w in row:
            acc += w / r if member[v] else w
            if x < acc:
                vertex = v
                break
        new = member[breeder]
        if member[vertex] != new:
            m = _flip(st, vertex, new)
            step = 1 if new else -1
            for v in watch[vertex]:
                cnt[v] += step
            if m == 0 or m == n:
                result = RunResult(m == n, steps, False)
                break
    else:
        result = RunResult(False, cap, True)
    draws.buf, draws.i, draws.chunk = buf, i, chunk
    return result


def _play_db_b(proc, st, draws, cap):
    n, r, rows, watch = proc.n, proc.r, proc.rows, proc.watch
    member, cnt = st.member, st.cnt
    random, buf, i, chunk = draws.rng.random, draws.buf, draws.i, draws.chunk
    stop = len(buf) - 1
    for steps in range(1, cap + 1):
        if i >= stop:
            buf, i, stop, chunk = _refill(random, buf, i, chunk)
        vertex = int(buf[i] * n)
        if vertex >= n:
            vertex = n - 1
        row = rows[vertex]
        # every replacer holds the dying vertex's type: null, whatever buf[i + 1]
        if cnt[vertex] == (len(row) if member[vertex] else 0):
            i += 2
            continue
        total = 0.0
        for u in row:
            total += r if member[u] else 1.0
        x = buf[i + 1] * total
        i += 2
        acc = 0.0
        rep = row[-1]
        for u in row:
            acc += r if member[u] else 1.0
            if x < acc:
                rep = u
                break
        new = member[rep]
        if member[vertex] != new:
            m = _flip(st, vertex, new)
            step = 1 if new else -1
            for v in watch[vertex]:
                cnt[v] += step
            if m == 0 or m == n:
                result = RunResult(m == n, steps, False)
                break
    else:
        result = RunResult(False, cap, True)
    draws.buf, draws.i, draws.chunk = buf, i, chunk
    return result


def _play_db_d(proc, st, draws, cap):
    n, r, rows = proc.n, proc.r, proc.rows
    member, mut, res, m = st.member, st.mut, st.res, st.m
    random, buf, i, chunk = draws.rng.random, draws.buf, draws.i, draws.chunk
    stop = len(buf) - 1
    mr = m / r
    psi = mr + (n - m)
    for steps in range(1, cap + 1):
        if i >= stop:
            buf, i, stop, chunk = _refill(random, buf, i, chunk)
        x = buf[i] * psi
        if x < mr:
            k = int(x * r)
            vertex = mut[k if k < m else m - 1]
        else:
            k = int(x - mr)
            vertex = res[k if k < n - m else n - m - 1]
        row = rows[vertex]
        k = int(buf[i + 1] * len(row))
        i += 2
        new = member[row[k] if k < len(row) else row[-1]]
        if member[vertex] != new:
            m = _flip(st, vertex, new)
            if m == 0 or m == n:
                result = RunResult(m == n, steps, False)
                break
            mr = m / r
            psi = mr + (n - m)
    else:
        result = RunResult(False, cap, True)
    draws.buf, draws.i, draws.chunk = buf, i, chunk
    return result


def _play_ld(proc, st, draws, cap):
    n, r, rows, n_edges = proc.n, proc.r, proc.rows, proc.n_edges
    out_dst, edge_src = proc.out_dst, proc.edge_src
    member, eb_mut, eb_res, epos = st.member, st.eb_mut, st.eb_res, st.epos
    random, buf, i, chunk = draws.rng.random, draws.buf, draws.i, draws.chunk
    stop = len(buf) - 1
    cm = len(eb_mut)
    rc = r * cm
    phi = rc + (n_edges - cm)
    for steps in range(1, cap + 1):
        if i >= stop:
            buf, i, stop, chunk = _refill(random, buf, i, chunk)
        x = buf[i] * phi
        i += 1
        if x < rc:
            k = int(x / r)
            e = eb_mut[k if k < cm else cm - 1]
        else:
            k = int(x - rc)
            e = eb_res[k if k < n_edges - cm else n_edges - cm - 1]
        vertex, new = out_dst[e], member[edge_src[e]]
        if member[vertex] != new:
            m = _flip(st, vertex, new)
            _move(rows[vertex], *((eb_res, eb_mut) if new else (eb_mut, eb_res)), epos)
            if m == 0 or m == n:
                result = RunResult(m == n, steps, False)
                break
            cm = len(eb_mut)
            rc = r * cm
            phi = rc + (n_edges - cm)
    else:
        result = RunResult(False, cap, True)
    draws.buf, draws.i, draws.chunk = buf, i, chunk
    return result


_LOOP = {
    Rule.BD_B: _play_bd_b, Rule.BD_D: _play_bd_d, Rule.DB_B: _play_db_b,
    Rule.DB_D: _play_db_d, Rule.LD: _play_ld,
}
# at r = 1 each rule plays the cheapest equivalent loop
_LOOP_AT_UNIT_FITNESS = {**_LOOP, Rule.BD: _play_bd_b, Rule.BD_D: _play_bd_b, Rule.DB: _play_db_d}


def _run_seed(master_seed, index):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))
    )


def step_cap_for(graph, step_cap=None):
    """The per-run event cap applied: ``step_cap``, or 10^6 events per vertex."""
    if step_cap is None:
        return 1_000_000 * graph.n
    return step_count(step_cap, "per-run event cap", least=1)


def simulate_run(graph, config, rule=Rule.BD, r=1.0, seed=0, step_cap=None):
    """Play one trajectory to absorption; deterministic in the seed."""
    members = _starting_set(graph, config, "simulation to absorption")
    proc = _Process(graph, rule, r)
    cap = step_cap_for(graph, step_cap)
    seed = vertex_id(seed, "seed")
    return _play(proc, proc.new_state(members), _Draws(_run_seed(seed, 0)), cap)


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
    runs = step_count(runs, "runs")
    if runs < 2:
        raise ValueError("need at least 2 runs for an error estimate")
    members = _starting_set(graph, config, "simulation to absorption")
    proc = _Process(graph, rule, r)
    cap = step_cap_for(graph, step_cap)
    seed = vertex_id(seed, "seed")

    # every run starts from the same set, so from a copy of one state
    template = proc.new_state(members)
    t0 = perf_counter()
    results = [
        _play(proc, template.copy(), _Draws(_run_seed(seed, k)), cap)
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
    events = step_count(events, "events")
    members = check_config(graph, config)
    proc = _Process(graph, rule, r)
    draws = _Draws(_run_seed(vertex_id(seed, "seed"), 0))
    template = proc.new_state(members)
    m0, mask0 = template.m, sum(1 << v for v in template.mut)
    st = template.copy()
    counts = {}
    for _ in range(events):
        _play(proc, st, draws, 1)
        if st.m == m0:
            mask = mask0
        else:
            # a flip appends the vertex to the list it joins; an event that
            # flips nothing leaves the state as it was, so only a flip
            # needs a fresh copy of the template
            mask = mask0 ^ (1 << (st.mut[-1] if st.m > m0 else st.res[-1]))
            st = template.copy()
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
    returned with ``degenerate=True``. An epsilon so small that R is not
    a finite number is refused.
    """
    if not (0.0 <= estimate_value <= 1.0):
        raise ValueError(f"estimate must lie in [0, 1], got {estimate_value}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if estimate_value in (0.0, 1.0):
        return RequiredRuns(runs=2, degenerate=True)
    square = epsilon**2
    ratio = estimate_value * (1.0 - estimate_value) / square if square else math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"epsilon {epsilon} is too small for a finite run count")
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
    graph, config, rule=Rule.BD, r=1.0, mc_runs=2000, seed=0, max_iters=10_000_000,
):
    """Wall-clock comparison: simulation versus iteration to the same error.

    First estimates fixation by ``mc_runs`` simulation runs, then times
    the averaging iteration until its estimate lies within one standard
    error of the simulated frequency. If the band is never entered
    (possible when the frequency is off by more than one error bar),
    iteration stops once the vector standard deviation reaches
    ``STOP_STDEV``, the mttf stopping threshold, and ``entered_band`` is
    False.
    """
    rule = resolve_rule(rule, r)
    max_iters = step_count(max_iters, "max_iters")
    members = _starting_set(graph, config, "speedup benchmark")
    if not (0 < len(members) < graph.n):
        raise ValueError("benchmark needs a nonempty proper starting set")
    summary = estimate(graph, members, rule=rule, r=r, runs=mc_runs, seed=seed)

    # the kernel is built before the timer, as estimate builds its sampler
    # before its own: both sides time only the work of the question
    engine_kernel(graph, rule)
    t0 = perf_counter()
    values = init_vector(graph, members)
    start = 0  # the index of the block's row 0
    rows = _stream(graph, neutral_part(rule), values, max_iters)
    try:
        for block in rows:
            total = np.add.reduce(block, axis=1)
            avgs = total / graph.n
            band = (summary.std_error > 0) & (
                np.abs(avgs - summary.fixation_frequency) <= summary.std_error)
            quiet = _std_of(block, total) <= STOP_STDEV
            # the row at the max_iters cap, the stream's last, ends the loop unchecked
            stop = np.flatnonzero((band | quiet)[:max_iters - start])
            if len(stop):
                break
            start += len(block)
    finally:
        rows.close()
    k = int(stop[0]) if len(stop) else len(block) - 1
    iters = start + k if len(stop) else max_iters
    solver_time = perf_counter() - t0

    return BenchmarkResult(
        n=graph.n, rule=rule, r=r,
        mc_time=summary.wall_time, solver_time=solver_time,
        speedup=(summary.wall_time / solver_time) if solver_time > 0 else float("inf"),
        mc_estimate=summary.fixation_frequency,
        mc_std_error=summary.std_error,
        solver_estimate=float(avgs[k]),
        solver_iterations=iters,
        entered_band=bool(len(stop)) and bool(band[k]),
    )
