"""The event sampler as one method call per event, kept as the test reference.

This is the sampler that ``fixlab.montecarlo._play`` replaced with one
locals-only loop: buffered draws behind ``_Draws.u``, index sets behind
``_SwapSet``, a bound ``event`` method that dispatches on the sampler
kind, a separate ``apply_flip`` and a ``run`` loop around them. The
tests require the package to give the same bits for every seed.
"""

import numpy as np

from fixlab import SimulationSummary, standard_error
from fixlab.graphs import check_config
from fixlab.montecarlo import (
    _BUFFER, _K_BD_B, _K_BD_D, _K_DB_B, _K_DB_D, _K_LD,
    RunResult, _Process, _run_seed,
)


class _Draws:
    """Buffered uniform variates from one generator, drawn in a fixed order."""

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
        k = int(x)
        if k >= len(self.items):
            k = len(self.items) - 1
        return self.items[k]


class _State:
    pass


def _bisect(cum, x, lo, hi):
    last = hi - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cum[mid] > x:
            hi = mid
        else:
            lo = mid + 1
    return min(lo, last)


class Process(_Process):
    """The package's sampling tables with the reference event law on top."""

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
        return st

    def event(self, st, draws):
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
            breeder = self._uniform_vertex(draws)
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
            dying = self._uniform_vertex(draws)
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
        cm = len(st.eb_mut)
        phi = r * cm + (self.n_edges - cm)
        x = draws.u() * phi
        if x < r * cm:
            e = st.eb_mut.pick(x / r)
        else:
            e = st.eb_res.pick(x - r * cm)
        return self.out_dst[e], member[self.edge_src[e]]

    def _uniform_vertex(self, draws):
        v = int(draws.u() * self.n)
        return v if v < self.n else self.n - 1

    def apply_flip(self, st, vertex, new_type):
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
        member = st.member
        while True:
            if steps >= step_cap:
                return RunResult(False, steps, True)
            steps += 1
            vertex, new_type = self.event(st, draws)
            if member[vertex] != new_type:
                m = self.apply_flip(st, vertex, new_type)
                if m == 0:
                    return RunResult(False, steps, False)
                if m == n:
                    return RunResult(True, steps, False)


def _cap(graph, step_cap):
    return step_cap if step_cap is not None else 1_000_000 * graph.n


def simulate_run(graph, config, rule, r, seed, step_cap=None):
    members = check_config(graph, config)
    return Process(graph, rule, r).run(members, _run_seed(int(seed), 0), _cap(graph, step_cap))


def estimate(graph, config, rule, r, runs, seed, step_cap=None):
    """Summary of ``runs`` reference runs, with ``wall_time`` zeroed."""
    members = check_config(graph, config)
    proc = Process(graph, rule, r)
    cap = _cap(graph, step_cap)
    results = [proc.run(members, _run_seed(seed, k), cap) for k in range(runs)]
    fixations = sum(1 for r_ in results if r_.fixated)
    freq = fixations / runs
    fix_times = [r_.steps for r_ in results if r_.fixated and not r_.capped]
    abs_times = [r_.steps for r_ in results if not r_.capped]
    return SimulationSummary(
        runs=runs,
        fixations=fixations,
        fixation_frequency=freq,
        std_error=standard_error(freq, runs),
        mean_fixation_time=(sum(fix_times) / len(fix_times)) if fix_times else None,
        fixation_time_stdev=float(np.std(fix_times, ddof=1)) if len(fix_times) >= 2 else None,
        mean_absorption_time=(sum(abs_times) / len(abs_times)) if abs_times else None,
        wall_time=0.0,
        seed=seed,
        capped_runs=sum(1 for r_ in results if r_.capped),
    )


def sample_transitions(graph, config, rule, r, events, seed):
    members = check_config(graph, config)
    proc = Process(graph, rule, r)
    draws = _Draws(_run_seed(int(seed), 0))
    counts = {}
    for _ in range(events):
        st = proc.new_state(members)
        vertex, new_type = proc.event(st, draws)
        if st.member[vertex] != new_type:
            proc.apply_flip(st, vertex, new_type)
        mask = sum(1 << v for v in range(proc.n) if st.member[v])
        counts[mask] = counts.get(mask, 0) + 1
    return counts

