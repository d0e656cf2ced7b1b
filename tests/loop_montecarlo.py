"""The event sampler as one method call per event, kept as the test reference.

This is the sampler that ``fixlab.montecarlo`` replaced with one
locals-only loop per biased rule (``_play_bd_b`` ... ``_play_ld``):
buffered draws behind ``_Draws.u``, index sets behind ``_SwapSet``, a
bound ``event`` method that dispatches on the event law at every event,
a separate ``apply_flip`` and a ``run`` loop around them. It builds its
own flat lists from the graph's arrays, with one ``np.cumsum`` per row
for the bd-b target draw, and picks its event law from the rule and r
with its own copy of the r = 1 substitutions, so it shares no table
with the package it referees. The tests require the package to give the
same bits for every seed.
"""

import numpy as np

from fixlab import Rule, SimulationSummary, resolve_rule, standard_error
from fixlab.graphs import check_config
from fixlab.montecarlo import _BUFFER, RunResult, _run_seed

# at r = 1 each family collapses to its neutral kernel, and these rules
# take the event law of an equivalent one
_LAW_AT_UNIT_FITNESS = {Rule.BD: Rule.BD_B, Rule.BD_D: Rule.BD_B, Rule.DB: Rule.DB_D}


def out_cum(graph):
    """Each row's cumulative outgoing weights, one ``np.cumsum`` per row."""
    cum = np.copy(graph.out_w)
    for v in range(graph.n):
        lo, hi = graph.out_ptr[v], graph.out_ptr[v + 1]
        np.cumsum(graph.out_w[lo:hi], out=cum[lo:hi])
    return cum


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


class Process:
    """Flat lists of the graph's arrays and the event law of (rule, r)."""

    def __init__(self, graph, rule, r):
        rule = resolve_rule(rule, r)
        self.r = float(r)
        self.law = _LAW_AT_UNIT_FITNESS.get(rule, rule) if self.r == 1.0 else rule
        self.n = graph.n
        self.out_ptr = graph.out_ptr.tolist()
        self.out_dst = graph.out_dst.tolist()
        self.out_w = graph.out_w.tolist()
        self.out_cum = out_cum(graph).tolist()
        self.in_ptr = graph.in_ptr.tolist()
        self.in_src = graph.in_src.tolist()
        self.k_in = graph.k_in.tolist()
        self.n_edges = len(self.out_dst)
        self.edge_src = np.repeat(np.arange(graph.n), graph.k_out).tolist()

    def new_state(self, members):
        st = _State()
        st.member = [0] * self.n
        for v in members:
            st.member[v] = 1
        st.m = len(members)
        st.mut = _SwapSet(self.n, [v for v in range(self.n) if st.member[v]])
        st.res = _SwapSet(self.n, [v for v in range(self.n) if not st.member[v]])
        if self.law is Rule.LD:
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
        law = self.law
        r = self.r
        member = st.member
        if law is Rule.BD_B:
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
        if law is Rule.BD_D:
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
        if law is Rule.DB_B:
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
        if law is Rule.DB_D:
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
        if self.law is Rule.LD:
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

