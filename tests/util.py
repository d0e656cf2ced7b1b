"""Shared fixture builders for the test suite."""

import numpy as np

from fixlab import EvolutionaryGraph, Rule, is_strongly_connected
from fixlab.montecarlo import _Process


def normalize_rows(n, raw_edges):
    """Scale outgoing weights so each row sums to one."""
    sums = {}
    for src, _, w in raw_edges:
        sums[src] = sums.get(src, 0.0) + w
    return [(s, d, w / sums[s]) for s, d, w in raw_edges]


def random_digraph(seed, n, p=0.5, weighted=True, require_in=True):
    """Random strongly connected digraph with row-stochastic weights.

    Mixes asymmetric edges and uneven weights so tests exercise the
    general directed weighted case, not accidental symmetry.
    """
    rng = np.random.default_rng(seed)
    for _ in range(500):
        raw = []
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < p:
                    w = float(rng.uniform(0.1, 1.0)) if weighted else 1.0
                    raw.append((i, j, w))
        if not raw:
            continue
        with_out = {e[0] for e in raw}
        with_in = {e[1] for e in raw}
        if len(with_out) < n or (require_in and len(with_in) < n):
            continue
        g = EvolutionaryGraph(n, normalize_rows(n, raw))
        if is_strongly_connected(g):
            return g
    raise RuntimeError(f"no strongly connected instance for seed={seed} n={n} p={p}")


def undirected_graph(n, undirected_edges):
    """Unweighted graph from undirected pairs: each becomes two directed edges."""
    raw = []
    for a, b in undirected_edges:
        raw.append((a, b, 1.0))
        raw.append((b, a, 1.0))
    return EvolutionaryGraph(n, normalize_rows(n, raw))


def random_undirected(seed, n, p=0.3):
    """Random connected undirected unweighted graph."""
    rng = np.random.default_rng(seed)
    for _ in range(500):
        pairs = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        touched = {v for pair in pairs for v in pair}
        if len(touched) < n:
            continue
        g = undirected_graph(n, pairs)
        if is_strongly_connected(g):
            return g
    raise RuntimeError(f"no connected undirected instance for seed={seed} n={n} p={p}")


def cycle_graph(n):
    """Directed n-cycle, weight 1 on each edge."""
    return EvolutionaryGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def complete_graph(n):
    return EvolutionaryGraph(
        n,
        [(i, j, 1.0 / (n - 1)) for i in range(n) for j in range(n) if i != j],
    )


def two_cycle():
    return EvolutionaryGraph(2, [(0, 1, 1.0), (1, 0, 1.0)])


def path3():
    """Undirected path 0 - 1 - 2 as a row-stochastic digraph."""
    return undirected_graph(3, [(0, 1), (1, 2)])


def star_graph(leaves):
    """Undirected star with the hub at vertex 0."""
    return undirected_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def sampler_cumsums(graph):
    """Each vertex's cumulative outgoing weights as the bd-b sampler keeps
    them (all but the last), with the row's last weight added back on."""
    out = []
    for v, (cum, _) in enumerate(_Process(graph, Rule.BD_B, 2.0).rows):
        last = float(graph.out_w[graph.out_ptr[v + 1] - 1])
        out.append(np.array(cum + [(cum[-1] if cum else 0.0) + last]))
    return out
