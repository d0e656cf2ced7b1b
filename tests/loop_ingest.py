"""Graph ingest as one Python loop per edge, kept as the test reference.

This is the ingest that ``fixlab.EvolutionaryGraph`` replaced with array
operations: ``_edge``/``vertex_id`` per edge, a dict/set loop in
``validate``, a Python sort, a ``row_sums[s] += w`` loop and
``np.add.at`` for the temperatures, plus the
per-vertex ``np.allclose`` loop of ``stats``' shape flags. The tests
require the package to give the same arrays, the same bits and the same
messages.
"""

import math
import numbers
import operator

import numpy as np

ROW_SUM_TOL = 1e-9


def validate(n, edges):
    problems = []
    if n < 1:
        problems.append(f"population size must be at least 1, got {n}")
        return problems
    seen = set()
    row_sums = {}
    for src, dst, w in edges:
        if not (0 <= src < n) or not (0 <= dst < n):
            problems.append(f"edge ({src},{dst}) uses a vertex id outside 0..{n - 1}")
            continue
        if src == dst:
            problems.append(f"vertex {src} has a self-loop")
            continue
        if not math.isfinite(w):
            problems.append(f"edge ({src},{dst}) has non-finite weight {w}")
            continue
        if w <= 0:
            problems.append(f"edge ({src},{dst}) has non-positive weight {w}")
            continue
        if (src, dst) in seen:
            problems.append(f"edge ({src},{dst}) appears more than once")
            continue
        seen.add((src, dst))
        row_sums[src] = row_sums.get(src, 0.0) + w
    for src in sorted(row_sums):
        total = row_sums[src]
        if abs(total - 1.0) > ROW_SUM_TOL:
            problems.append(
                f"outgoing weights of vertex {src} sum to {total:.12g}, expected 1"
            )
    return problems


class LoopGraph:
    """The arrays ``EvolutionaryGraph.__init__`` built, one edge at a time."""

    def __init__(self, n, edges):
        n = vertex_id(n, "population size")
        edges = [_edge(e) for e in edges]
        problems = validate(n, edges)
        if problems:
            raise ValueError("invalid graph: " + "; ".join(problems))
        self.n = int(n)
        edges.sort(key=lambda e: (e[0], e[1]))
        m = len(edges)
        self.given_w = np.fromiter((e[2] for e in edges), dtype=np.float64, count=m)

        row_sums = np.zeros(n)
        for s, _, w in edges:
            row_sums[s] += w
        edges = [
            (s, d, w / row_sums[s]) for s, d, w in edges
        ]
        self.edges = tuple(edges)

        src = np.fromiter((e[0] for e in edges), dtype=np.int64, count=m)
        dst = np.fromiter((e[1] for e in edges), dtype=np.int64, count=m)
        wgt = np.fromiter((e[2] for e in edges), dtype=np.float64, count=m)

        self.k_out = np.bincount(src, minlength=n).astype(np.int64)
        self.k_in = np.bincount(dst, minlength=n).astype(np.int64)

        self.out_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.k_out, out=self.out_ptr[1:])
        self.out_dst = dst
        self.out_w = wgt

        order = np.lexsort((src, dst))
        self.in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.k_in, out=self.in_ptr[1:])
        self.in_src = src[order]
        self.in_w = wgt[order]

        self.temperatures = np.zeros(n)
        np.add.at(self.temperatures, dst, wgt)

    def to_json(self):
        weights = self.given_w.tolist()
        return {"n": self.n, "edges": [[s, d, w] for (s, d, _), w in zip(self.edges, weights)]}


def vertex_id(v, what="vertex id"):
    try:
        if not isinstance(v, bool):
            return operator.index(v)
    except TypeError:
        pass
    raise ValueError(f"{what} {v!r} is not an integer")


def _edge(e):
    try:
        s, d, w = e
    except (TypeError, ValueError):
        raise ValueError(f"edge {e!r} is not a [src, dst, weight] triple") from None
    if type(w) is not float and (isinstance(w, bool) or not isinstance(w, numbers.Real)):
        raise ValueError(f"edge {e!r} has a non-numeric weight {w!r}")
    return vertex_id(s), vertex_id(d), float(w)


def shape_flags(graph):
    unweighted = True
    for v in range(graph.n):
        lo, hi = graph.out_ptr[v], graph.out_ptr[v + 1]
        if hi > lo and not np.allclose(graph.out_w[lo:hi], 1.0 / (hi - lo), rtol=0, atol=1e-12):
            unweighted = False
            break
    pairs = {(s, d) for s, d, _ in graph.edges}
    undirected = all((d, s) in pairs for s, d in pairs)
    mean_inv = None
    if unweighted and undirected and (graph.k_out > 0).all():
        mean_inv = float(np.mean(1.0 / graph.k_out))
    return unweighted, undirected, mean_inv
