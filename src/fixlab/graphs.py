"""Directed weighted population graphs.

A population structure is a digraph on vertices 0..n-1 with weight
matrix W = [w_ij]. Outgoing weights of every reproducing vertex must
sum to one (row stochastic), an edge exists exactly where its weight
is positive, and self-loops are not allowed. Update kernels read the
incoming side of each vertex; stochastic simulation reads the
outgoing side, so both adjacency directions are indexed.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

ROW_SUM_TOL = 1e-9

GENERATOR_KINDS = ("preferential_attachment", "erdos_renyi", "small_world")


def validate(n, edges):
    """Check raw edge data against the model constraints.

    Parameters
    ----------
    n : int
        Number of vertices; ids must lie in 0..n-1.
    edges : iterable of (int, int, float)
        Directed edges (source, target, weight).

    Returns
    -------
    list of str
        Human-readable violations, edge by edge in input order and then
        row sums by vertex; empty means the data is valid.

    The values are compared as given, not coerced. ``EvolutionaryGraph``
    makes the same checks as arrays on the edges it has coerced, and
    refuses a graph with the message this list gives for those edges.
    """
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


def _columns(edges):
    """``edges`` as three tuples: source ids and target ids (ints), weights (floats).

    Lists and tuples of three plain ints and floats are split by C-level
    ``map`` passes; anything else (numpy ints, other reals, or a
    malformed edge) goes through ``_edge`` edge by edge, which coerces
    what it accepts and raises on the first edge it refuses.
    """
    edges = list(edges)
    if not edges:
        return (), (), ()
    if set(map(type, edges)) <= {list, tuple} and set(map(len, edges)) == {3}:
        s, d, w = (tuple(map(operator.itemgetter(i), edges)) for i in range(3))
        if set(map(type, s)) | set(map(type, d)) == {int} and set(map(type, w)) <= {float, int}:
            return s, d, tuple(map(float, w))
    return tuple(zip(*map(_edge, edges)))


_INT64_MAX = np.iinfo(np.int64).max


def _ids(ids):
    """``ids`` as an int64 array; an id beyond int64 becomes -1, out of range as it was."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array([v if 0 <= v <= _INT64_MAX else -1 for v in ids], dtype=np.int64)


def _checked(n, s, d, w):
    """``validate``'s list for the columns ``s, d, w`` (see ``_columns``),
    their arrays, and the order that sorts the accepted edges by
    (source, target).

    Each edge is charged with its first failed check, in the order
    range, self-loop, finite, positive, duplicate; a duplicate is a
    later copy of a pair that passed the other checks. Row sums are
    taken over the accepted edges in input order.
    """
    if n < 1:
        return [f"population size must be at least 1, got {n}"], None, None, None, None
    src, dst, wgt = _ids(s), _ids(d), np.array(w, dtype=np.float64)
    in_range = (src >= 0) & (dst >= 0)
    if n <= _INT64_MAX:
        in_range &= (src < n) & (dst < n)
    loop = in_range & (src == dst)
    ok = in_range & ~loop
    nonfinite = ok & ~np.isfinite(wgt)
    ok &= ~nonfinite
    nonpositive = ok & (wgt <= 0)
    ok &= ~nonpositive
    # lexsort is stable, so each pair's copies stay in input order
    order = np.flatnonzero(ok)
    order = order[np.lexsort((dst[order], src[order]))]
    repeat = (src[order[1:]] == src[order[:-1]]) & (dst[order[1:]] == dst[order[:-1]])
    if repeat.any():
        ok[order[1:][repeat]] = False
        order = order[ok[order]]

    problems = []
    for i in np.flatnonzero(~ok).tolist():
        a, b = s[i], d[i]
        if not in_range[i]:
            problems.append(f"edge ({a},{b}) uses a vertex id outside 0..{n - 1}")
        elif loop[i]:
            problems.append(f"vertex {a} has a self-loop")
        elif nonfinite[i]:
            problems.append(f"edge ({a},{b}) has non-finite weight {w[i]}")
        elif nonpositive[i]:
            problems.append(f"edge ({a},{b}) has non-positive weight {w[i]}")
        else:
            problems.append(f"edge ({a},{b}) appears more than once")
    sums = np.bincount(src[ok], weights=wgt[ok])
    rows = np.unique(src[ok])
    for v in rows[np.abs(sums[rows] - 1.0) > ROW_SUM_TOL].tolist():
        problems.append(
            f"outgoing weights of vertex {v} sum to {float(sums[v]):.12g}, expected 1"
        )
    return problems, src, dst, wgt, order


class EvolutionaryGraph:
    """Immutable directed weighted graph with row-stochastic weights.

    Rows are renormalized exactly on ingest when they are within
    ``ROW_SUM_TOL`` of one; anything farther off is rejected. The
    weights as given are kept in ``given_w`` (in edge order) and are
    what ``to_json`` writes, so a saved graph reads back with bit-equal
    weights. Both adjacency directions are stored in CSR-style arrays
    so kernels and samplers can slice neighborhoods without building
    Python lists.
    """

    __slots__ = (
        "n", "edges", "given_w",
        "out_ptr", "out_dst", "out_w", "out_cum",
        "in_ptr", "in_src", "in_w",
        "k_in", "k_out", "temperatures",
        "_ops",
    )

    def __init__(self, n, edges):
        n = vertex_id(n, "population size")
        problems, src, dst, given_w, order = _checked(n, *_columns(edges))
        if problems:
            raise ValueError("invalid graph: " + "; ".join(problems))
        self.n = int(n)
        src, dst = src[order], dst[order]
        self.given_w = given_w[order]

        # bincount adds each row's weights one by one in edge order, so
        # the sums have the bits of a Python loop (tests/loop_ingest.py)
        row_sums = np.bincount(src, weights=self.given_w, minlength=n)
        wgt = self.given_w / row_sums[src]
        self.edges = tuple(zip(src.tolist(), dst.tolist(), wgt))

        self.k_out = np.bincount(src, minlength=n).astype(np.int64)
        self.k_in = np.bincount(dst, minlength=n).astype(np.int64)

        # edges are sorted by source, so the outgoing CSR is direct
        self.out_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.k_out, out=self.out_ptr[1:])
        self.out_dst = dst
        self.out_w = wgt
        # per-row cumsums, one (rows, degree) block per out-degree; a
        # cumsum along axis 1 adds in row order, as a 1-D one does
        self.out_cum = np.empty_like(wgt)
        for k in np.unique(self.k_out[self.k_out > 0]).tolist():
            at = self.out_ptr[:-1][self.k_out == k, None] + np.arange(k)
            self.out_cum[at] = np.cumsum(wgt[at], axis=1)

        order = np.lexsort((src, dst))
        self.in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.k_in, out=self.in_ptr[1:])
        self.in_src = src[order]
        self.in_w = wgt[order]

        # astype: with no edges, bincount gives ints
        self.temperatures = np.bincount(dst, weights=wgt, minlength=n).astype(np.float64)

        self._ops = {}

    def out_neighbors(self, i):
        """Arrays (targets, weights) of the outgoing edges of vertex i."""
        lo, hi = self.out_ptr[i], self.out_ptr[i + 1]
        return self.out_dst[lo:hi], self.out_w[lo:hi]

    def in_neighbors(self, i):
        """Arrays (sources, weights) of the incoming edges of vertex i."""
        lo, hi = self.in_ptr[i], self.in_ptr[i + 1]
        return self.in_src[lo:hi], self.in_w[lo:hi]

    def incoming_matrix(self, weighted=True):
        """Sparse operator B with B[i, j] = w_ji (or 1) for each edge (j, i)."""
        key = ("in", weighted)
        if key not in self._ops:
            rows = np.repeat(np.arange(self.n), np.diff(self.in_ptr))
            data = self.in_w if weighted else np.ones_like(self.in_w)
            self._ops[key] = csr_matrix(
                (data, (rows, self.in_src)), shape=(self.n, self.n)
            )
        return self._ops[key]

    def to_json(self):
        weights = self.given_w.tolist()
        return {"n": self.n, "edges": [[s, d, w] for (s, d, _), w in zip(self.edges, weights)]}

    def __repr__(self):
        return f"EvolutionaryGraph(n={self.n}, edges={len(self.edges)})"


def vertex_id(v, what="vertex id"):
    """``v`` as an int; bools and non-integers are refused, not truncated."""
    try:
        if not isinstance(v, bool):
            return operator.index(v)
    except TypeError:
        pass
    raise ValueError(f"{what} {v!r} is not an integer")


def _edge(e):
    """``e`` as (src, dst, weight); anything but a triple with a numeric weight is refused."""
    try:
        s, d, w = e
    except (TypeError, ValueError):
        raise ValueError(f"edge {e!r} is not a [src, dst, weight] triple") from None
    if type(w) is not float and (isinstance(w, bool) or not isinstance(w, numbers.Real)):
        raise ValueError(f"edge {e!r} has a non-numeric weight {w!r}")
    return vertex_id(s), vertex_id(d), float(w)


def check_config(graph, config):
    """Normalize a mutant configuration to a frozenset of valid vertex ids."""
    members = frozenset(vertex_id(v) for v in config)
    for v in members:
        if not (0 <= v < graph.n):
            raise ValueError(f"configuration vertex {v} outside 0..{graph.n - 1}")
    return members


def is_strongly_connected(graph):
    """True iff every vertex reaches every other along directed edges.

    Computed once per graph from the outgoing CSR arrays and memoized.
    """
    key = "strongly_connected"
    if key not in graph._ops:
        adj = csr_matrix(
            (np.ones(len(graph.out_dst)), graph.out_dst, graph.out_ptr),
            shape=(graph.n, graph.n),
        )
        ncomp, _ = connected_components(adj, directed=True, connection="strong")
        graph._ops[key] = ncomp == 1
    return graph._ops[key]


def reaches_all(graph, config):
    """True iff every vertex outside the configuration is reachable from it."""
    members = check_config(graph, config)
    if len(members) == graph.n:
        return True
    seen = np.zeros(graph.n, dtype=bool)
    stack = list(members)
    for v in stack:
        seen[v] = True
    while stack:
        v = stack.pop()
        targets, _ = graph.out_neighbors(v)
        for u in targets:
            if not seen[u]:
                seen[u] = True
                stack.append(int(u))
    return bool(seen.all())


@dataclass(frozen=True)
class GraphStats:
    temperatures: np.ndarray
    in_degrees: np.ndarray
    out_degrees: np.ndarray
    is_unweighted: bool
    is_undirected: bool
    is_strongly_connected: bool
    mean_inverse_degree: float | None


def stats(graph):
    """Structural summary: temperatures, degrees, and shape flags.

    The mean inverse degree is defined only for graphs that are both
    undirected (edge set symmetric) and unweighted (each outgoing
    weight equals one over the out-degree); otherwise it is None. The
    shape flags are computed once per graph and memoized; the arrays
    are fresh copies on every call.
    """
    key = "shape"
    if key not in graph._ops:
        graph._ops[key] = _shape_flags(graph)
    unweighted, undirected, mean_inv = graph._ops[key]
    return GraphStats(
        temperatures=graph.temperatures.copy(),
        in_degrees=graph.k_in.copy(),
        out_degrees=graph.k_out.copy(),
        is_unweighted=unweighted,
        is_undirected=undirected,
        is_strongly_connected=is_strongly_connected(graph),
        mean_inverse_degree=mean_inv,
    )


def _shape_flags(graph):
    # every outgoing weight within 1e-12 of one over its row's out-degree
    unweighted = bool(
        (np.abs(graph.out_w - 1.0 / np.repeat(graph.k_out, graph.k_out)) <= 1e-12).all()
    )
    # the edge set is symmetric iff every vertex's sorted out-row is its sorted in-row
    undirected = (np.array_equal(graph.out_ptr, graph.in_ptr)
                  and np.array_equal(graph.out_dst, graph.in_src))
    mean_inv = None
    if unweighted and undirected and (graph.k_out > 0).all():
        mean_inv = float(np.mean(1.0 / graph.k_out))
    return unweighted, undirected, mean_inv


def _derived_seed(seed, *key):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _assign_weights(n, undirected_edges, weighting, rng):
    neighbor_sets = [[] for _ in range(n)]
    for u, v in undirected_edges:
        neighbor_sets[u].append(v)
        neighbor_sets[v].append(u)
    edges = []
    for v in range(n):
        targets = sorted(neighbor_sets[v])
        if not targets:
            continue
        if weighting == "unweighted":
            w = np.full(len(targets), 1.0 / len(targets))
        elif weighting == "random":
            # uniform over (0, 1] keeps every weight strictly positive
            w = 1.0 - rng.random(len(targets))
            w /= w.sum()
        else:
            raise ValueError(f"unknown weighting {weighting!r}")
        edges.extend((v, t, float(wi)) for t, wi in zip(targets, w))
    return edges


def generate(kind, n, *, seed, weighting="random", m=1, p=0.5, k=2, retries=100):
    """Build a strongly connected directed graph from an undirected growth model.

    Parameters
    ----------
    kind : str
        One of ``preferential_attachment`` (scale-free growth with ``m``
        edges per new vertex), ``erdos_renyi`` (independent edges with
        probability ``p``), or ``small_world`` (ring of degree ``k``
        plus random shortcuts with probability ``p``; shortcuts are
        added, never rewired).
    n : int
        Number of vertices, at least 2.
    seed : int
        Master seed; the same arguments always produce the same graph.
    weighting : str
        ``unweighted`` sets every outgoing weight to 1/out-degree;
        ``random`` draws each outgoing weight uniformly from (0, 1] and
        normalizes per vertex.

    Every undirected edge of the growth model becomes two directed
    edges, so connectivity of the grown graph gives strong
    connectivity of the result. Disconnected draws are retried with
    derived seeds up to ``retries`` times and then reported.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if kind == "preferential_attachment":
        if not (1 <= m < n):
            raise ValueError(f"attachment count m={m} must satisfy 1 <= m < n")
    elif kind == "erdos_renyi":
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"edge probability p={p} must lie in [0, 1]")
    elif kind == "small_world":
        if not (1 <= k < n):
            raise ValueError(f"ring degree k={k} must satisfy 1 <= k < n")
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"shortcut probability p={p} must lie in [0, 1]")
    else:
        raise ValueError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")

    # networkx is imported here, not at module level: nothing else uses
    # it, and it is a third of the modules a bare ``import fixlab`` loads
    import networkx as nx

    for attempt in range(retries):
        grow_seed = _derived_seed(seed, attempt)
        if kind == "preferential_attachment":
            g = nx.barabasi_albert_graph(n, m, seed=grow_seed)
        elif kind == "erdos_renyi":
            g = nx.gnp_random_graph(n, p, seed=grow_seed)
        else:
            g = nx.newman_watts_strogatz_graph(n, k, p, seed=grow_seed)
        if g.number_of_edges() > 0 and nx.is_connected(g):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=int(seed), spawn_key=(attempt, 1))
            )
            edges = _assign_weights(n, sorted(g.edges()), weighting, rng)
            return EvolutionaryGraph(n, edges)
    raise RuntimeError(
        f"{kind} generator produced no connected graph in {retries} attempts "
        f"(n={n}, m={m}, p={p}, k={k})"
    )


@dataclass(frozen=True)
class FeederExperiment:
    graph: EvolutionaryGraph
    feeder_mutant: int
    feeder_resident: int
    target_mutant: int
    target_resident: int


def feeder_pair_graph(core_n, *, seed, p=0.5, relation="equal", retries=100):
    """Random core plus two one-way feeder vertices.

    Builds an undirected unweighted Erdős–Rényi core of ``core_n``
    vertices, then appends vertex ``core_n`` and vertex ``core_n + 1``,
    each with a single outgoing edge (weight 1) into the core and no
    incoming edges. The first feeder is meant to hold a permanent
    mutant and the second a permanent resident, so the overall graph is
    deliberately not strongly connected.

    ``relation`` controls the core degrees of the two attachment
    targets: ``equal``, ``mutant_lower``, or ``mutant_higher``.
    """
    if core_n < 3:
        raise ValueError("core needs at least 3 vertices")
    for attempt in range(retries):
        core = generate(
            "erdos_renyi", core_n,
            seed=_derived_seed(seed, 7, attempt), weighting="unweighted", p=p,
        )
        deg = core.k_out
        order = np.argsort(deg, kind="stable")
        pair = None
        if relation == "equal":
            for a, b in zip(order[:-1], order[1:]):
                if deg[a] == deg[b]:
                    pair = (int(a), int(b))
                    break
        elif relation == "mutant_lower":
            lo, hi = int(order[0]), int(order[-1])
            if deg[lo] < deg[hi]:
                pair = (lo, hi)
        elif relation == "mutant_higher":
            lo, hi = int(order[0]), int(order[-1])
            if deg[lo] < deg[hi]:
                pair = (hi, lo)
        else:
            raise ValueError(f"unknown relation {relation!r}")
        if pair is None:
            continue
        t_mut, t_res = pair
        fm, fr = core_n, core_n + 1
        edges = list(core.edges)
        edges.append((fm, t_mut, 1.0))
        edges.append((fr, t_res, 1.0))
        return FeederExperiment(
            graph=EvolutionaryGraph(core_n + 2, edges),
            feeder_mutant=fm, feeder_resident=fr,
            target_mutant=t_mut, target_resident=t_res,
        )
    raise RuntimeError(f"no attachment pair with relation {relation!r} in {retries} attempts")


def load_graph(path):
    """Read a graph from JSON {"n": ..., "edges": [[i, j, w], ...]} or
    from a plain-text edge list with one "i j w" triple per line (vertex
    count inferred as max id + 1)."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        if "n" not in payload or "edges" not in payload:
            raise ValueError(f"{path}: graph JSON needs both \"n\" and \"edges\"")
        if not isinstance(payload["edges"], list):
            raise ValueError(f"{path}: graph JSON \"edges\" must be a list of triples")
        return EvolutionaryGraph(payload["n"], payload["edges"])
    edges = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{line_no}: expected 'source target weight'")
        edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    if not edges:
        raise ValueError(f"{path}: no edges found")
    n = 1 + max(max(s, d) for s, d, _ in edges)
    return EvolutionaryGraph(n, edges)


def save_graph(graph, path):
    with open(path, "w") as fh:
        json.dump(graph.to_json(), fh, indent=1)
        fh.write("\n")
