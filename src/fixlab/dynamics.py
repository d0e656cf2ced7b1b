"""One-step update kernels for per-vertex mutant probabilities.

Each kernel is a linear row-stochastic map applied synchronously: the
whole next vector is computed from the whole previous vector. Constant
vectors are fixed points, convex combinations are preserved, and under
the birth-death kernel the running minimum never decreases while the
running maximum never increases.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .graphs import check_config, step_count


class Rule(enum.Enum):
    """Update rules: who is drawn first and where fitness enters.

    BD picks the reproducing vertex first, DB picks the dying vertex
    first, LD picks an edge. The -B / -D suffix marks whether fitness
    biases the birth draw or the death draw; the plain names are the
    neutral (fitness 1) kernels. LD has a single biased form because
    biasing either draw yields the same process.
    """

    BD = "bd"
    DB = "db"
    LD = "ld"
    BD_B = "bd-b"
    BD_D = "bd-d"
    DB_B = "db-b"
    DB_D = "db-d"

    def __str__(self):
        return self.value


NEUTRAL_RULES = (Rule.BD, Rule.DB, Rule.LD)
BIASED_RULES = (Rule.BD_B, Rule.BD_D, Rule.DB_B, Rule.DB_D, Rule.LD)

_NEUTRAL_OF = {
    Rule.BD: Rule.BD, Rule.DB: Rule.DB, Rule.LD: Rule.LD,
    Rule.BD_B: Rule.BD, Rule.BD_D: Rule.BD,
    Rule.DB_B: Rule.DB, Rule.DB_D: Rule.DB,
}


def parse_rule(name):
    try:
        return Rule(str(name).lower())
    except ValueError:
        raise ValueError(
            f"unknown rule {name!r}; choose from "
            + ", ".join(r.value for r in Rule)
        ) from None


def resolve_rule(rule, r=1.0, kernel=False, graph=None):
    """The one check of a rule name and the fitness it is used with.

    Names are case-insensitive. Fitness must be finite and positive.
    The neutral ``bd`` and ``db`` names do not say which draw fitness
    biases, so they are refused at r != 1; ``ld`` has a single biased
    form and takes any r. With ``kernel=True`` (kernel iteration,
    which is neutral by construction) biased names are refused too.

    With ``graph`` (the simulator and the exact chain), r is also refused
    where r n |E| or n |E| / r overflows a float, with n vertices and |E|
    edges: every total a sampler or the chain build sums, of fitnesses
    over vertices or edges, or of weights shaded by 1/r, stays below one
    of the two, so an accepted r never turns a total into inf or NaN.
    """
    if not isinstance(rule, Rule):
        rule = parse_rule(rule)
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"fitness r must be finite and positive, got {r}")
    if rule in (Rule.BD, Rule.DB) and r != 1.0:
        raise ValueError(
            f"rule {rule} is the neutral kernel; pick {rule.value}-b or "
            f"{rule.value}-d to say where fitness {r} applies"
        )
    if kernel and rule not in NEUTRAL_RULES:
        raise ValueError(
            f"rule {rule} carries a fitness bias; kernel iteration is neutral "
            "only, so use one of the neutral kernels (bd, db, ld)"
        )
    if graph is not None:
        size = graph.n * len(graph.out_dst)
        if not (math.isfinite(size * float(r)) and math.isfinite(size / float(r))):
            raise ValueError(
                f"fitness r = {r} overflows the event totals on this graph: "
                f"r*n*|E| and n*|E|/r must be finite (n = {graph.n}, |E| = {len(graph.out_dst)})"
            )
    return rule


def neutral_part(rule):
    """The neutral kernel a biased rule collapses to at fitness 1."""
    return _NEUTRAL_OF[resolve_rule(rule)]


def init_vector(graph, config):
    """Indicator vector of the initial mutant set: a new float64 array of length n."""
    members = check_config(graph, config)
    values = np.zeros(graph.n)
    for v in members:
        values[v] = 1.0
    return values


def check_neighbours(graph, rule, what):
    """Refuse a graph on which one event of the rule's family is undefined.

    A death-birth event draws the replacer among the dying vertex's
    incoming neighbours, a birth-death event the target among the
    breeder's outgoing ones; ``what`` names the refused object. LD
    events draw an edge and need no check here.
    """
    family = neutral_part(rule)
    if family is Rule.DB:
        degree, name, side = graph.k_in, "death-birth", "incoming"
    elif family is Rule.BD:
        degree, name, side = graph.k_out, "birth-death", "outgoing"
    else:
        return
    if (degree == 0).any():
        missing = np.flatnonzero(degree == 0).tolist()
        raise ValueError(f"{name} {what} undefined: vertices {missing} have no {side} edges")


@dataclass(frozen=True)
class EngineKernel:
    """A neutral kernel as CSR arrays in the engine's vertex order.

    Engine row k is vertex ``order[k]`` and vertex v is engine row
    ``rank[v]``; column labels are engine labels too. The vertices are
    in stable order of row length.

    ``stacked`` holds the CSR arrays ``(indptr, indices, data)`` of
    ``depth`` copies of the kernel, one below the other: copy t is rows
    t n .. (t + 1) n - 1, with every column label shifted by t n. Called
    with c n rows, scipy's CSR kernel runs the first c copies.
    """

    order: np.ndarray
    rank: np.ndarray
    depth: int
    stacked: tuple


def _vertex_kernel(graph, rule):
    """CSR arrays ``(indptr, indices, data)`` of a neutral kernel, in vertex order.

    They are built straight from the graph's incoming arrays. Each row
    holds the entries, bits and storage order of the sparse-arithmetic
    kernel ``I + (W - diag(T)) / N`` (BD), ``diag(1 - 1/N) + diag(1 /
    (N k_in)) U`` (DB) or ``diag(1 - k_in / m) + U / m`` (LD), where W
    and U are the weighted and unweighted incoming matrices
    (``tests/loop_kernel.py`` keeps that build):

    - the in-edges are in order of source, and the diagonal sits at its
      column, except under DB once a vertex has two in-edges, where it
      comes last in every row;
    - a scalar divisor is applied as ``* (1.0 / N)``, as scipy applies it;
    - an entry that is exactly 0 (an LD diagonal where every edge enters
      one vertex) is not stored.

    ``kernel_matrix`` wraps these arrays and ``engine_kernel`` reorders
    them; neither caches them as they are.
    """
    n, k_in, src = graph.n, graph.k_in, graph.in_src
    row = np.repeat(np.arange(n), k_in)
    if rule is Rule.BD:
        off, diag = graph.in_w * (1.0 / n), 1.0 - graph.temperatures * (1.0 / n)
    elif rule is Rule.DB:
        # the neutral birth-death kernel stays row-stochastic without out-edges
        check_neighbours(graph, rule, "step")
        off, diag = np.repeat(1.0 / (n * k_in), k_in), np.full(n, 1.0 - 1.0 / n)
    elif rule is Rule.LD:
        m = len(graph.out_dst)
        if m == 0:
            raise ValueError("link-dynamics step undefined on an edgeless graph")
        off, diag = np.full(m, 1.0 / m), 1.0 - k_in / m
    else:  # pragma: no cover
        raise ValueError(f"no deterministic kernel for {rule}")
    # every row gains its diagonal at its column, but DB's comes after
    # the in-edges once a row has two: scipy's row scaling then leaves
    # the rows unsorted, and its sum appends the diagonal
    at = np.arange(len(src)) + row
    if rule is not Rule.DB or k_in.max() <= 1:
        at += src > row
    indptr = graph.in_ptr + np.arange(n + 1)
    free = np.ones(indptr[-1], dtype=bool)
    free[at] = False
    indices, data = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
    indices[at], data[at] = src, off
    on_diag = np.flatnonzero(free)
    indices[on_diag], data[on_diag] = np.arange(n), diag
    kept = data != 0.0
    if not kept.all():
        np.cumsum(np.bincount(np.repeat(np.arange(n), np.diff(indptr))[kept], minlength=n),
                  out=indptr[1:])
        indices, data = indices[kept], data[kept]
    return indptr, indices, data


def engine_kernel(graph, rule):
    """The kernel engine's build of a neutral kernel, once per graph.

    The vertex-order arrays of ``_vertex_kernel`` with the vertices in
    stable order of row length, stacked ``stack_depth`` times.
    """
    rule = neutral_part(rule)
    key = ("kernel", rule)
    if key in graph._ops:
        return graph._ops[key]
    # scipy.sparse is imported on first use, by the build and not by the
    # first step, so that a caller can time its steps apart from the import
    from scipy.sparse import _sparsetools  # noqa: F401

    n = graph.n
    indptr, indices, data = _vertex_kernel(graph, rule)
    # a stable sort's permutation is unique, and numpy sorts the smallest
    # unsigned type that holds the lengths by radix, not by timsort
    lengths = np.diff(indptr)
    order = np.argsort(lengths.astype(np.min_scalar_type(lengths.max())), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    # one gather puts the rows in that order, entries in storage order
    lengths = lengths[order]
    ptr = np.append(0, np.cumsum(lengths))
    at = np.repeat(indptr[:-1][order] - ptr[:-1], lengths) + np.arange(ptr[-1])
    indptr, indices, data = ptr, rank.take(indices.take(at)), data.take(at)
    nnz, depth = len(data), stack_depth(len(data))
    shift = np.arange(depth)[:, None]
    indptr = np.append((indptr[:-1] + nnz * shift).ravel(), depth * nnz)
    indices, data = (indices + n * shift).ravel(), np.tile(data, depth)
    # scipy's CSR kernel takes int32 or int64 indices; int32 ones are read faster
    if max(len(indptr), len(data)) <= np.iinfo(np.int32).max:
        indptr, indices = indptr.astype(np.int32), indices.astype(np.int32)
    graph._ops[key] = kernel = EngineKernel(order, rank, depth, (indptr, indices, data))
    return kernel


def kernel_matrix(graph, rule):
    """The sparse row-stochastic operator of one update step, in vertex order.

    ``_vertex_kernel``'s arrays as a scipy CSR matrix, once per graph.
    The engine reorders the same build; this one is never remapped.
    """
    # scipy.sparse is imported here and in engine_kernel, not at module
    # level: ingest, simulation and the closed forms never use it, and it
    # is more than half the modules ``import fixlab`` would load
    from scipy.sparse import csr_matrix

    rule = neutral_part(rule)
    key = ("matrix", rule)
    if key not in graph._ops:
        indptr, indices, data = _vertex_kernel(graph, rule)
        graph._ops[key] = csr_matrix((data, indices, indptr), shape=(graph.n, graph.n))
    return graph._ops[key]


# a block pays about 15 numpy and Python calls beside its steps (the zeroed
# array, row 0's call, the clip check, the caller's statistics); at
# N <= 150, where a step costs about 1 µs, 256 rows spread them over a short
# solve's few hundred steps, where 512 computed too many unused rows past
# its stop. At large N, where the sparse product is the cost anyway, the
# cell cap keeps a block within 512 KB (one row when a row alone is
# larger); ``blocks`` computes them on a worker thread only there, from
# N = 256, where a block is the full 2^16 cells
_BLOCK_ROWS = 256
_BLOCK_CELLS = 1 << 16


def block_height(n):
    """Rows per block of ``blocks`` at population size n: 256, fewer past 256."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // n))


# a call of the CSR kernel costs about 1 µs beside its sparse work, which at
# N <= 150 is the larger part of a step; the entries cap keeps the stacked
# copies of a kernel within 192 KB of indices and data, and leaves a kernel
# of more than 2^13 entries one copy, so the steps of a large N are one call
# each
_STACK_ROWS = 16
_STACK_ENTRIES = 1 << 14


def stack_depth(nnz):
    """Stacked kernel copies at ``nnz`` stored entries: up to 16, 1 past 2^13."""
    return max(1, min(_STACK_ROWS, _STACK_ENTRIES // nnz))


def blocks(graph, rule, values, steps):
    """The kernel engine: yield the steps from ``values`` a block at a time.

    Each block is a ``(rows, n)`` float64 view of one buffer of
    ``block_height(n)`` rows, reused for every block: it is valid until
    the next block is asked for, and closing the generator leaves it as
    it is. Row k holds the vector one step after row k - 1, the first
    row of the first block one step after ``values``, and the blocks
    hold exactly ``steps`` rows in all; a caller may stop early.

    The kernel is looked up once and ``values`` is checked once: a
    vector of length ``graph.n`` (anything numpy converts to one, read
    as float64), else ``ValueError``; it is never written. Every row is
    bit for bit ``np.clip(op @ values, 0, 1)`` of the row before, with
    ``op`` the ``kernel_matrix``: the steps are calls of scipy's CSR
    kernel in the engine's vertex order (``engine_blocks``), which halves
    a product's time at N = 10^4, and each block is put back in vertex
    order with one ``take`` into the buffer.

    From N = 256 (a block of 2^16 cells), when the steps fill more than
    one block and the process may run on two CPUs, a worker thread
    computes the next blocks (``_ahead``), with the same bits. ``close``
    joins it; a caller whose loop may raise closes the generator in a
    ``finally``, since a traceback keeps it alive.
    """
    kernel = engine_kernel(graph, rule)
    steps = step_count(steps)
    n, height = graph.n, block_height(graph.n)
    computed = engine_blocks(kernel, values, steps)
    # below n = 256 a block is too little work to pay for the hand-offs: a
    # worker read 1.25x the time of the calling thread alone at n = 50
    if n >= _BLOCK_ROWS and steps > height and _cpus() > 1:
        computed = _ahead(computed)
    # one buffer for every put-back: with a fresh copy per block, glibc can
    # hand the top of its heap back to the system and fault it in again every
    # block (1.9x the time of a one-CPU trajectory at n = 10^4)
    put_back = np.empty((min(height, steps), n))
    try:
        for block in computed:
            rows = put_back[:len(block)]
            # rank holds each column once, so "clip" clips nothing; it lets
            # take write into ``rows`` without a copy of its own
            block.take(kernel.rank, axis=1, out=rows, mode="clip")
            yield rows
    finally:
        computed.close()


def _stream(graph, rule, values, steps):
    """``values`` as a one-row block (row 0), then the blocks of ``blocks``,
    closed as ``blocks`` is; a caller that stops on row 0 never builds a
    kernel. ``trajectory``, ``mttf_lower_bound`` and ``speedup_benchmark``
    read their rows from here."""
    yield values[None]
    yield from blocks(graph, rule, values, steps)


def engine_blocks(kernel, values, steps):
    """``blocks`` of an ``EngineKernel`` as fresh arrays, with columns in its
    vertex order.

    ``values`` is in vertex order. A statistic that does not depend on
    the order of a row's entries (a min or a max, not a sum) can be
    read off these blocks directly; ``row.take(kernel.rank)`` puts a row
    back in vertex order.

    Row 0 of a block is one call of the kernel's first copy, from the
    row before the block. The later rows take one call per
    ``kernel.depth`` rows: the stacked copies read the block's flat
    buffer from one row and write it from the next, and each product
    keeps the bits of the one-row call, since the kernel sums each row in
    storage order.

    The clips run only where they can act. The first step is clipped
    to [0, 1], since the caller's vector may lie outside it. After it
    every kernel entry is >= 0 and every value lies in [0, 1] (or is
    NaN), so no product falls below 0, and one passes 1 only by
    rounding, when its kernel row sums past 1. So the later steps of a
    block run unclipped, and the block is checked once before it is
    yielded: if an entry passes 1 (NaN is ignored, as ``np.minimum``
    passes it through), the block is redone from its first such row
    with the clip at 1, which then runs on every later step.
    """
    n = len(kernel.order)
    values = np.asarray(values, dtype=np.float64)
    # the kernel does no bounds checking, so this guard keeps it in bounds
    if values.shape != (n,):
        raise ValueError(f"vector of shape {values.shape} != population size ({n},)")
    left = step_count(steps)
    values = values.take(kernel.order)
    # the kernel's build has imported scipy.sparse
    from scipy.sparse import _sparsetools

    matvec, minimum, fmax = _sparsetools.csr_matvec, np.minimum, np.fmax
    # called with n rows, the kernel runs the first copy
    (indptr, indices, data), depth = kernel.stacked, kernel.depth
    height = block_height(n)
    first, clip = True, False
    while left > 0:
        block = np.zeros((min(height, left), n))
        # row 0 from the row before the block, with one copy
        row = block[0]
        matvec(n, n, indptr, indices, data, values, row)
        if first or clip:
            minimum(row, 1.0, out=row)
        if first:
            np.maximum(row, 0.0, out=row)
        start = 1  # the first row the clipped loop runs
        if not clip:
            # the first c = m / n copies run rows k + 1 .. k + c from rows
            # k .. k + c - 1, in one call on the block's flat buffer: the
            # kernel finishes each row before it starts the next, so row
            # k + 1 is written before copy 1 reads it
            flat, last = block.reshape(-1), len(block) - 1
            for k in range(0, last, depth):
                m = n * min(depth, last - k)
                matvec(m, m, indptr, indices, data, flat[k * n:], flat[k * n + n:])
            # the first block's row 0 is clipped already
            lo = 1 if first else 0
            if len(block) > lo and fmax.reduce(block[lo:], axis=None) > 1.0:
                # redo from the first row past 1, clipping from there on
                k = lo + int(np.argmax(fmax.reduce(block[lo:], axis=1) > 1.0))
                minimum(block[k], 1.0, out=block[k])
                # the kernel adds onto its output row
                block[k + 1:].fill(0.0)
                clip, start = True, k + 1
        if clip:
            values = block[start - 1]
            for row in block[start:]:
                matvec(n, n, indptr, indices, data, values, row)
                minimum(row, 1.0, out=row)
                values = row
        values, first = block[-1], False
        left -= len(block)
        yield block


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ahead(items):
    """The items of the generator ``items``, each made on a worker thread up
    to two items ahead of the caller, so that a worker slower than the
    caller never waits for it to wake. An exception the worker raises is
    raised here, as it is. ``close`` stops the worker within two items
    past the last one taken and joins it. scipy's CSR kernel and numpy's
    reductions release the interpreter lock, so the two threads run on
    two CPUs.
    """
    # queues in C; ``import fixlab`` does not load the module
    from queue import SimpleQueue

    made, go = SimpleQueue(), SimpleQueue()
    go.put(True)  # the second item ahead

    def work():
        try:
            for item in items:
                made.put((True, item))
                if not go.get():
                    return
            made.put((False, None))
        except BaseException as exc:  # raised again on the calling thread
            made.put((False, exc))

    worker = threading.Thread(target=work, name="fixlab-kernel", daemon=True)
    worker.start()
    try:
        while True:
            more, item = made.get()
            if not more:
                if item is not None:
                    raise item
                return
            go.put(True)
            yield item
    finally:
        go.put(False)
        worker.join()


def step_values(graph, rule, values):
    """One update step on a raw array, returning a new array."""
    return next(blocks(graph, rule, values, 1))[0]


def std(values):
    """``np.std`` of each row of a float64 array, bit for bit.

    The same operations in the same order as numpy's own (sum over n,
    subtract, square in place, sum over n, square root), along the last
    axis, without the wrapper's cost. A row-wise reduction of a block
    gives each row the bits of the 1-D one, so a ``(rows, n)`` block
    gives an array of ``rows`` values and a vector gives a float.
    """
    out = _std_of(values, np.add.reduce(values, axis=-1))
    return out if values.ndim > 1 else float(out)


def _row_extreme(extreme, block):
    """``extreme.reduce(block, axis=1)`` of a ``(rows, n)`` block, bit for bit,
    for ``extreme`` ``np.minimum`` or ``np.maximum``.

    One ``reduceat`` over the block's flat buffer, which costs less than
    half the axis-1 reduce at every n up to 256 (about 14 against 33 µs a
    256-row block at n = 6). A min or a max picks one entry, so the order
    it reads them in changes no bit, NaN included; a sum is another
    matter (``np.add.reduceat`` adds in sequence, the axis-1 reduce
    pairwise), so sums stay axis-1 reduces.
    """
    flat = block.reshape(-1)
    return extreme.reduceat(flat, np.arange(0, flat.size, block.shape[1]))


def _std_of(values, total):
    """``std`` of ``values`` as an array, given the sums of its rows, ``total``
    (``np.add.reduce(values, axis=-1)``), so that a caller that needs the sums
    too computes them once."""
    n = values.shape[-1]
    dev = values - (total / n)[..., None]
    np.square(dev, out=dev)
    return np.sqrt(np.add.reduce(dev, axis=-1) / n)
