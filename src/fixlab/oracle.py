"""Exact small-population ground truth via the full configuration chain.

Every subset of vertices is one state of a Markov chain whose moves
are single replacement events. States are encoded as bitmasks, little
endian by vertex id: bit i set means vertex i currently holds a
mutant. State 0 (no mutants) and state 2^n - 1 (all mutants) are the
absorbing ends. Fixation probabilities and conditional absorption
times then come from sparse linear solves against I - P with those two
rows pinned (``fixlab.linear.checked_solve`` on the chain's ``EvenHalf``),
with no sampling error and a checked residual, which is what makes this
module the referee for both the iterative solver and the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Rule, check_neighbours, neutral_part, resolve_rule
from .graphs import check_config, reaches_all, vertex_id
from .linear import checked_solve

ORACLE_CAP = 16

ROW_SUM_TOL = 1e-12


def state_of(config):
    """Bitmask state for a set of vertex ids.

    Each id must be an integer of at least 0, else ``ValueError``. Ids
    are not checked against a population size, since there is none here.
    """
    s = 0
    for v in config:
        v = vertex_id(v)
        if v < 0:
            raise ValueError(f"vertex id {v} is negative")
        s |= 1 << v
    return s


def config_of(state, n):
    """Vertex ids set in a bitmask state of an n-vertex chain.

    ``state`` must be an integer in 0..2^n - 1, else ``ValueError``: a
    negative or too large one is refused, not wrapped or truncated.
    """
    state = _check_state(state, n)
    return frozenset(v for v in range(n) if (state >> v) & 1)


def _check_state(state, n):
    """``state`` as an int in 0..2^n - 1, else ``ValueError`` naming the range.

    Bools and non-integers are refused as ``vertex_id`` refuses them;
    numpy integers are taken.
    """
    state = vertex_id(state, "state")
    if not 0 <= state < 1 << n:
        raise ValueError(f"state {state} outside 0..{(1 << n) - 1}")
    return state


class ChainModel:
    """Transition structure of the replacement process on all 2^n states."""

    def __init__(self, n, rule, r, transitions, source, half):
        self.n = n
        self.n_states = 1 << n
        self.rule = rule
        self.r = float(r)
        self.transitions = transitions
        # the pinned I - P reduced to its even-parity states, which the
        # absorption solves iterate on
        self.half = half
        # bitmask of the vertices that reach every vertex: the graph's one
        # source component, or 0 when it has two or more and some states
        # never absorb, which the first solve refuses
        self.source = source
        self._solutions = None
        # filled by the first query that solves: system name -> largest
        # residual (as checked against RESIDUAL_TOL) and BiCGSTAB iterations
        self.residuals = None
        self.iterations = None

    def row(self, state):
        """Outgoing transition of one state: (destination states, probabilities).

        ``state`` must be an integer in 0..2^n - 1, as for ``config_of``.
        """
        state = _check_state(state, self.n)
        t = self.transitions
        lo, hi = t.indptr[state], t.indptr[state + 1]
        return t.indices[lo:hi].copy(), t.data[lo:hi].copy()


def build_chain(graph, rule=Rule.BD, r=1.0):
    """Enumerate every one-event transition for each mutant set.

    One event under the BD family picks a breeder then one of its
    outgoing edges by weight; under the DB family picks a dying vertex
    then one of its incoming neighbors uniformly (weights do not steer
    the DB draws, matching the deterministic kernel); under LD picks a
    directed edge. Fitness r multiplies the mutant side of whichever
    draw the rule biases. Events that copy a type onto itself are
    explicit self-transitions, so every row sums to one.

    An event replaces one vertex, so from state s it leads to s itself
    or to s with one bit flipped. The chain is built as n flip columns
    plus the diagonal, each computed for all 2^n states at once from
    the state-by-vertex bit matrix; the diagonal is the sum of the null
    events, not one minus the rest, so the row-sum check stays a check.
    The flip columns also give the chain's ``EvenHalf``.
    """
    rule = resolve_rule(rule, r, graph=graph)
    n = graph.n
    if n > ORACLE_CAP:
        raise ValueError(f"population {n} above the exact-chain cap {ORACLE_CAP}")
    check_neighbours(graph, rule, "chain")

    n_states = 1 << n
    states = np.arange(n_states)
    flips = 1 << np.arange(n)
    mutant = (states[:, None] & flips) != 0
    gain, loss = _replacement_odds(graph, rule, r, mutant)
    data = np.empty((n_states, n + 1))
    data[:, :n] = np.where(mutant, loss, gain)
    data[:, n] = np.where(mutant, gain, loss).sum(axis=1)
    for s in (0, n_states - 1):  # absorbing: no mutant, or no resident, left
        data[s] = 0.0
        data[s, n] = 1.0
    sums = data @ np.ones(n + 1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL * max(1, len(graph.out_dst)))
    if bad.size:
        raise ArithmeticError(f"chain rows {bad[:5].tolist()} do not sum to 1")
    # int32, the index type scipy would cast them to after a scan
    cols = np.empty((n_states, n + 1), dtype=np.int32)
    cols[:, :n] = states[:, None] ^ flips
    cols[:, n] = states
    # scipy.sparse is imported on first use, as in dynamics.kernel_matrix
    from scipy.sparse import csr_matrix

    chain = csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(0, data.size + 1, n + 1, dtype=np.int32)),
        shape=(n_states, n_states),
    )
    # the diagonal of the pinned I - P: pin - P[s, s], pin 1 on every state
    # and 2 at the ends (2 - 1: an absorbing row of P is its own self-loop);
    # both it and the half read data before the CSR's sort permutes it in place
    pin = np.ones(n_states)
    pin[[0, -1]] = 2.0
    # the same for every chain on n vertices, so memoized like the source below
    if "parity" not in graph._ops:
        graph._ops["parity"] = _parity_layout(n)
    half = EvenHalf(data, pin - data[:, n], graph._ops["parity"], chain)
    chain.sort_indices()
    chain.eliminate_zeros()
    # one search per vertex, so memoized: a graph is often asked under several rules
    if "source" not in graph._ops:
        graph._ops["source"] = sum(1 << v for v in range(n) if reaches_all(graph, [v]))
    return ChainModel(n, rule, r, chain, graph._ops["source"], half)


def _replacement_odds(graph, rule, r, mutant):
    """Per state and vertex, the chance one event gives it a mutant / a resident.

    ``mutant`` is the (states, n) bit matrix. Returns two arrays of the
    same shape: the probability that vertex j is replaced by a mutant
    offspring, and by a resident one. Sums over neighbors are products
    with the dense weight matrix W[i, j] = w_ij or its 0/1 pattern.
    """
    n = graph.n
    src = np.repeat(np.arange(n), graph.k_out)
    weight = np.zeros((n, n))
    weight[src, graph.out_dst] = graph.out_w
    link = (weight > 0).astype(float)
    mut = mutant.astype(float)
    res = 1.0 - mut
    fit = np.where(mutant, r, 1.0)
    kind = neutral_part(rule)
    if kind is Rule.BD:
        if rule is Rule.BD_D and r != 1.0:
            # breeder uniform, target by weight shaded toward weak targets
            shade = np.where(mutant, 1.0 / r, 1.0)
            denom = shade @ weight.T
            return (shade * (_ratio(mut, denom) @ weight) / n,
                    shade * (_ratio(res, denom) @ weight) / n)
        # breeder by fitness, target by weight (BD-B; BD and BD-D at r=1)
        if rule is Rule.BD_B:
            birth = fit / fit.sum(axis=1, keepdims=True)
        else:
            birth = np.full(mutant.shape, 1.0 / n)
        return (birth * mut) @ weight, (birth * res) @ weight
    if kind is Rule.DB:
        if rule is Rule.DB_D and r != 1.0:
            shade = np.where(mutant, 1.0 / r, 1.0)
            death = shade / shade.sum(axis=1, keepdims=True) / graph.k_in
            return death * (mut @ link), death * (res @ link)
        if rule is Rule.DB_B and r != 1.0:
            pool = n * (fit @ link)
            return (fit * mut) @ link / pool, (fit * res) @ link / pool
        share = 1.0 / (n * graph.k_in)
        return (mut @ link) * share, (res @ link) * share
    # LD, fitness biases the source side of the chosen edge
    phi = (fit @ graph.k_out)[:, None]
    return _ratio((fit * mut) @ link, phi), _ratio((fit * res) @ link, phi)


def _ratio(num, den):
    """num / den, and 0 where den is 0: an empty sum, an event that cannot happen."""
    return np.divide(num, den, out=np.zeros(np.broadcast_shapes(num.shape, den.shape)),
                     where=den != 0)


class EvenHalf:
    """A chain's pinned I - P reduced to its states of even mutant count.

    One event flips at most one vertex, so every off-diagonal entry of the
    pinned I - P links a state of even mutant count to one of odd count,
    and the two pinned rows have none: with D its diagonal, the system
    A x = b reads D_E x_E - P_EO x_O = b_E and D_O x_O - P_OE x_E = b_O
    (E, O: even, odd). Eliminating x_O leaves the Jacobi-scaled Schur
    complement, S x_E = D_E^-1 b_E + B' D_O^-1 b_O with S = I - B'C',
    B' = D_E^-1 P_EO and C' = D_O^-1 P_OE; then x_O = D_O^-1 b_O + C' x_E
    (Saad, Iterative Methods for Sparse Linear Systems, 2003, sec. 2.4).

    Each pair of states {2k, 2k + 1} holds one of each parity, so both
    halves are indexed by k = s >> 1, and flipping vertex v takes row k
    of one half to column k ^ (2^v >> 1) of the other. B' and C' are
    CSR with those int32 columns and ``n`` entries a row, zeros kept;
    B' is stored negated, so S v is two ``csr_matvec`` calls, the second
    adding onto a copy of v, and B'C' is never formed. ``diagonal`` is
    S's own, 1 - sum_v B'[k, v] C'[k ^ (2^v >> 1), v], the Jacobi
    preconditioner of the solves that ``fixlab.linear.checked_solve`` runs on S.
    """

    name = "even-parity Schur complement"

    def __init__(self, rows, pinned_diagonal, layout, transitions):
        # rows[s] is P[s, s ^ 2^v] for each vertex v, then P[s, s];
        # pinned_diagonal is that of the pinned I - P; layout is
        # _parity_layout(n); transitions is P as CSR
        m = len(rows) // 2
        self.n_states = m
        self.transitions = transitions
        self._scratch = np.empty(m)  # C'v in matvec, so one solve at a time on a half
        from scipy.sparse import _sparsetools  # here, not per product (~9% of S v)
        self._csr_matvec = _sparsetools.csr_matvec
        order, self.indptr, self.indices, across = layout
        self.even, self.odd = order[:m], order[m:]
        d = pinned_diagonal[order]
        self.d_even, self.d_odd = d[:m], d[m:]
        # 0 where d is 0, on a state no event leaves: only in a chain that
        # never absorbs, which the solves refuse
        scale = _ratio(np.ones(2 * m), d)
        scale[:m] *= -1.0
        halves = rows.take(order, axis=0)[:, :-1] * scale[:, None]  # -B' above C'
        self.minus_b, self.c = halves[:m].ravel(), halves[m:].ravel()
        self._diagonal = 1.0 + np.einsum("ij,ij->i", halves[:m], self.c.take(across))

    def diagonal(self):
        return self._diagonal

    def matvec(self, v, out):
        """S v: C'v into the zeroed scratch, then -B' times it onto a copy of v."""
        csr_matvec, m, w = self._csr_matvec, self.n_states, self._scratch
        w.fill(0.0)
        csr_matvec(m, m, self.indptr, self.indices, self.c, v, w)
        out[:] = v
        csr_matvec(m, m, self.indptr, self.indices, self.minus_b, w, out)
        return out

    def reduce(self, b, x):
        """The right-hand side on the half, D_E^-1 b_E + B' D_O^-1 b_O, and
        the even half of the start x (None if x is None)."""
        m = self.n_states
        rhs = b[self.even] / self.d_even
        self._csr_matvec(m, m, self.indptr, self.indices, self.minus_b,
                         -(b[self.odd] / self.d_odd), rhs)
        return rhs, None if x is None else x[self.even]

    def extend(self, x_even, b):
        """The solution over every state, from its even half: x_O = D_O^-1 b_O + C' x_E."""
        m = self.n_states
        x_odd = b[self.odd] / self.d_odd
        self._csr_matvec(m, m, self.indptr, self.indices, self.c, x_even, x_odd)
        x = np.empty(2 * m)
        x[self.even] = x_even
        x[self.odd] = x_odd
        return x

    def residual(self, b, x):
        """b - A x over every state, A the pinned I - P, as b - pin x + P x
        (pin 1, and 2 at the ends): P x is one ``csr_matvec`` adding onto
        b - pin x, and no pinned I - P is formed."""
        p = self.transitions
        r = b - x
        r[0] = b[0] - 2.0 * x[0]
        r[-1] = b[-1] - 2.0 * x[-1]
        self._csr_matvec(len(r), len(r), p.indptr, p.indices, p.data, x, r)
        return r


def _parity_layout(n):
    """What every ``EvenHalf`` on n vertices shares: the even states then
    the odd ones (the k-th of each in pair k), the CSR row pointers and
    int32 columns of either half, and for each entry of B' the flat index
    of the C' entry that flips the same vertex back. Read-only, since
    chains share it."""
    m = 1 << (n - 1)
    k = np.arange(m)
    parity = k
    for shift in (16, 8, 4, 2, 1):
        parity = parity ^ (parity >> shift)
    even = 2 * k + (parity & 1)
    columns = k[:, None] ^ ((1 << np.arange(n)) >> 1)
    layout = (np.concatenate((even, even ^ 1)), np.arange(0, m * n + 1, n, dtype=np.int32),
              columns.astype(np.int32).ravel(), columns * n + np.arange(n))
    for array in layout:
        array.flags.writeable = False
    return layout


def _solutions(chain):
    """Solve the absorption systems once; reused across configurations.

    The four systems share one matrix over every state, the pinned
    I - P: I - P with the rows of the empty and the full state pinned to
    the identity. It is never formed: the solves run on the chain's
    ``EvenHalf``, and the residual is taken from P. A solution's value at
    an end is then that end's right-hand side, and its transient part
    solves (I - Q) x = b + (P's columns of the ends) x_ends, with Q the
    transient block.
    The fixation probabilities h are 1 at the full state and 0 at the
    empty one; the absorption times a, and the fixation-weighted times
    u, are 0 at both ends, with 1 and h on the transient states. Every
    state absorbs, so the extinction probabilities are 1 - h, and
    exactly 0 where the mutants hold the whole source component, which
    residents can never re-enter; conditional means are then u/h
    (fixation) and symmetric for extinction.

    BiCGSTAB iterates on the chain's ``EvenHalf``, the Schur complement
    over the 2^(n-1) states of even mutant count, and takes about half
    the steps it takes on the full system; the odd states follow by one
    back-substitution. Each solve starts with the ends at their values
    (at odd n the full state is odd, and its value enters the half
    through the right-hand side); from zeros, BiCGSTAB breaks down at
    once on the pinned system's h. The
    fixation- and extinction-weighted times add up to the absorption
    times, so the extinction solve starts from a - u_fix, and takes a
    few steps where the others take tens.

    Each system goes through ``checked_solve`` on the chain's
    ``EvenHalf``, whose residual is taken from P over every state, the ends
    included: absolute accuracy for the probabilities h, so 1 - h meets
    the same bound, relative to the largest time for u and a. A run that
    breaks down is restarted from its iterate, as the fixation solve is on a 5-vertex graph whose one
    source vertex feeds two 2-cycles; so is a run that stops on its
    recurrence residual while the true one is still far off, as runs on
    the full system of the directed 5-cycle did. The residuals and
    iteration counts of the four solves are kept on the chain. The
    solutions are indexed by state.
    """
    if chain._solutions is not None:
        return chain._solutions
    if not chain.source:
        raise ArithmeticError(
            "no vertex reaches every other, so states that hold two source "
            "components apart never reach fixation or extinction"
        )
    chain.residuals, chain.iterations = {}, {}

    def solve(name, rhs, x=None):
        x, chain.residuals[name], chain.iterations[name] = checked_solve(
            chain.half, rhs, name, x)
        return x

    to_full = np.zeros(chain.n_states)
    to_full[-1] = 1.0
    h_fix = solve("h_fix", to_full, to_full.copy())
    # checked unclamped above; the solve is accurate in absolute terms only,
    # so a probability far below RESIDUAL_TOL can land a hair outside [0, 1]
    np.clip(h_fix, 0.0, 1.0, out=h_fix)
    h_ext = 1.0 - h_fix
    h_ext[(~np.arange(chain.n_states) & chain.source) == 0] = 0.0
    inner = np.ones(chain.n_states)  # 1 on the transient states, 0 at both ends
    inner[[0, -1]] = 0.0
    a_all = solve("a_all", inner)
    u_fix = solve("u_fix", h_fix * inner)
    chain._solutions = {
        "h_fix": h_fix, "h_ext": h_ext, "a_all": a_all, "u_fix": u_fix,
        "u_ext": solve("u_ext", h_ext * inner, a_all - u_fix),
    }
    return chain._solutions


def fixation_exact(chain, config):
    """Probability of absorbing in the all-mutant state from a given set."""
    s = state_of(check_config(chain, config))
    if s == 0:
        return 0.0
    if s == chain.n_states - 1:
        return 1.0
    return float(_solutions(chain)["h_fix"][s])


@dataclass(frozen=True)
class MeanTimes:
    """Conditional expected event counts until each absorbing outcome.

    ``fixation`` conditions on reaching the all-mutant state,
    ``extinction`` on reaching the empty state, ``absorption`` is
    unconditional. A condition whose probability is zero has no mean;
    the value is NaN and the matching flag is False. The probabilities
    are accurate to ``RESIDUAL_TOL`` in absolute terms only, so a
    conditional time whose probability lies below that accuracy is not
    determined by the solve: it is reported undefined when the
    probability comes out as 0, and is unreliable otherwise.
    """

    fixation: float
    extinction: float
    absorption: float
    fixation_defined: bool = True
    extinction_defined: bool = True


def mean_times_exact(chain, config):
    s = state_of(check_config(chain, config))
    if s == 0:
        return MeanTimes(float("nan"), 0.0, 0.0, fixation_defined=False)
    if s == chain.n_states - 1:
        return MeanTimes(0.0, float("nan"), 0.0, extinction_defined=False)
    sol = _solutions(chain)
    h, hbar = float(sol["h_fix"][s]), float(sol["h_ext"][s])
    t_fix = float(sol["u_fix"][s]) / h if h > 0 else float("nan")
    t_ext = float(sol["u_ext"][s]) / hbar if hbar > 0 else float("nan")
    return MeanTimes(
        fixation=t_fix,
        extinction=t_ext,
        absorption=float(sol["a_all"][s]),
        fixation_defined=h > 0,
        extinction_defined=hbar > 0,
    )
