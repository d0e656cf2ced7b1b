"""Exact small-population ground truth via the full configuration chain.

Every subset of vertices is one state of a Markov chain whose moves
are single replacement events. States are encoded as bitmasks, little
endian by vertex id: bit i set means vertex i currently holds a
mutant. State 0 (no mutants) and state 2^n - 1 (all mutants) are the
absorbing ends. Fixation probabilities and conditional absorption
times then come from sparse linear solves over the transient states,
with no sampling error and a checked residual, which is what makes
this module the referee for both the iterative solver and the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, diags, identity
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import bicgstab

from .dynamics import Rule, check_neighbours, neutral_part, resolve_rule

ORACLE_CAP = 16

ROW_SUM_TOL = 1e-12

# largest residual accepted from an absorption solve, over max(1, max |x|):
# absolute for probabilities, relative to the largest value for times
RESIDUAL_TOL = 1e-10

# one BiCGSTAB run stops after MAX_ITERATIONS steps; a run that stops
# without meeting RESIDUAL_TOL (its recurrence residual drifted from the
# true one, it broke down, or it ran out of steps) is restarted from its
# iterate, at most RESTARTS times
MAX_ITERATIONS = 1000
RESTARTS = 3


def state_of(config):
    """Bitmask state for a set of vertex ids."""
    s = 0
    for v in config:
        s |= 1 << int(v)
    return s


def config_of(state, n):
    """Vertex ids set in a bitmask state."""
    return frozenset(v for v in range(n) if (state >> v) & 1)


class ChainModel:
    """Transition structure of the replacement process on all 2^n states."""

    def __init__(self, n, rule, r, transitions):
        self.n = n
        self.n_states = 1 << n
        self.rule = rule
        self.r = float(r)
        self.transitions = transitions
        self._solutions = None
        # filled by the first query that solves: system name -> largest
        # residual (as checked against RESIDUAL_TOL) and BiCGSTAB iterations
        self.residuals = None
        self.iterations = None

    def row(self, state):
        """Outgoing transition of one state: (destination states, probabilities)."""
        t = self.transitions
        lo, hi = t.indptr[state], t.indptr[state + 1]
        return t.indices[lo:hi].copy(), t.data[lo:hi].copy()


def build_chain(graph, rule=Rule.BD, r=1.0, cap=ORACLE_CAP):
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
    """
    rule = resolve_rule(rule, r)
    n = graph.n
    if n > cap:
        raise ValueError(f"population {n} above the exact-chain cap {cap}")
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
    cols = np.empty((n_states, n + 1), dtype=np.int64)
    cols[:, :n] = states[:, None] ^ flips
    cols[:, n] = states
    chain = csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(0, data.size + 1, n + 1)),
        shape=(n_states, n_states),
    )
    chain.sort_indices()
    chain.eliminate_zeros()
    sums = np.asarray(chain.sum(axis=1)).ravel()
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL * max(1, len(graph.edges)))
    if bad.size:
        raise ArithmeticError(f"chain rows {bad[:5].tolist()} do not sum to 1")
    return ChainModel(n, rule, r, chain)


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


def _solutions(chain):
    """Solve the absorption systems once; reused across configurations.

    With Q the transient-to-transient block, h = (I - Q)^-1 b_fix gives
    fixation probabilities, (I - Q) u = h the fixation-weighted times,
    and (I - Q) a = 1 the absorption times. Conditional means are then
    u/h (fixation) and symmetric for extinction.

    Each system is solved by BiCGSTAB with a Jacobi preconditioner. The
    largest residual |b - (I - Q) x| of every system, over max(1, max |x|),
    is checked against ``RESIDUAL_TOL``: absolute for the probabilities h,
    relative to the largest time for u and a. A run that misses the bound
    is restarted from its iterate (needed on the directed 5-cycle, and on
    stars at extreme fitness where BiCGSTAB breaks down); when the
    restarts run out, ArithmeticError is raised. The residuals and
    iteration counts are kept on the chain.
    """
    if chain._solutions is not None:
        return chain._solutions
    full = chain.n_states - 1
    transient = np.arange(1, full)
    p = chain.transitions[transient]
    system = (identity(len(transient), format="csr") - p[:, transient]).tocsr()
    # a state that cannot reach either end leaves the systems singular
    back = chain.transitions.T.tocsr()
    absorbs = np.zeros(chain.n_states, dtype=bool)
    for end in (0, full):
        absorbs[breadth_first_order(back, end, return_predecessors=False)] = True
    if not absorbs.all():
        raise ArithmeticError(
            f"chain states {np.flatnonzero(~absorbs)[:5].tolist()} never reach "
            "fixation or extinction"
        )
    jacobi = diags(1.0 / system.diagonal())
    chain.residuals, chain.iterations = {}, {}

    def solve(name, rhs):
        steps, x = [], None
        for _ in range(RESTARTS + 1):
            x, info = bicgstab(system, rhs, x0=x, rtol=1e-13, atol=0.0,
                               maxiter=MAX_ITERATIONS, M=jacobi, callback=steps.append)
            residual = float(np.max(np.abs(rhs - system @ x), initial=0.0)
                             / max(np.max(np.abs(x), initial=0.0), 1.0))
            if info == 0 and residual <= RESIDUAL_TOL:
                break
        else:
            raise ArithmeticError(
                f"exact chain solve for {name} failed after {len(steps)} BiCGSTAB "
                f"iterations: info {info}, residual {residual:.3g} (bound {RESIDUAL_TOL:g})"
            )
        chain.residuals[name], chain.iterations[name] = residual, len(steps)
        return x

    h_fix = solve("h_fix", p[:, [full]].toarray().ravel())
    h_ext = solve("h_ext", p[:, [0]].toarray().ravel())
    # checked unclamped above; the solve is accurate in absolute terms only,
    # so a probability far below RESIDUAL_TOL can land a hair outside [0, 1]
    for h in (h_fix, h_ext):
        np.clip(h, 0.0, 1.0, out=h)
    a_all = solve("a_all", np.ones(len(transient)))
    chain._solutions = {
        "transient": transient,
        "h_fix": h_fix, "h_ext": h_ext,
        "u_fix": solve("u_fix", h_fix), "u_ext": solve("u_ext", h_ext),
        "a_all": a_all,
    }
    return chain._solutions


def fixation_exact(chain, config):
    """Probability of absorbing in the all-mutant state from a given set."""
    s = state_of(_checked(chain, config))
    if s == 0:
        return 0.0
    if s == chain.n_states - 1:
        return 1.0
    sol = _solutions(chain)
    return float(sol["h_fix"][s - 1])


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
    s = state_of(_checked(chain, config))
    if s == 0:
        return MeanTimes(float("nan"), 0.0, 0.0, fixation_defined=False)
    if s == chain.n_states - 1:
        return MeanTimes(0.0, float("nan"), 0.0, extinction_defined=False)
    sol = _solutions(chain)
    k = s - 1
    h, hbar = float(sol["h_fix"][k]), float(sol["h_ext"][k])
    t_fix = float(sol["u_fix"][k]) / h if h > 0 else float("nan")
    t_ext = float(sol["u_ext"][k]) / hbar if hbar > 0 else float("nan")
    return MeanTimes(
        fixation=t_fix,
        extinction=t_ext,
        absorption=float(sol["a_all"][k]),
        fixation_defined=h > 0,
        extinction_defined=hbar > 0,
    )


def _checked(chain, config):
    members = frozenset(int(v) for v in config)
    for v in members:
        if not (0 <= v < chain.n):
            raise ValueError(f"configuration vertex {v} outside 0..{chain.n - 1}")
    return members
