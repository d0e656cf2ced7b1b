"""Exact small-population ground truth via the full configuration chain.

Every subset of vertices is one state of a Markov chain whose moves
are single replacement events. States are encoded as bitmasks, little
endian by vertex id: bit i set means vertex i currently holds a
mutant. State 0 (no mutants) and state 2^n - 1 (all mutants) are the
absorbing ends. Fixation probabilities and conditional absorption
times then come from direct sparse linear solves over the transient
states, with no sampling error, which is what makes this module the
referee for both the iterative solver and the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import factorized

from .dynamics import Rule, neutral_part, resolve_rule

ORACLE_CAP = 16

ROW_SUM_TOL = 1e-12


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
    """
    rule = resolve_rule(rule, r)
    n = graph.n
    if n > cap:
        raise ValueError(f"population {n} above the exact-chain cap {cap}")
    needs_in = neutral_part(rule) is Rule.DB
    if needs_in and (graph.k_in == 0).any():
        missing = np.flatnonzero(graph.k_in == 0).tolist()
        raise ValueError(
            f"death-birth chain undefined: vertices {missing} have no incoming edges"
        )

    n_states = 1 << n
    full = n_states - 1
    rows, cols, vals = [], [], []

    def put(s, d, p):
        rows.append(s)
        cols.append(d)
        vals.append(p)

    edge_src = np.fromiter((e[0] for e in graph.edges), dtype=np.int64)
    edge_dst = np.fromiter((e[1] for e in graph.edges), dtype=np.int64)
    total_edges = len(graph.edges)

    for s in range(n_states):
        if s == 0 or s == full:
            put(s, s, 1.0)
            continue
        mutant = [(s >> v) & 1 for v in range(n)]
        m = sum(mutant)
        if rule in (Rule.BD, Rule.BD_B, Rule.BD_D):
            if rule is Rule.BD_D and r != 1.0:
                # breeder uniform, target by weight shaded toward weak targets
                for i in range(n):
                    targets, w = graph.out_neighbors(i)
                    inv_f = np.array([1.0 / r if mutant[j] else 1.0 for j in targets])
                    denom = float(np.sum(w * inv_f))
                    for j, wj, fj in zip(targets, w, inv_f):
                        d = _flip_to(s, int(j), mutant[i])
                        put(s, d, (1.0 / n) * (wj * fj / denom))
            else:
                # breeder by fitness, target by weight (BD-B; BD and BD-D at r=1)
                phi = r * m + (n - m)
                for i in range(n):
                    f_i = r if mutant[i] else 1.0
                    p_birth = (f_i / phi) if rule is Rule.BD_B else (1.0 / n)
                    targets, w = graph.out_neighbors(i)
                    for j, wj in zip(targets, w):
                        put(s, _flip_to(s, int(j), mutant[i]), p_birth * wj)
        elif rule in (Rule.DB, Rule.DB_B, Rule.DB_D):
            if rule is Rule.DB_D and r != 1.0:
                psi = m / r + (n - m)
                for i in range(n):
                    p_death = (1.0 / r if mutant[i] else 1.0) / psi
                    sources, _ = graph.in_neighbors(i)
                    share = 1.0 / len(sources)
                    for j in sources:
                        put(s, _flip_to(s, i, mutant[int(j)]), p_death * share)
            else:
                for i in range(n):
                    sources, _ = graph.in_neighbors(i)
                    if rule is Rule.DB_B and r != 1.0:
                        fit = np.array([r if mutant[int(j)] else 1.0 for j in sources])
                        denom = float(np.sum(fit))
                        for j, fj in zip(sources, fit):
                            put(s, _flip_to(s, i, mutant[int(j)]), (1.0 / n) * (fj / denom))
                    else:
                        share = 1.0 / (n * len(sources))
                        for j in sources:
                            put(s, _flip_to(s, i, mutant[int(j)]), share)
        else:  # LD, fitness biases the source side of the chosen edge
            fit_src = np.array([r if mutant[int(a)] else 1.0 for a in edge_src])
            phi = float(np.sum(fit_src))
            for a, b, fa in zip(edge_src, edge_dst, fit_src):
                put(s, _flip_to(s, int(b), mutant[int(a)]), fa / phi)

    chain = csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))),
        shape=(n_states, n_states),
    )
    chain.sum_duplicates()
    sums = np.asarray(chain.sum(axis=1)).ravel()
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL * max(1, total_edges))
    if bad.size:
        raise ArithmeticError(f"chain rows {bad[:5].tolist()} do not sum to 1")
    return ChainModel(n, rule, r, chain)


def _flip_to(state, vertex, make_mutant):
    bit = 1 << vertex
    return (state | bit) if make_mutant else (state & ~bit)


def _solutions(chain):
    """Solve the absorption systems once; reused across configurations.

    With Q the transient-to-transient block, h = (I - Q)^-1 b_fix gives
    fixation probabilities, (I - Q) u = h the fixation-weighted times,
    and (I - Q) a = 1 the absorption times. Conditional means are then
    u/h (fixation) and symmetric for extinction.
    """
    if chain._solutions is not None:
        return chain._solutions
    n_states = chain.n_states
    full = n_states - 1
    transient = np.arange(1, full)
    p = chain.transitions
    q = p[transient][:, transient].tocsc()
    b_fix = np.asarray(p[transient][:, full].todense()).ravel()
    b_ext = np.asarray(p[transient][:, 0].todense()).ravel()
    system = (identity(len(transient), format="csc") - q).tocsc()
    solve_sys = factorized(system)
    h_fix = solve_sys(b_fix)
    h_ext = solve_sys(b_ext)
    u_fix = solve_sys(h_fix)
    u_ext = solve_sys(h_ext)
    a_all = solve_sys(np.ones(len(transient)))
    chain._solutions = {
        "transient": transient,
        "h_fix": h_fix, "h_ext": h_ext,
        "u_fix": u_fix, "u_ext": u_ext,
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
    the value is NaN and the matching flag is False.
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
