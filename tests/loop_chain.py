"""Per-state loop build of the exact chain, the sliced absorption solve
and the pinned system, kept as test references.

``loop_transitions`` is the original event-by-event enumeration that
``build_chain`` replaced with array operations. It walks every state,
every drawn vertex and every neighbor, so it is slow but easy to check
against the rule semantics; the tests require the array build to give
the same nonzero pattern and the same entries up to float64 rounding.

``sliced_solutions`` solves the absorption systems the oracle solved
before it pinned the absorbing rows: I - Q, with Q the transient block
sliced out of the chain, and P's column of the full state as the
fixation right-hand side. It solves them by sparse LU, which shares no
solver code with the oracle, or as the oracle did, each by
``checked_solve`` from zeros. LU fill grows fast with the state count
(58M entries and over a minute on a 14-vertex star), and BiCGSTAB from
zeros on this system's extinction-weighted times stalls on the directed
5-cycle under db-b.

``pinned_system`` forms the one matrix of the oracle's four solves, the
pinned I - P, which the oracle itself never forms: it solves on the
chain's even half and takes each residual from P.
"""

import numpy as np
from scipy.sparse import csr_matrix, diags, identity
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import splu

from fixlab import Rule, resolve_rule
from fixlab.linear import CsrOperator, checked_solve


def loop_transitions(graph, rule=Rule.BD, r=1.0):
    """Transition matrix over all 2^n states, one event at a time."""
    rule = resolve_rule(rule, r)
    n = graph.n
    n_states = 1 << n
    full = n_states - 1
    rows, cols, vals = [], [], []

    def put(s, d, p):
        rows.append(s)
        cols.append(d)
        vals.append(p)

    edge_src = np.fromiter((e[0] for e in graph.edges), dtype=np.int64)
    edge_dst = np.fromiter((e[1] for e in graph.edges), dtype=np.int64)

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
    return chain


def _flip_to(state, vertex, make_mutant):
    bit = 1 << vertex
    return (state | bit) if make_mutant else (state & ~bit)


def states_reaching(chain, end):
    """Boolean mask of the states of ``chain`` from which state ``end`` is reached.

    The chain-level search the oracle once ran before its first solve: a
    breadth-first search from ``end`` over the transposed transition
    matrix marks every state that can reach it.
    """
    reached = np.zeros(chain.n_states, dtype=bool)
    order = breadth_first_order(chain.transitions.T.tocsr(), end, return_predecessors=False)
    reached[order] = True
    return reached


def chain_absorbs(chain):
    """True iff every state of ``chain`` reaches the empty or the full state."""
    return bool((states_reaching(chain, 0) | states_reaching(chain, chain.n_states - 1)).all())


def pinned_system(chain):
    """I - P over every state, with the rows of the empty and the full
    state pinned to the identity: one sparse subtraction, no copy of the
    transient block. Every row has a nonzero diagonal: 1 on the pinned
    rows, and 1 - p_ss > 0 on a transient row, also where P holds no
    entry there (a state with no null event)."""
    pin = np.ones(chain.n_states)
    pin[[0, -1]] = 2.0  # 2 - 1: an absorbing row of P is its own self-loop
    return diags(pin, format="csr") - chain.transitions


def transient_system(chain):
    """(I - Q), Q the transient block of ``chain``, and the transient rows of P."""
    transient = np.arange(1, chain.n_states - 1)
    p = chain.transitions[transient]
    return (identity(len(transient), format="csr") - p[:, transient]).tocsr(), p


def sliced_solutions(chain, lu=True):
    """h_fix, h_ext, a_all, u_fix and u_ext over the transient states,
    solved against ``transient_system`` by one sparse LU factorization, or
    with ``lu=False`` each by ``checked_solve`` from zeros."""
    system, p = transient_system(chain)
    if lu:
        solve = splu(system.tocsc()).solve
    else:
        def solve(rhs):
            return checked_solve(CsrOperator(system), rhs, "sliced")[0]
    transient = np.arange(1, chain.n_states - 1)
    h_fix = np.clip(solve(p[:, [chain.n_states - 1]].toarray().ravel()), 0.0, 1.0)
    h_ext = 1.0 - h_fix
    h_ext[(~transient & chain.source) == 0] = 0.0
    return {"h_fix": h_fix, "h_ext": h_ext, "a_all": solve(np.ones(len(transient))),
            "u_fix": solve(h_fix), "u_ext": solve(h_ext)}
