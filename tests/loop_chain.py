"""Per-state loop build of the exact chain, kept as the test reference.

This is the original event-by-event enumeration that ``build_chain``
replaced with array operations. It walks every state, every drawn
vertex and every neighbor, so it is slow but easy to check against
the rule semantics; the tests require the array build to give the same
nonzero pattern and the same entries up to float64 rounding.
"""

import numpy as np
from scipy.sparse import csr_matrix

from fixlab import Rule, resolve_rule


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
