"""Pinned workload inputs, generated from a workload seed.

This module uses numpy and networkx only, never fixlab: the inputs must
not change when the program under test changes, and the program receives
nothing but the files written here. Each workload directory holds the
graph files (fixlab's JSON format) and ``manifest.json``, which lists
every question the workload asks, in order.

Random weights are drawn uniformly from [0.5, 1] per edge and normalised
per row. They are random enough that many rows have a float cumsum
ending below 1, but no vertex can have a near-zero temperature. With
weights from (0, 1], a vertex with tiny incoming weights made birth-death
relaxation and fixation times vary by 2-30x from seed to seed, so
``wall_s`` would have measured the seed rather than the code.
"""

import json
import zlib
from pathlib import Path

import networkx as nx
import numpy as np

WORKLOADS = ("iterate", "sweep", "simulate", "exact")

# Sizes are fixed per workload; a seed changes only which graphs and
# starting vertices are drawn.
FULL = {
    # (kind, BA size, rule, graphs): four graphs per converged loop, so
    # that the median question is one of many of about the same length
    # and no one graph's iteration count moves it
    "iterate": {"questions": (("solve", 50, "bd", 4), ("solve", 150, "db", 4),
                              ("solve", 125, "ld", 4), ("mttf", 100, "db", 4),
                              ("trajectory", 10000, "bd", 1)),
                "epsilon": 1e-6, "stop_stdev": 2.5e-6, "steps": 3000},
    # graphs per (size, kind) and singletons asked per bd or db graph:
    # the questions of one graph cost about the same, so many graphs with
    # few questions each keep one graph's iteration count from moving the
    # median or the tail question
    "sweep": {"n": tuple(range(6, 14)), "kinds": ("er", "nws"), "graphs": 8, "singletons": 3,
              "epsilon": 1e-6, "r": 1.5},
    "simulate": {
        "n": 100, "graphs": 5, "starts": 10,
        # (rule, fitness, runs per starting vertex): about one second per rule
        "rules": (("bd", 1.0, 3), ("bd-b", 1.5, 2), ("bd-d", 1.5, 2),
                  ("db-b", 1.5, 6), ("db-d", 1.5, 6), ("ld", 1.5, 4)),
    },
    "exact": {"n": 10, "edges": 23, "graphs": 3,
              "rules": (("bd", 1.0), ("db-b", 1.5), ("ld", 1.5))},
}

# Smoke sizes run all four workloads in seconds; they check the plumbing,
# not the performance.
SMOKE = {
    "iterate": {"questions": (("solve", 30, "bd", 2), ("solve", 60, "db", 2),
                              ("solve", 50, "ld", 2), ("mttf", 40, "db", 2),
                              ("trajectory", 200, "bd", 1)),
                "epsilon": 1e-4, "stop_stdev": 1e-3, "steps": 20},
    "sweep": {"n": (6, 7), "kinds": ("er",), "graphs": 2, "singletons": 2,
              "epsilon": 1e-5, "r": 1.5},
    "simulate": {"n": 12, "graphs": 1, "starts": 6, "rules": (("bd", 1.0, 2), ("bd-b", 1.5, 2), ("bd-d", 1.5, 2),
                                    ("db-b", 1.5, 2), ("db-d", 1.5, 2), ("ld", 1.5, 2))},
    "exact": {"n": 6, "edges": 9, "graphs": 1,
              "rules": (("bd", 1.0), ("db-b", 1.5), ("ld", 1.5))},
}


def rng_for(workload, seed):
    tag = zlib.crc32(workload.encode())
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _nx_seed(rng):
    return int(rng.integers(2**31 - 1))


def _edges(g, rng, weighted):
    """Both directions of every undirected edge, rows normalised to 1."""
    edges = []
    for v in range(g.number_of_nodes()):
        targets = sorted(g.neighbors(v))
        w = rng.uniform(0.5, 1.0, len(targets)) if weighted else np.ones(len(targets))
        w = w / w.sum()
        edges.extend([v, int(t), float(x)] for t, x in zip(targets, w))
    return edges


def _connected(make, rng):
    while True:
        g = make(_nx_seed(rng))
        if nx.is_connected(g):
            return g


def _write_graph(directory, name, g, rng, weighted):
    payload = {"n": g.number_of_nodes(), "edges": _edges(g, rng, weighted)}
    (directory / name).write_text(json.dumps(payload))
    return name


def _iterate(spec, rng, directory):
    questions = []
    for kind, n, rule, copies in spec["questions"]:
        for k in range(copies):
            g = nx.barabasi_albert_graph(n, 2, seed=_nx_seed(rng))
            name = _write_graph(directory, f"ba{n}_{k}.json", g, rng, True)
            q = {"kind": kind, "graph": name, "config": [int(rng.integers(n))], "rule": rule}
            if kind == "solve":
                q["epsilon"] = spec["epsilon"]
            elif kind == "mttf":
                q["stop_stdev"] = spec["stop_stdev"]
            else:
                q["steps"] = spec["steps"]
            questions.append(q)
    return questions


def _sweep(spec, rng, directory):
    """Singletons under one rule per graph, the rules taken in turn.

    An ld graph asks every singleton, so that their sum can be checked;
    a bd or db graph asks ``singletons`` of them, and a bd graph also asks
    ``bound_report`` at the same vertices. Every graph asks
    ``degree_selection_class``.
    """
    questions = []
    rules = ("bd", "db", "ld")
    index = 0
    for n in spec["n"]:
        for kind in spec["kinds"]:
            for k in range(spec["graphs"]):
                if kind == "er":
                    m = round(0.6 * n * (n - 1) / 2)
                    g = _connected(lambda s: nx.gnm_random_graph(n, m, seed=s), rng)
                else:
                    g = _connected(lambda s: nx.newman_watts_strogatz_graph(n, 4, 0.2, seed=s),
                                   rng)
                name = _write_graph(directory, f"{kind}{n}_{k}.json", g, rng, False)
                rule = rules[index % len(rules)]
                index += 1
                vertices = (range(n) if rule == "ld" else
                            sorted(int(v) for v in rng.choice(n, spec["singletons"],
                                                              replace=False)))
                for v in vertices:
                    questions.append({"kind": "solve", "graph": name, "config": [v],
                                      "rule": rule, "epsilon": spec["epsilon"]})
                if rule == "bd":
                    questions.extend({"kind": "bounds", "graph": name, "vertex": v,
                                      "rule": "bd-b", "r": spec["r"],
                                      "epsilon": spec["epsilon"]} for v in vertices)
                questions.append({"kind": "degree_class", "graph": name})
    return questions


def _simulate(spec, rng, directory):
    n = spec["n"]
    questions = []
    for k in range(spec["graphs"]):
        g = nx.barabasi_albert_graph(n, 2, seed=_nx_seed(rng))
        name = _write_graph(directory, f"ba{n}_{k}.json", g, rng, True)
        for v in sorted(int(v) for v in rng.choice(n, spec["starts"], replace=False)):
            runs = [{"rule": rule, "r": r, "runs": runs, "seed": _nx_seed(rng)}
                    for rule, r, runs in spec["rules"]]
            questions.append({"kind": "estimate", "graph": name, "config": [v], "rules": runs})
    return questions


def _exact(spec, rng, directory):
    n, m = spec["n"], spec["edges"]
    questions = []
    for k in range(spec["graphs"]):
        # G(n, M) rather than G(n, p): a fixed edge count keeps the chain's
        # fill, and so the factorization cost, steady across seeds
        g = _connected(lambda s: nx.gnm_random_graph(n, m, seed=s), rng)
        name = _write_graph(directory, f"er{n}_{k}.json", g, rng, True)
        questions.extend({"kind": "exact", "graph": name, "rule": rule, "r": r}
                         for rule, r in spec["rules"])
    return questions


_BUILDERS = {"iterate": _iterate, "sweep": _sweep, "simulate": _simulate, "exact": _exact}


def generate(workload, seed, directory, smoke=False):
    """Write the workload's graphs and manifest into ``directory``; return the manifest."""
    spec = (SMOKE if smoke else FULL)[workload]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    questions = _BUILDERS[workload](spec, rng_for(workload, seed), directory)
    for i, q in enumerate(questions):
        q["id"] = i
    graphs = sorted({q["graph"] for q in questions})
    edges = below_one = 0
    for name in graphs:
        rows = {}
        for src, _, w in json.loads((directory / name).read_text())["edges"]:
            rows.setdefault(src, []).append(w)
        edges += sum(len(ws) for ws in rows.values())
        below_one += sum(1 for ws in rows.values() if np.cumsum(ws)[-1] < 1.0)
    manifest = {"workload": workload, "seed": int(seed), "smoke": smoke,
                "graphs": graphs, "edges": edges, "rows_below_one": below_one,
                "questions": questions}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
