"""Solve a small fixation problem three ways and watch them agree.

Builds a 6-vertex weighted digraph, estimates the fixation probability
of a two-vertex mutant set by deterministic iteration, then checks the
answer against the exact absorbing-chain solution and a long simulation.
"""

import numpy as np

import fixlab as fx

edges = [
    (0, 1, 0.7), (0, 2, 0.3),
    (1, 2, 1.0),
    (2, 3, 0.5), (2, 0, 0.5),
    (3, 4, 0.6), (3, 5, 0.4),
    (4, 0, 1.0),
    (5, 4, 0.2), (5, 1, 0.8),
]
graph = fx.EvolutionaryGraph(6, edges)
config = [0, 3]

report = fx.solve(graph, config, fx.SolveOptions(rule="bd", epsilon=1e-10))
print(f"iterated estimate : {report.fixation:.10f}  "
      f"({report.iterations} iterations, half-range {report.half_range:.1e})")

chain = fx.build_chain(graph, rule="bd")
exact = fx.fixation_exact(chain, config)
print(f"exact chain value : {exact:.10f}  (gap {abs(report.fixation - exact):.2e})")

summary = fx.estimate(graph, config, rule="bd", runs=20000, seed=3)
print(f"simulated (20k)   : {summary.fixation_frequency:.4f} "
      f"+- {summary.std_error:.4f}")

lo, hi = report.bracket()
print(f"final bracket     : [{lo:.10f}, {hi:.10f}] holds the exact value: "
      f"{lo <= exact <= hi}")

times = fx.mean_times_exact(chain, config)
print(f"mean events to fixation {times.fixation:.2f}, "
      f"to extinction {times.extinction:.2f}, to absorption {times.absorption:.2f}")
