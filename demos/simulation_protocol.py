"""A reproducible simulation protocol, from pilot run to final answer.

Pilot-estimates a fixation probability, sizes the full experiment from
the pilot value and a target standard error, runs it with a fixed seed,
and cross-checks against deterministic iteration. The same seed always
reproduces the same numbers, bit for bit.
"""

import fixlab as fx

graph = fx.generate("erdos_renyi", 40, seed=7, weighting="random", p=0.15)
config = [0]
rule, r = "bd-b", 1.3

pilot = fx.estimate(graph, config, rule=rule, r=r, runs=400, seed=100)
print(f"pilot ({pilot.runs} runs): frequency {pilot.fixation_frequency:.4f} "
      f"+- {pilot.std_error:.4f}")

target = 0.01
needed = fx.required_runs(pilot.fixation_frequency, target)
print(f"runs needed for SE <= {target}: {needed.runs}")

final = fx.estimate(graph, config, rule=rule, r=r, runs=needed.runs, seed=101)
print(f"final ({final.runs} runs): frequency {final.fixation_frequency:.4f} "
      f"+- {final.std_error:.4f}, mean events to fixation "
      f"{final.mean_fixation_time:.0f}")

neutral = fx.solve(graph, config, fx.SolveOptions(rule="bd", epsilon=1e-8))
upper = fx.upper_bound_single(graph, config[0], r, rule)
print(f"neutral lower bound {neutral.fixation:.4f} <= observed "
      f"{final.fixation_frequency:.4f} <= formula upper bound {upper:.4f}")

again = fx.estimate(graph, config, rule=rule, r=r, runs=needed.runs, seed=101)
print(f"rerun with seed 101 reproduces frequency exactly: "
      f"{again.fixation_frequency == final.fixation_frequency}")
