"""The public surface, and one answer from every entry point to a bad rule or fitness."""

import dataclasses
import json
import re

import numpy as np
import pytest

import fixlab
from fixlab import (
    SolveOptions,
    bound_report,
    build_chain,
    estimate,
    feeder_pair_graph,
    fixation_exact,
    generate,
    mean_times_exact,
    mttf_lower_bound,
    solve,
    speedup_benchmark,
    state_of,
    trajectory,
    undirected_closed_form,
    upper_bound_single,
)
from fixlab.cli import main
from fixlab.dynamics import blocks

from .util import complete_graph

# names the benchmark scripts under bench/ call
BENCH_NAMES = (
    "step_values", "kernel_matrix", "neutral_part", "parse_rule",
    "default_thread_count", "solve", "SolveOptions", "trajectory",
    "mttf_lower_bound", "bound_report", "upper_bound_single",
    "degree_selection_class", "undirected_closed_form", "estimate",
    "build_chain", "fixation_exact", "mean_times_exact", "config_of",
    "load_graph", "is_strongly_connected",
)


def test_public_names_resolve():
    assert [name for name in fixlab.__all__ if not hasattr(fixlab, name)] == []
    assert [name for name in BENCH_NAMES if name not in fixlab.__all__] == []


@pytest.mark.parametrize("name", [
    "ProbabilityVector", "step", "bracket", "mttf_exact", "iterate", "expected_mutants",
    "validate", "expected_mutants_step_residual",
])
def test_removed_names_stay_gone(name):
    # init_vector gives the array, step_values steps it, report.bracket()
    # gives the bracket, mean_times_exact(build_chain(...)) the exact times,
    # the rows of blocks(...) the steps, np.sum(values) the mutant count and
    # the ValueError of EvolutionaryGraph(n, edges) the problems of a graph;
    # the mutant-count recurrence residual is a test reference in loop_iterate
    assert not hasattr(fixlab, name)
    assert name not in fixlab.__all__


# each call passes an option that is now a module constant, or leaves out
# the step count the engine requires
REMOVED_OPTIONS = {
    "SolveOptions stall_window": lambda: SolveOptions(stall_window=20),
    "speedup_benchmark fallback_stdev":
        lambda: speedup_benchmark(complete_graph(4), [0], mc_runs=4, fallback_stdev=1e-3),
    "generate retries": lambda: generate("erdos_renyi", 8, seed=1, retries=3),
    "feeder_pair_graph retries": lambda: feeder_pair_graph(5, seed=1, retries=3),
    "blocks without steps": lambda: blocks(complete_graph(4), "bd", np.eye(4)[0]),
}


@pytest.mark.parametrize("name", list(REMOVED_OPTIONS))
def test_removed_options_are_refused(name):
    with pytest.raises(TypeError):
        REMOVED_OPTIONS[name]()


def test_solve_options_have_five_fields():
    assert [f.name for f in dataclasses.fields(SolveOptions)] == [
        "rule", "epsilon", "criterion", "max_iters", "record_trajectory"]


GRAPH = complete_graph(4)

# entry point -> call taking (rule, r); kernel routes take no fitness
ENTRY_POINTS = {
    "solve": lambda rule, r: solve(GRAPH, [0], SolveOptions(rule=rule)),
    "trajectory": lambda rule, r: trajectory(GRAPH, [0], rule=rule, steps=3),
    "mttf_lower_bound": lambda rule, r: mttf_lower_bound(GRAPH, [0], rule=rule),
    "estimate": lambda rule, r: estimate(GRAPH, [0], rule=rule, r=r, runs=4),
    "build_chain": lambda rule, r: build_chain(GRAPH, rule=rule, r=r),
    "bound_report": lambda rule, r: bound_report(GRAPH, 0, r, rule),
}
KERNEL_ROUTES = ("solve", "trajectory", "mttf_lower_bound")
FITNESS_ROUTES = ("estimate", "build_chain", "bound_report")
CLI_COMMANDS = {
    "solve": "solve", "trajectory": "trajectory", "mttf_lower_bound": "mttf",
    "estimate": "simulate", "build_chain": "oracle", "bound_report": "bounds",
}


def _outcome(entry, rule, r):
    try:
        ENTRY_POINTS[entry](rule, r)
    except ValueError as exc:
        return str(exc)
    return None


def _cli(capsys, tmp_path, entry, rule, r):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(GRAPH.to_json()))
    argv = [CLI_COMMANDS[entry], "--graph", str(path), "--config", "[0]", "--rule", rule]
    if entry in FITNESS_ROUTES:
        argv += ["--r", repr(r)]
    if entry == "estimate":
        argv += ["--runs", "4"]
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("rule, r, entries, fragment", [
    ("bd-b", 1.0, KERNEL_ROUTES, "neutral only"),
    ("bd", float("nan"), FITNESS_ROUTES, "finite and positive"),
    ("ld", float("inf"), FITNESS_ROUTES, "finite and positive"),
    ("bd-b", 0.0, FITNESS_ROUTES, "finite and positive"),
    ("bd", 1.5, FITNESS_ROUTES, "bd-b or bd-d"),
    ("db", 1.5, FITNESS_ROUTES, "db-b or db-d"),
], ids=["biased-on-kernel", "nan-fitness", "inf-fitness", "zero-fitness",
        "bd-with-fitness", "db-with-fitness"])
def test_every_entry_point_gives_the_resolver_answer(capsys, tmp_path, rule, r, entries, fragment):
    messages = {entry: _outcome(entry, rule, r) for entry in entries}
    assert len(set(messages.values())) == 1, messages
    message = messages[entries[0]]
    assert message is not None and fragment in message
    for entry in entries:
        code, out = _cli(capsys, tmp_path, entry, rule, r)
        assert code == 1
        assert json.loads(out)["error"] == message


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_rule_names_are_case_insensitive_everywhere(capsys, tmp_path, entry):
    assert _outcome(entry, "BD", 1.0) == _outcome(entry, "bd", 1.0)
    upper, lower = (_cli(capsys, tmp_path, entry, name, 1.0)[0] for name in ("BD", "bd"))
    assert upper == lower


# undirected and unweighted, so the closed form applies
ER6 = generate("erdos_renyi", 6, seed=1, p=0.6, weighting="unweighted")
ER6_CHAIN = build_chain(ER6, "bd")

# function -> call taking one vertex id
ID_TAKERS = {
    "fixation_exact": lambda v: fixation_exact(ER6_CHAIN, [v]),
    "mean_times_exact": lambda v: mean_times_exact(ER6_CHAIN, [v]),
    "state_of": lambda v: state_of([v]),
    "upper_bound_single": lambda v: upper_bound_single(ER6, v, 2.0, "bd-b"),
    "undirected_closed_form": lambda v: undirected_closed_form(ER6, v),
}


@pytest.mark.parametrize("bad", [1.5, True, np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("name", list(ID_TAKERS))
def test_non_integer_vertex_ids_are_refused_not_truncated(name, bad):
    with pytest.raises(ValueError, match="is not an integer"):
        ID_TAKERS[name](bad)


@pytest.mark.parametrize("name", list(ID_TAKERS))
def test_numpy_integer_vertex_ids_give_the_int_answer(name):
    assert ID_TAKERS[name](np.int64(1)) == ID_TAKERS[name](1)


@pytest.mark.parametrize("name", ["fixation_exact", "upper_bound_single", "undirected_closed_form"])
def test_vertex_ids_outside_the_graph_get_the_configuration_message(name):
    with pytest.raises(ValueError, match=r"^configuration vertex -1 outside 0\.\.5$"):
        ID_TAKERS[name](-1)


def test_negative_state_ids_are_refused_by_name():
    with pytest.raises(ValueError, match=r"^vertex id -1 is negative$"):
        state_of([0, -1])


# call taking one step count -> the parameter its messages name; the
# answer is made comparable with ==
COUNT_TAKERS = {
    "SolveOptions max_iters": ("max_iters", lambda c: SolveOptions(max_iters=c)),
    "trajectory": ("steps", lambda c: trajectory(ER6, [0], steps=c).to_csv_text()),
    "mttf_lower_bound": ("max_iters", lambda c: mttf_lower_bound(ER6, [0], max_iters=c)),
    "speedup_benchmark": (
        "max_iters",
        lambda c: speedup_benchmark(ER6, [0], mc_runs=4, max_iters=c).solver_iterations),
    "blocks": ("steps", lambda c: np.concatenate(
        [block.copy() for block in blocks(ER6, "bd", np.eye(ER6.n)[0], c)]).tobytes()),
}


@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), "3"], ids=repr)
@pytest.mark.parametrize("name", list(COUNT_TAKERS))
def test_non_integer_step_counts_are_refused_by_name(name, bad):
    param, call = COUNT_TAKERS[name]
    with pytest.raises(ValueError, match=f"^{param} {re.escape(repr(bad))} is not an integer$"):
        call(bad)


@pytest.mark.parametrize("name", list(COUNT_TAKERS))
def test_numpy_integer_step_counts_give_the_int_answer(name):
    _, call = COUNT_TAKERS[name]
    assert call(np.int64(3)) == call(3)

