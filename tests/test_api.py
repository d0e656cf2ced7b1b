"""The public surface, and one answer from every entry point to a bad rule or fitness."""

import json

import pytest

import fixlab
from fixlab import (
    SolveOptions,
    bound_report,
    build_chain,
    estimate,
    mttf_lower_bound,
    solve,
    trajectory,
)
from fixlab.cli import main

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
