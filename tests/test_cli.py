import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from fixlab import __version__, cli, graphs, load_graph
from fixlab.cli import main
from fixlab.linear import RESIDUAL_TOL

from . import loop_ingest
from .loop_chain import loop_transitions


@pytest.fixture()
def two_cycle_file(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1.0], [1, 0, 1.0]]}))
    return str(path)


@pytest.fixture()
def weak_file(tmp_path):
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(
        {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 1, 1.0]]}
    ))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ------------------------------------------------------------- solve


def test_solve_json(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "solve", "--graph", two_cycle_file, "--config", "[0]",
        "--epsilon", "1e-9",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["fixation"] == pytest.approx(0.5, abs=1e-9)
    assert payload["converged"] is True
    assert payload["manifest"]["command"] == "solve"
    assert payload["manifest"]["config"] == [0]


def test_solve_empty_config_is_zero(capsys, two_cycle_file):
    code, out = run_cli(capsys, ["solve", "--graph", two_cycle_file, "--config", "[]"])
    assert code == 0
    assert json.loads(out)["fixation"] == 0.0


def test_solve_weak_graph_exits_two(capsys, weak_file):
    code, out = run_cli(capsys, ["solve", "--graph", weak_file, "--config", "[0]"])
    assert code == 2
    assert json.loads(out)["error"] == "not_strongly_connected"


def test_solve_rejects_biased_rule(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "solve", "--graph", two_cycle_file, "--config", "[0]", "--rule", "bd-b",
    ])
    assert code == 1
    assert "neutral kernels" in json.loads(out)["error"]


def test_solve_writes_convergence_csv(capsys, two_cycle_file, tmp_path):
    dest = tmp_path / "conv.csv"
    code, out = run_cli(capsys, [
        "solve", "--graph", two_cycle_file, "--config", "[0]",
        "--out", str(dest),
    ])
    assert code == 0
    assert json.loads(out)["trajectory_csv"] == str(dest)
    assert dest.read_text().startswith("t,min,max,avg,stdev,ex")


# ------------------------------------------------------------- trajectory


def test_trajectory_csv_to_stdout(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "trajectory", "--graph", two_cycle_file, "--config", "[0]",
        "--steps", "4",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,min,max,avg,stdev,ex"
    assert len(lines) == 6


def test_trajectory_on_weak_graph_is_allowed(capsys, weak_file):
    code, out = run_cli(capsys, [
        "trajectory", "--graph", weak_file, "--config", "[0]", "--steps", "3",
    ])
    assert code == 0
    assert out.startswith("t,min,max")


def test_trajectory_out_file(capsys, two_cycle_file, tmp_path):
    dest = tmp_path / "tr.csv"
    code, out = run_cli(capsys, [
        "trajectory", "--graph", two_cycle_file, "--config", "[0]",
        "--steps", "2", "--out", str(dest),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 3
    assert payload["final_expected_mutants"] == pytest.approx(1.0)
    assert dest.read_text().count("\n") == 4


# ------------------------------------------------------------- generate


def test_generate_writes_loadable_graph(capsys, tmp_path):
    dest = tmp_path / "g.json"
    code, out = run_cli(capsys, [
        "generate", "--generate", "er:n=10,p=0.5", "--seed", "3",
        "--out", str(dest),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["strongly_connected"] is True
    g = load_graph(str(dest))
    assert g.n == 10


def test_generate_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, ["generate", "--generate", "ba:n=12,seed=9", "--out", str(a)])
    run_cli(capsys, ["generate", "--generate", "ba:n=12,seed=9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_generate_inline_payload(capsys):
    code, out = run_cli(capsys, ["generate", "--generate", "er:n=6,p=0.6,seed=2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"]["n"] == 6


def test_generate_bad_spec(capsys):
    code, out = run_cli(capsys, ["generate", "--generate", "er:p=0.5"])
    assert code == 1
    assert "n" in json.loads(out)["error"]

    code, out = run_cli(capsys, ["generate", "--generate", "zz:n=5"])
    assert code == 1
    assert "unknown generator" in json.loads(out)["error"]


@pytest.mark.parametrize("argv", [
    ["generate", "--generate", "er:n=10,p=0"],
    ["solve", "--generate", "er:n=6,p=0.01", "--config", "[0]"],
])
def test_a_generator_that_finds_no_connected_graph_prints_the_error(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"].startswith(
        "erdos_renyi generator produced no connected graph in 100 attempts")


# ------------------------------------------------------------- simulate


def test_simulate_summary(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "simulate", "--graph", two_cycle_file, "--config", "[0]",
        "--runs", "100", "--seed", "5",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["runs"] == 100
    assert payload["mean_fixation_time"] == pytest.approx(1.0)
    assert 0.0 <= payload["fixation_frequency"] <= 1.0


def test_simulate_biased(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "simulate", "--graph", two_cycle_file, "--config", "[0]",
        "--rule", "bd-b", "--r", "2.0", "--runs", "200", "--seed", "1",
    ])
    assert code == 0
    payload = json.loads(out)
    # true value is 2/3; a 200-run estimate lands nearby
    assert 0.5 <= payload["fixation_frequency"] <= 0.85


def test_simulate_manifest_records_the_applied_cap_and_rule(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "simulate", "--graph", two_cycle_file, "--config", "[0]",
        "--rule", "BD", "--runs", "20", "--seed", "3",
    ])
    assert code == 0
    first = json.loads(out)
    manifest = first["manifest"]
    assert manifest["steps"] == 1_000_000 * 2
    assert manifest["rule"] == "bd"
    # the manifest alone replays the run
    argv = ["simulate"]
    for key in ("graph", "config", "rule", "r", "runs", "seed", "steps"):
        argv += [f"--{key}", json.dumps(manifest[key]) if key == "config" else str(manifest[key])]
    code, out = run_cli(capsys, argv)
    assert code == 0
    again = json.loads(out)
    assert again["manifest"] == manifest
    assert {k: v for k, v in again.items() if k != "wall_time"} == {
        k: v for k, v in first.items() if k != "wall_time"}

    code, out = run_cli(capsys, [
        "simulate", "--graph", two_cycle_file, "--config", "[0]",
        "--rule", "ld", "--r", "1.5", "--runs", "5", "--steps", "7",
    ])
    assert code == 0
    manifest = json.loads(out)["manifest"]
    assert (manifest["rule"], manifest["r"], manifest["steps"]) == ("ld", 1.5, 7)


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_simulate_event_cap_below_one_exits_one(capsys, two_cycle_file, steps):
    code, out = run_cli(capsys, [
        "simulate", "--graph", two_cycle_file, "--config", "[0]",
        "--runs", "3", "--steps", steps,
    ])
    assert code == 1
    assert json.loads(out)["error"] == f"per-run event cap must be at least 1, got {steps}"


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize("r", ["1e308", "1e-308"])
def test_a_fitness_that_overflows_the_totals_exits_one(capsys, two_cycle_file, command, r):
    # simulate once printed "cannot convert float NaN to integer" here
    code, out = run_cli(capsys, [
        command, "--graph", two_cycle_file, "--config", "[0]", "--rule", "bd-b", "--r", r,
    ])
    assert code == 1
    assert json.loads(out)["error"] == (
        f"fitness r = {float(r)} overflows the event totals on this graph: "
        "r*n*|E| and n*|E|/r must be finite (n = 2, |E| = 2)")


def test_solve_replays_from_its_own_manifest(capsys, tmp_path):
    path = str(tmp_path / "g.json")
    assert main(["generate", "--generate", "ba:n=20,m=2,seed=7", "--out", path]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, [
        "solve", "--graph", path, "--config", "[9, 2]", "--rule", "DB",
        "--epsilon", "1e-10", "--criterion", "stdev",
    ])
    assert code == 0
    first = json.loads(out)
    manifest = first["manifest"]
    assert (manifest["rule"], manifest["config"], manifest["version"]) == ("db", [2, 9], __version__)
    argv = [manifest["command"]]
    for key, value in manifest.items():
        if key not in ("command", "version"):
            argv += [f"--{key}", json.dumps(value) if key == "config" else str(value)]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out) == first


@pytest.mark.parametrize("argv", [
    ["solve", "--config", "[0]", "--rule", "BD"],
    ["trajectory", "--config", "[0]", "--rule", "Ld", "--out", "{out}"],
    ["simulate", "--config", "[0]", "--rule", "DB-B", "--r", "1.5", "--runs", "5"],
    ["compare", "--config", "[0]", "--rule", "Bd", "--runs", "20", "--out", "{out}"],
    ["oracle", "--config", "[0]", "--rule", "LD", "--r", "2"],
    ["mttf", "--config", "[0]", "--rule", "DB"],
    ["bounds", "--config", "[0]", "--rule", "BD-D", "--r", "1.5"],
    ["amplifier"],
])
def test_every_manifest_records_the_version_and_the_canonical_rule(
        capsys, two_cycle_file, tmp_path, argv):
    argv = [a.format(out=tmp_path / "out.csv") for a in argv]
    code, out = run_cli(capsys, argv + ["--graph", two_cycle_file])
    assert code == 0
    manifest = json.loads(out)["manifest"]
    assert manifest["version"] == __version__
    if "--rule" in argv:
        assert manifest["rule"] == argv[argv.index("--rule") + 1].lower()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_threads_flag_is_refused(capsys, two_cycle_file, command):
    # exit 1, as any bad input: 2 is kept for a graph that is not strongly connected
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", two_cycle_file, "--config", "[0]", "--threads", "2"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --threads 2" in captured.err
    assert captured.err.startswith("usage: fixlab")
    assert json.loads(captured.out) == {"error": "unrecognized arguments: --threads 2"}


@pytest.mark.parametrize("command", ["solve", "trajectory", "amplifier"])
def test_an_unknown_flag_is_refused_with_the_usage_of_its_command(capsys, two_cycle_file, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", two_cycle_file, "--threads", "2"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage: fixlab {command} [-h]")
    assert f"fixlab {command}: error: unrecognized arguments: --threads 2" in captured.err
    assert json.loads(captured.out) == {"error": "unrecognized arguments: --threads 2"}


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["generate"], "the following arguments are required: --generate"),
    (["solve", "--criterion", "mean"], "argument --criterion: invalid choice: 'mean'"),
    (["trajectory", "--steps", "ten"], "argument --steps: invalid int value: 'ten'"),
])
def test_every_argparse_refusal_exits_1_with_a_json_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: fixlab")
    assert json.loads(captured.out)["error"].startswith(message)


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fixlab")


def test_solve_gives_the_same_fixation_on_a_generated_graph_and_its_file(capsys, tmp_path):
    spec = "ba:n=30,m=2,seed=3,weighting=random"
    path = str(tmp_path / "g.json")
    code, _ = run_cli(capsys, ["generate", "--generate", spec, "--out", path])
    assert code == 0
    answers = []
    for source in (["--generate", spec], ["--graph", path]):
        code, out = run_cli(capsys, [
            "solve", *source, "--config", "[0]", "--epsilon", "1e-10",
        ])
        assert code == 0
        answers.append(json.loads(out))
    assert answers[0]["fixation"] == answers[1]["fixation"]
    assert answers[0]["iterations"] == answers[1]["iterations"]


# ------------------------------------------------------------- oracle


def test_oracle_exact_values(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "oracle", "--graph", two_cycle_file, "--config", "[0]",
        "--rule", "bd-b", "--r", "2.0",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["fixation"] == pytest.approx(2.0 / 3.0)
    assert payload["mean_fixation_time"] == pytest.approx(1.0)


def test_oracle_reports_its_solve(capsys):
    code, out = run_cli(capsys, [
        "oracle", "--generate", "ba:n=10,m=2", "--config", "[0]",
        "--rule", "bd-b", "--r", "1.5",
    ])
    assert code == 0
    solve = json.loads(out)["solve"]
    assert (solve["method"], solve["preconditioner"]) == ("bicgstab", "jacobi")
    assert solve["system"] == "even-parity Schur complement"
    assert solve["system_states"] == 2**9
    assert set(solve["iterations"]) == {"h_fix", "a_all", "u_fix", "u_ext"}
    assert all(k >= 1 for k in solve["iterations"].values())
    assert 0.0 <= solve["max_residual"] <= solve["residual_bound"] == RESIDUAL_TOL


def test_oracle_on_a_chain_that_never_absorbs_exits_one(capsys, tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"n": 4, "edges": [
        [0, 1, 1.0], [1, 0, 1.0], [2, 3, 1.0], [3, 2, 1.0],
    ]}))
    code, out = run_cli(capsys, ["oracle", "--graph", str(path), "--config", "[0]"])
    assert code == 1
    assert "never reach fixation or extinction" in json.loads(out)["error"]


@pytest.mark.parametrize("rule", ["bd", "bd-b"])
def test_oracle_on_a_sink_vertex_exits_one(capsys, tmp_path, rule):
    path = tmp_path / "sink.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 0.5], [0, 2, 0.5], [1, 0, 1.0]]}))
    code, out = run_cli(capsys, [
        "oracle", "--graph", str(path), "--config", "[0]", "--rule", rule,
    ])
    assert code == 1
    assert "vertices [2] have no outgoing edges" in json.loads(out)["error"]


def test_oracle_answers_where_the_chain_absorbs_without_strong_connectivity(capsys, tmp_path):
    # vertex 2 is a sink, so solve and simulate refuse the graph (exit 2);
    # the oracle refuses only chains that never absorb, and this one does
    edges = [[0, 1, 0.5], [0, 2, 0.5], [1, 0, 1.0]]
    path = tmp_path / "sink.json"
    path.write_text(json.dumps({"n": 3, "edges": edges}))
    argv = ["--graph", str(path), "--config", "[0]", "--rule", "db"]
    for command in ("solve", "simulate"):
        code, out = run_cli(capsys, [command, *argv])
        assert code == 2
        assert json.loads(out)["error"] == "not_strongly_connected"
    code, out = run_cli(capsys, ["oracle", *argv])
    assert code == 0
    # dense absorption solve of the per-state loop build: state 0b001 to fixation
    p = loop_transitions(load_graph(str(path)), "db").toarray()
    transient = np.arange(1, 7)
    h = np.linalg.solve(np.eye(6) - p[np.ix_(transient, transient)], p[transient, 7])
    assert json.loads(out)["fixation"] == pytest.approx(h[0], abs=1e-12)
    # {0, 1} is the source component: all mutant, extinction cannot happen
    argv[3] = "[0, 1]"
    code, out = run_cli(capsys, ["oracle", *argv])
    assert code == 0
    assert json.loads(out)["mean_extinction_time"] is None


def test_oracle_neutral_rejects_fitness(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "oracle", "--graph", two_cycle_file, "--config", "[0]",
        "--rule", "bd", "--r", "2.0",
    ])
    assert code == 1


# ------------------------------------------------------------- mttf


def test_mttf_with_trace(capsys, two_cycle_file, tmp_path):
    dest = tmp_path / "mttf.csv"
    code, out = run_cli(capsys, [
        "mttf", "--graph", two_cycle_file, "--config", "[0]", "--out", str(dest),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["lower_bound"] == pytest.approx(1.0)
    assert dest.read_text().startswith("t,P_min,increment,running_sum")


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
def test_mttf_non_finite_epsilon_exits_one(capsys, two_cycle_file, epsilon):
    code, out = run_cli(capsys, [
        "mttf", "--graph", two_cycle_file, "--config", "[0]", "--epsilon", epsilon,
    ])
    assert code == 1
    assert "must be finite" in json.loads(out)["error"]


def test_mttf_weak_graph_exits_two(capsys, weak_file):
    code, out = run_cli(capsys, ["mttf", "--graph", weak_file, "--config", "[0]"])
    assert code == 2
    assert json.loads(out)["error"] == "not_strongly_connected"


# ------------------------------------------------------------- bounds


def test_bounds_json(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "bounds", "--graph", two_cycle_file, "--config", "[0]",
        "--rule", "bd-b", "--r", "2.0",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == pytest.approx(0.5, abs=1e-5)
    assert payload["upper"] == pytest.approx(2.0 / 3.0)
    assert payload["vacuous_upper"] is False


def test_bounds_requires_singleton(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "bounds", "--graph", two_cycle_file, "--config", "[0, 1]",
        "--rule", "bd-b", "--r", "1.5",
    ])
    assert code == 1
    assert "single-vertex" in json.loads(out)["error"]


def test_bounds_rejects_undecided_rule(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "bounds", "--graph", two_cycle_file, "--config", "[0]",
        "--rule", "bd", "--r", "1.5",
    ])
    assert code == 1


# ------------------------------------------------------------- amplifier


def test_amplifier_star(capsys, tmp_path):
    star = tmp_path / "star.json"
    edges = []
    for leaf in range(1, 5):
        edges.append([0, leaf, 0.25])
        edges.append([leaf, 0, 1.0])
    star.write_text(json.dumps({"n": 5, "edges": edges}))
    code, out = run_cli(capsys, ["amplifier", "--graph", str(star)])
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"][0] == "suppressor"
    assert payload["labels"][1:] == ["amplifier"] * 4
    assert payload["degree_threshold"] == pytest.approx(1.0 / 0.85)


@pytest.mark.parametrize("n, edges", [
    # two components, and an edge beside an isolated vertex
    (4, [[0, 1, 1.0], [1, 0, 1.0], [2, 3, 1.0], [3, 2, 1.0]]),
    (3, [[0, 1, 1.0], [1, 0, 1.0]]),
])
def test_amplifier_on_a_disconnected_graph_exits_two(capsys, tmp_path, n, edges):
    path = tmp_path / "apart.json"
    path.write_text(json.dumps({"n": n, "edges": edges}))
    code, out = run_cli(capsys, ["amplifier", "--graph", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == "not_strongly_connected"


def test_amplifier_on_a_single_vertex_exits_one(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "edges": []}))
    code, out = run_cli(capsys, ["amplifier", "--graph", str(path)])
    assert code == 1
    assert "at least 2 vertices" in json.loads(out)["error"]


# ------------------------------------------------------------- compare


def test_compare_csv(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "compare", "--graph", two_cycle_file, "--config", "[0]",
        "--runs", "50", "--seed", "2",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,rule,r,mc_time,solver_time,speedup"
    cells = lines[1].split(",")
    assert cells[0] == "2" and cells[1] == "bd"


def test_compare_weak_graph_exits_two(capsys, weak_file):
    code, out = run_cli(capsys, ["compare", "--graph", weak_file, "--config", "[0]", "--runs", "4"])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "not_strongly_connected"
    assert payload["detail"].startswith("speedup benchmark requires")


def test_compare_out_file(capsys, two_cycle_file, tmp_path):
    dest = tmp_path / "bench.csv"
    code, out = run_cli(capsys, [
        "compare", "--graph", two_cycle_file, "--config", "[0]",
        "--runs", "50", "--seed", "2", "--out", str(dest),
    ])
    assert code == 0
    payload = json.loads(out)
    assert "speedup" in payload
    assert dest.read_text().startswith("n,rule,r,")


# ------------------------------------------------------------- plumbing


def test_graph_and_generate_conflict(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "solve", "--graph", two_cycle_file, "--generate", "er:n=5",
        "--config", "[0]",
    ])
    assert code == 1
    assert "not both" in json.loads(out)["error"]


def test_missing_graph(capsys):
    code, out = run_cli(capsys, ["solve", "--config", "[0]"])
    assert code == 1


def test_config_from_file(capsys, two_cycle_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[0]")
    code, out = run_cli(capsys, [
        "solve", "--graph", two_cycle_file, "--config", str(cfg),
    ])
    assert code == 0
    assert json.loads(out)["fixation"] == pytest.approx(0.5, abs=1e-5)


def test_unknown_rule(capsys, two_cycle_file):
    code, out = run_cli(capsys, [
        "solve", "--graph", two_cycle_file, "--config", "[0]", "--rule", "xx",
    ])
    assert code == 1


# option string -> (default, choices, type, required), per subcommand
GRAPH_FLAGS = {
    "--graph": (None, None, None, False),
    "--generate": (None, None, None, False),
    "--seed": (0, None, int, False),
}
CONFIG_FLAG = {"--config": (None, None, None, False)}
RULE_R = {"--rule": ("bd", None, None, False), "--r": (1.0, None, float, False)}
OUT = {"--out": (None, None, None, False)}
FLAGS = {
    "generate": {"--generate": (None, None, None, True), "--seed": (0, None, int, False), **OUT},
    "solve": {
        **GRAPH_FLAGS, **CONFIG_FLAG, **OUT,
        "--rule": ("bd", None, None, False),
        "--epsilon": (1e-6, None, float, False),
        "--criterion": ("range", ("range", "stdev"), None, False),
    },
    "trajectory": {
        **GRAPH_FLAGS, **CONFIG_FLAG, **OUT,
        "--rule": ("bd", None, None, False),
        "--steps": (100, None, int, False),
    },
    "simulate": {
        **GRAPH_FLAGS, **CONFIG_FLAG, **RULE_R,
        "--runs": (2000, None, int, False),
        "--steps": (None, None, int, False),
    },
    "compare": {**GRAPH_FLAGS, **CONFIG_FLAG, **RULE_R, **OUT, "--runs": (2000, None, int, False)},
    "oracle": {**GRAPH_FLAGS, **CONFIG_FLAG, **RULE_R},
    "mttf": {
        **GRAPH_FLAGS, **CONFIG_FLAG, **OUT,
        "--rule": ("bd", None, None, False),
        "--epsilon": (2.5e-6, None, float, False),
    },
    "bounds": {
        **GRAPH_FLAGS, **CONFIG_FLAG, **RULE_R,
        "--rule": ("bd-b", None, None, False),
        "--epsilon": (1e-6, None, float, False),
    },
    "amplifier": GRAPH_FLAGS,
}


def test_every_subcommand_keeps_its_flags():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(FLAGS)
    for name, parser in sub.choices.items():
        flags = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            (option,) = action.option_strings
            flags[option] = (action.default, action.choices, action.type, action.required)
        assert flags == FLAGS[name], name


TWO_CYCLE_EDGES = "[[0, 1, 1.0], [1, 0, 1.0]]"


@pytest.mark.parametrize("graph_text, config, fragment", [
    ('{"n": 2, "edges": [[0, 1, NaN], [1, 0, 1.0]]}', "[0]", "non-finite weight"),
    ('{"n": 2, "edges": [[0, 1, Infinity], [1, 0, 1.0]]}', "[0]", "non-finite weight"),
    ('{"edges": ' + TWO_CYCLE_EDGES + "}", "[0]", '"n"'),
    ('{"n": 2.5, "edges": ' + TWO_CYCLE_EDGES + "}", "[0]", "2.5 is not an integer"),
    ('{"n": 2, "edges": [[0, 1.7, 1.0], [1, 0, 1.0]]}', "[0]", "1.7 is not an integer"),
    ('{"n": 2, "edges": ' + TWO_CYCLE_EDGES + "}", "[1.7]", "1.7 is not an integer"),
    ('{"n": 2, "edges": ' + TWO_CYCLE_EDGES + "}", "[true]", "True is not an integer"),
], ids=["nan-weight", "inf-weight", "no-n", "fractional-n", "fractional-edge-id",
        "fractional-config", "boolean-config"])
def test_bad_input_exits_one_with_a_message(capsys, tmp_path, graph_text, config, fragment):
    path = tmp_path / "bad.json"
    path.write_text(graph_text)
    code, out = run_cli(capsys, ["solve", "--graph", str(path), "--config", config])
    assert code == 1
    assert fragment in json.loads(out)["error"]


@pytest.mark.parametrize("edges, fragment", [
    ("[[0, 1, null], [1, 0, 1.0]]", "non-numeric weight None"),
    ('[[0, 1, "heavy"], [1, 0, 1.0]]', "non-numeric weight 'heavy'"),
    ("[[0, 1], [1, 0, 1.0]]", "is not a [src, dst, weight] triple"),
], ids=["null-weight", "string-weight", "pair"])
def test_malformed_edge_exits_one_with_a_message(capsys, tmp_path, edges, fragment):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "edges": ' + edges + "}")
    code, out = run_cli(capsys, ["oracle", "--graph", str(path), "--config", "[0]"])
    assert code == 1
    assert fragment in json.loads(out)["error"]


def test_console_script_entry(two_cycle_file):
    proc = subprocess.run(
        [sys.executable, "-m", "fixlab.cli", "solve",
         "--graph", two_cycle_file, "--config", "[0]"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["fixation"] == pytest.approx(0.5, abs=1e-5)


def test_compare_in_a_fresh_interpreter_times_no_first_use_import():
    # scipy.sparse loads in the kernel's build, which compare runs before
    # its timer, so the iteration side times its steps alone; with the
    # import inside the timer this read a speedup of about 1
    proc = subprocess.run(
        [sys.executable, "-m", "fixlab.cli", "compare", "--generate", "er:n=8,p=0.5,seed=3",
         "--config", "[0]", "--runs", "2000", "--seed", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert float(dict(zip(header.split(","), row.split(",")))["speedup"]) > 10


def test_scipy_loads_on_first_kernel_or_chain_build(tmp_path):
    # networkx is imported by the graph generators alone, on first use,
    # and scipy.sparse by the first kernel or chain build; scipy's csgraph
    # (which brings sparse.linalg and scipy.linalg) is never imported, the
    # oracle's solves included; each step below checks what the calls
    # before it loaded
    path = tmp_path / "triangle.json"
    edges = [[a, b, 0.5] for a in range(3) for b in range(3) if a != b]
    path.write_text(json.dumps({"n": 3, "edges": edges}))
    code = """
import contextlib, io, sys
import fixlab, fixlab.cli

def scipy_free(after):
    loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
    assert not loaded, (after, loaded[:5])

scipy_free("import")
graph = fixlab.load_graph(sys.argv[1])
scipy_free("load_graph")
assert fixlab.estimate(graph, [0], "bd-d", 1.5, runs=20, seed=1).runs == 20
fixlab.simulate_run(graph, [0], "db-b", 1.5, seed=1)
scipy_free("estimate and simulate_run")
assert abs(fixlab.undirected_closed_form(graph, 0).fixation - 1 / 3) < 1e-12
assert fixlab.degree_selection_class(graph) == ["neutral"] * 3
assert 0 < fixlab.upper_bound_single(graph, 0, 1.5, "bd-b") <= 1
scipy_free("closed form, degree classes and upper bound")
for argv in (["simulate", "--config", "[0]", "--runs", "20"], ["amplifier"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert fixlab.cli.main(argv + ["--graph", sys.argv[1]]) == 0
scipy_free("CLI simulate and amplifier")
assert "networkx" not in sys.modules

two = fixlab.EvolutionaryGraph(2, [(0, 1, 1.0), (1, 0, 1.0)])
assert abs(fixlab.solve(two, [0]).fixation - 0.5) < 1e-6
assert "scipy.sparse" in sys.modules and "scipy.sparse.csgraph" not in sys.modules
chain = fixlab.build_chain(two, "bd")
assert abs(fixlab.fixation_exact(chain, [0]) - 0.5) < 1e-12
assert fixlab.mean_times_exact(chain, [0]).extinction_defined
assert "scipy.sparse.csgraph" not in sys.modules and "scipy.linalg" not in sys.modules
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("spec", [
    "ba:n=30,m=2,seed=3",
    "er:n=25,p=0.3,seed=5,weighting=unweighted",
    "nws:n=40,k=4,p=0.2,seed=2",
])
def test_generated_graph_file_is_the_loop_ingests(monkeypatch, capsys, tmp_path, spec):
    path = tmp_path / "g.json"
    assert main(["generate", "--generate", spec, "--out", str(path)]) == 0
    # the same generator edges through the per-edge ingest, as save_graph writes it
    monkeypatch.setattr(graphs, "EvolutionaryGraph", loop_ingest.LoopGraph)
    ref = cli._parse_generate_spec(spec, 0)
    assert path.read_text() == json.dumps(ref.to_json(), indent=1) + "\n"
