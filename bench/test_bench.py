"""Self-tests of the benchmark: reference checks, metric output, and where it writes.

    python3 -m pytest -q bench/test_bench.py

The smoke runs use ``--smoke`` inputs, so the whole file takes about a
minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import fixlab  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from questions import ASK  # noqa: E402
from tracing import direct  # noqa: E402

TEST_OUT = run.OUT / "test"


def answer_all(workload):
    directory = TEST_OUT / workload
    manifest = inputs.generate(workload, 7, directory, smoke=True)
    graphs = {name: fixlab.load_graph(str(directory / name)) for name in manifest["graphs"]}
    raw = {name: json.loads((directory / name).read_text()) for name in manifest["graphs"]}
    answers, evidence = {}, {}
    for q in manifest["questions"]:
        answers[q["id"]], evidence[q["id"]] = ASK[q["kind"]](direct, graphs, q)
    return manifest["questions"], answers, evidence, graphs, raw


def test_iterate_checks_catch_perturbed_answers():
    questions, answers, _, graphs, raw = answer_all("iterate")
    assert checks.check("iterate", questions, answers, graphs, raw) == {}
    for q in questions:
        bad = copy.deepcopy(answers)
        a = bad[q["id"]]
        if q["kind"] == "solve":
            a["fixation"] += 10 * q["epsilon"]
        elif q["kind"] == "mttf":
            a["normalizer"] += 0.1
        else:
            a["min"][-1] = a["min"][0] - 1e-6
        assert q["id"] in checks.check("iterate", questions, bad, graphs, raw)


def test_sweep_checks_catch_perturbed_answers():
    questions, answers, _, graphs, raw = answer_all("sweep")
    assert checks.check("sweep", questions, answers, graphs, raw) == {}
    by_kind = {}
    for q in questions:
        by_kind.setdefault((q["kind"], q.get("rule")), q)
    for (kind, rule), q in by_kind.items():
        bad = copy.deepcopy(answers)
        a = bad[q["id"]]
        if kind == "solve":
            a["fixation"] += 10 * q["epsilon"]
        elif kind == "bounds":
            a["upper"] *= 0.99
        else:
            a["labels"] = a["labels"] + ["neutral"]
        assert q["id"] in checks.check("sweep", questions, bad, graphs, raw), (kind, rule)


def test_simulate_check_catches_impossible_frequencies():
    questions, answers, _, graphs, raw = answer_all("simulate")
    assert checks.check("simulate", questions, answers, graphs, raw) == {}
    bad = copy.deepcopy(answers)
    for q in questions:
        for a in bad[q["id"]]["rules"][:1]:  # every run of the first rule fixates
            a["fixations"] = a["runs"]
    assert set(checks.check("simulate", questions, bad, graphs, raw)) == {q["id"] for q in questions}


def test_exact_check_catches_perturbed_answers():
    questions, answers, evidence, _, _ = answer_all("exact")
    for q in questions:
        assert checks.exact_chain(q, answers[q["id"]], evidence[q["id"]]) is None
        bad = copy.deepcopy(answers[q["id"]])
        bad["fixation"][0] += 1e-6
        assert checks.exact_chain(q, bad, evidence[q["id"]]) is not None


def test_probe_scale_is_nominal_over_mean_duration():
    import probe
    probes = [(0.0, probe.NOMINAL_S), (1.0, 1.0 + 3 * probe.NOMINAL_S)]
    assert probe.scale(probes) == pytest.approx(0.5)
    latency = run.latency_metrics([[1.0, 3.0], [2.0, 6.0], [1.5, 4.5]], [1.0, 0.5, 2 / 3])
    assert latency["wall_s"][0] == pytest.approx(4.0)
    assert latency["answer_p50_ms"][0] == pytest.approx(2000.0)


def snapshot():
    """Every file of the repository outside the benchmark's directory."""
    skip = {BENCH, ROOT / ".git", ROOT / ".pytest_cache"}
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if Path(dirpath, d) not in skip]
        for name in filenames:
            st = Path(dirpath, name).stat()
            files[str(Path(dirpath, name))] = (st.st_mtime_ns, st.st_size)
    return files


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("bench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def printed(stdout, names):
    """Each name appears on its own metric line, followed by value and unit."""
    lines = stdout.splitlines()
    for name, unit in names.items():
        assert any(line.split()[1:2] == [name] and line.split()[3:4] == [unit]
                   for line in lines if len(line.split()) >= 4), name


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    before = snapshot()
    done = bench("--workload", workload, "--smoke", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr[-3000:]
    assert snapshot() == before
    printed(done.stdout, {**run.END_TO_END, "failed_ratio": "1"})
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_smoke_traced_run_prints_every_layer_metric():
    before = snapshot()
    done = bench("--workload", "exact", "--smoke", "--trace", "1")
    assert done.returncode == 0, done.stderr[-3000:]
    assert snapshot() == before
    printed(done.stdout, {**run.PER_LAYER, **run.LAYER_FACTS, "trace_overhead_s": "s"})
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER


def test_refuses_to_run_without_a_checkout():
    bare = TEST_OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    done = bench("--workload", "sweep", cwd=bare)
    assert done.returncode != 0
    assert not done.stdout.strip()
