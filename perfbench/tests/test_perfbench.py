"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""

import ast
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import instrument  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def _results(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def smoke():
    proc = _bench("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return _results(proc.stdout)


def test_smoke_runs_every_workload_in_both_modes(smoke):
    assert len(smoke) == 2 * len(run.WORKLOADS)
    for result in smoke:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    untraced, traced = smoke[0::2], smoke[1::2]
    for result in untraced:
        assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for result in traced:
        assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]


def test_traced_counts_repeat_exactly():
    def counts(workload):
        proc = _bench("--smoke", "--workload", workload, "--trace", "1")
        metrics = _results(proc.stdout)[-1]["metrics"]
        return {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "B")}

    for workload in ("operad", "tables"):
        first = counts(workload)
        assert any(first.values())
        assert counts(workload) == first


def test_benchmark_json_names_the_measured_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    began = time.monotonic()
    proc = _bench("--workload", "algebra", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not _results(proc.stdout)
    assert time.monotonic() - began < 60


def test_recurrence_matches_the_values_vendored_in_the_tests():
    source = ROOT / "tests" / "test_acceptance.py"
    if not source.exists():
        pytest.skip("the acceptance tests are not in this checkout")
    tree = ast.parse(source.read_text())
    vendored = next(ast.literal_eval(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "LARGE_SCHROEDER")
    assert reference.schroeder_numbers(len(vendored)) == vendored
    assert tuple(vendored) == reference.VENDORED_SCHROEDER


def test_text_invariants():
    assert reference.letters("x[x y]^2 z") == ["x", "x", "y", "z"]
    assert reference.bracket_power("[x[y]^3]^2x") == 5
    assert reference.letters(reference.splice("x[x]y", 2, "[z]z")) == ["x", "z", "z", "y"]


def test_self_time_excludes_child_spans():
    tracer = instrument.Tracer()

    def leaf():
        time.sleep(0.01)

    leaf = tracer.wrap_span("a.leaf", leaf)

    def outer(depth):
        if depth:
            return outer(depth - 1)
        leaf()
        time.sleep(0.01)

    outer = tracer.wrap_span("a.outer", outer)
    outer(3)
    summary = tracer.summary()
    assert summary["calls"] == {"a.leaf": 1, "a.outer": 4}
    assert summary["spans"] == 2  # the recursive calls open no span
    assert 0.009e9 < summary["self_ns"]["a.outer"] < summary["total_ns"]["a.outer"]
    assert summary["self_ns"]["a.leaf"] == summary["total_ns"]["a.leaf"]
    assert summary["root_ns"] == summary["total_ns"]["a.outer"]


def test_tail_keeps_ten_samples_beyond_it():
    pct = stats.tail_percentile([100, 120])
    assert pct == 90.0
    assert stats.percentile(list(range(200)), pct) == 179
    assert stats.tail_percentile([76_000]) == stats.TAIL_CAP
    assert stats.fit_exponent({1: [1.0], 2: [4.0], 4: [16.0, 16.0, 99.0]}) == pytest.approx(2.0)
