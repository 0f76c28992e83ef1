"""Self-test of the benchmark: ``python3 -m pytest perfbench -q`` from the repository root.

Smoke-size runs of every workload, traced and untraced, must print every
metric that ``BENCHMARK.json`` names, with its unit.  Input generation must
be a pure function of the seed.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, proc.stdout
    return last


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0.2", "--trace", trace)
    metrics = result(proc)["metrics"]
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: value["unit"] for name, value in metrics.items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(value["value"], float | int) for value in metrics.values())
    if trace == "0":
        assert all(value["value"] > 0 for value in metrics.values())
        assert "failed_ratio" in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_inputs_are_a_function_of_the_seed(workload):
    chosen = workloads.WORKLOADS[workload]
    first = workloads.inputs_digest(chosen, 7)
    assert workloads.inputs_digest(chosen, 7) == first
    assert workloads.inputs_digest(chosen, 8) != first


def test_bounded_vs_exact_on_the_recursive_acceptance_corpus():
    import tracing
    from stgames.harness import CorpusSpec

    spec = CorpusSpec(seed=42, count=100, allow_recursion=True, unroll_depth=4)
    tracer = tracing.Tracer()
    counted = run.Run(None, tracer)
    tracer.install()
    try:
        counted.op(workloads.CorpusOp(spec))
    finally:
        tracer.uninstall()
    assert (counted.attempted, counted.failed) == (1, 0)
    assert tracer.bounded_vs_exact() == (42, 100)


def check_large_op() -> workloads.CliOp:
    chosen = workloads.WORKLOADS["check-large"]
    return chosen.make_op(chosen.shape(random.Random(1), 0), ("a", "b", "c", "d", "e", "f"))


def test_a_wrong_verdict_counts_as_failed():
    op = check_large_op()
    op.expect = "non-compliant" if op.expect == "compliant" else "compliant"
    counted = run.Run(None)
    counted.op(op)
    assert (counted.attempted, counted.failed) == (1, 1)


@pytest.mark.parametrize("command", ["es", "eager", "search"])
def test_an_error_exit_of_export_or_agree_counts_as_failed(command):
    op = workloads.WORKLOADS["deep-unroll"].make_op((0, command, 3), ("a", "b", "c", "d"))
    outcome = op.check((2, "error: something went wrong\n"))
    assert outcome.status == "failed"


def test_a_non_ok_op_against_the_reference_counts_as_failed(monkeypatch):
    op = check_large_op()
    golden = [op.check(op.run()).fingerprint]
    monkeypatch.setattr(op, "check", lambda result: workloads.Outcome("indeterminate", "state limit"))
    counted = run.Run(golden)
    counted.op(op)
    assert (counted.attempted, counted.failed, counted.indeterminate) == (1, 1, 0)


def test_a_traced_run_refuses_missing_entry_points(monkeypatch):
    import tracing

    monkeypatch.delattr(tracing.estructure, "remainder")
    assert tracing.absent() == ["stgames.estructure.remainder"]
    with pytest.raises(LookupError):
        tracing.Tracer().install()


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "corpus-finite", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
