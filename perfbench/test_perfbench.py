"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import driver  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.PLANNERS)


def _counts(workload: str, seed: int, sessions: int = 6):
    """Program-side counts of a short traced run."""
    plan = workloads.PLANNERS[workload](seed, sessions)
    tracer = layers.LayerTracer()
    runner = driver.Runner(plan, tracer)
    runner.setup()
    tracer.install()
    try:
        runner.run(sessions=sessions)
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.failures
    return (
        plan.stream_digest(),
        tracer.counters[layers.AUFS][0],  # copy-ups
        tracer.counters[layers.SQL][3],  # rows scanned
        tracer.count("minisql"),  # statements executed
        tuple(tracer.calls),
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_stream_and_counts(workload):
    first = _counts(workload, 7)
    assert _counts(workload, 7) == first
    assert _counts(workload, 8)[0] != first[0]
    _digest, copy_ups, rows_scanned, statements, _calls = first
    assert copy_ups > 0
    if workload == "delegate_files":
        assert rows_scanned == statements == 0
    else:
        assert rows_scanned > 0 and statements > 0


def test_tracer_restores_every_wrapped_function():
    before = {(owner, name): owner.__dict__.get(name) for _l, owner, name in layers.targets()}
    assert len(before) > 60
    _counts("delegate_sessions", 1, sessions=2)
    for (owner, name), original in before.items():
        assert owner.__dict__.get(name) is original, f"{owner.__name__}.{name} still wrapped"
        assert not hasattr(getattr(owner, name), "__wrapped__")


def _run(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(capsys, workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = _run(capsys, workload, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    # Every row of the prediction table that calls its layers active on
    # this workload measures work there (from the last, traced, run).
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for names, _moves, active, _unchanged in metrics.PREDICTIONS:
        if workload in active:
            assert any(values[name] > 0 for name in names), names
    if workload == "delegate_files":
        assert values["minisql.statements_per_op"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_long_operations_are_bracketed_by_the_control(workload):
    plan = workloads.PLANNERS[workload](4, 2)
    runner = driver.Runner(plan, control=driver.CpuControl())
    runner.setup()
    runner.run(sessions=2)
    assert runner.failed == 0, runner.failures
    assert workloads.LAUNCH in plan.bracketed and workloads.COMMIT in plan.bracketed
    for cls in workloads.CLASSES:
        brackets = runner.brackets[cls]
        assert len(brackets) == len(runner.samples[cls]) > 0
        assert all((b is None) == (cls not in plan.bracketed) for b in brackets), cls
    assert all(c > 0 for c in runner.setup_controls)
    assert len(runner.setup_seconds(metrics.CONTROL_REFERENCE_MS)) == len(runner.setups)


def test_peak_memory_is_taken_when_the_first_epoch_ends():
    plan = workloads.PLANNERS["delegate_files"](4, 2)
    runner = driver.Runner(plan, control=driver.CpuControl())
    runner.setup()
    assert runner.first_epoch_rss_mb is None
    runner.run(seconds=0.5)
    assert runner.epochs > 0 and runner.failed == 0, runner.failures
    assert 0 < runner.first_epoch_rss_mb == runner.peak_rss_mb() <= driver.peak_rss_mb()


def test_one_command_runs_every_workload():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "2",
         "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{workload}.{name}" for workload in WORKLOADS for name, *_rest in metrics.END_TO_END
    }


def test_benchmark_json_matches_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(metrics.WORKLOADS.items())
    assert run.WORKLOADS == tuple(metrics.WORKLOADS) == tuple(workloads.PLANNERS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    named = {n for names, *_rest in metrics.PREDICTIONS for n in names}
    assert named <= {m["name"] for m in spec["per_layer"]}


def test_a_planted_wrong_result_fails_the_run(capsys, monkeypatch):
    from repro.kernel.syscall import Syscalls

    original = Syscalls.read_file
    calls = {"n": 0}

    def corrupt_one_read(self, path):
        data = original(self, path)
        calls["n"] += 1
        return data[:-1] + b"?" if calls["n"] == 40 else data

    monkeypatch.setattr(Syscalls, "read_file", corrupt_one_read)
    code, result = _run(capsys, "delegate_files", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delegate_files", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
