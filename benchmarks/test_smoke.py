"""Smoke tests of the benchmark itself, on the tiny case (N=8, Nt=10).

Run from the root of a checkout:

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NT = 10


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _check_printed(proc: subprocess.CompletedProcess, kind: str) -> dict:
    """The result line holds exactly the declared metrics of ``kind``."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    assert list(result["metrics"]) == list(declared)
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) >= 3}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert printed.get(name) == declared[name], f"{name} not printed"
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_every_end_to_end_metric_is_printed_with_its_unit():
    values = _check_printed(
        _run("--workload", "tiny", "--seed", "3", "--seconds", "0.5",
             "--trace", "0"), "end_to_end")
    assert all(v > 0 for v in values.values())


def test_every_layer_metric_is_printed_and_counts_are_exact():
    values = _check_printed(
        _run("--workload", "tiny", "--seed", "3", "--seconds", "0.5",
             "--trace", "1"), "per_layer")
    assert values["fractional.l1_weights.calls"] == NT
    assert values["fractional.l1_weights.terms"] == NT * (NT + 1) / 2
    assert values["stepper.solve_bordered.calls"] == NT
    assert values["stepper.march.calls"] == 1
    assert values["stepper.blow_ups"] == 0
    assert values["trace_coverage"] >= 0.9


def _traced(fc, ops, min_ops: int) -> dict:
    original = fc.cli.main
    run = worker.measure(fc, ops, 0.0, min_ops, spans.Tracer())
    assert fc.cli.main is original, "wrapped names were not restored"
    assert run["plain"]["failed"] == 0 and run["traced"]["failed"] == 0
    return run["traced"]


def _traced_counts() -> dict:
    fc = worker.import_fracheat()
    traced = _traced(fc, workloads.tiny_ops(fc, 0), 3)
    assert traced["absent"] == []
    return {k: v for k, v in traced["layers"].items()
            if k.endswith((".calls", ".terms", ".blow_ups"))}


def test_counts_repeat_exactly_between_runs():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert first["fractional.l1_weights.calls"] == NT
    assert first["fractional.l1_weights.terms"] == NT * (NT + 1) / 2


def test_wrong_reference_marks_the_op_failed():
    fc = worker.import_fracheat()
    op = workloads.tiny_ops(fc, 0)[0]
    right = worker.measure(fc, [op], 0.0, 2)["plain"]
    assert right["failed"] == 0 and len(right["times"]) == 2
    full, peak = workloads.TINY_REFERENCE
    wrong = workloads.Op(tuple(
        workloads.Call(c.argv, workloads.check_solve(full * 1.2, peak), c.sizes)
        for c in op.calls))
    run = worker.measure(fc, [wrong], 0.0, 2)["plain"]
    assert run["attempted"] == 2 and run["failed"] == 2
    assert run["times"] == []
    assert "err_full_peak" in run["notes"][0]


def test_every_call_is_bracketed_by_its_reference_march():
    fc = worker.import_fracheat()
    ops = workloads.tiny_ops(fc, 0)
    run = worker.measure(fc, ops, 0.0, 3, ref_stride=1)["plain"]
    assert len(run["ref_times"]) == len(run["times"]) == 3
    assert run["attempted"] == 4, "the warm-up op's check counts too"
    assert all(t > 0 for t in run["ref_times"])
    traced = worker.measure(fc, ops, 0.0, 1, spans.Tracer(), ref_stride=1)
    assert traced["plain"]["ref_times"] == []


def test_missing_function_is_an_absent_layer(monkeypatch):
    ghost = spans.Layer("stepper.ghost", (("fracheat.stepper", "no_such"),
                                          ("fracheat.no_such_module", "f")))
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + (ghost,))
    fc = worker.import_fracheat()
    traced = _traced(fc, workloads.tiny_ops(fc, 0), 1)
    assert traced["absent"] == ["stepper.ghost"]
    assert traced["layers"]["stepper.ghost.calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "tiny", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
