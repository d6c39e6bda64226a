"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py

Every workload runs once untraced and once traced in smoke mode (one timed
cycle).  Each must print every metric BENCHMARK.json declares for that
mode, with its unit, and its correctness gate must find nothing wrong:
error_frac (failed / attempted) is 0.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_passes_the_gate(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "fuzz_small", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_metrics_from_a_known_span_tree():
    t = tracer.Tracer()
    # (name, parent, start, end) in seconds; ids are list positions
    spans = [
        ("op.fuzz", -1, 0.0, 10.0),
        ("fuzz.run_fuzz", 0, 1.0, 9.0),
        ("fuzz._sample_x", 1, 1.0, 3.0),
        ("linalg.as_square", 2, 1.5, 2.0),
        ("checks.check_x", 1, 3.0, 8.0),
        ("checks._finish", 4, 4.0, 7.0),
        ("numpy.linalg.eigvalsh", 5, 5.0, 6.0),
    ]
    for name, parent, start, end in spans:
        t.name.append(t._id(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    got = tracer.layer_metrics(t, trials=1, evals=0)
    assert got["sampling.ms_per_trial"] == 2000.0
    assert got["linalg.validate_calls_per_trial"] == 1
    assert got["linalg.validate_ms_per_trial"] == 500.0
    assert got["linalg.eig_calls_per_trial"] == 1
    assert got["linalg.eig_ms_per_trial"] == 1000.0
    assert got["checks.finish_ms_per_trial"] == 3000.0
    assert got["checks.self_ms_per_trial"] == 4000.0      # (5 - 3) + (3 - 1)
    assert got["fuzz.driver_self_ms_per_trial"] == 1000.0  # 8 - 2 - 5
    assert got["linalg.numerical_radius_ms_per_call"] == 0.0


def test_clock_scales_times_by_the_nearby_kernel_times(monkeypatch):
    # each calibration takes the fastest of three kernel runs
    kernel = iter([2e-3] * 3 + [4e-3] * 3 + [9e-3] * 3 + [1e-3] * 3 + [5e-3] * 3)
    monkeypatch.setattr(workloads, "_kernel_s", lambda: next(kernel))
    monkeypatch.setattr(workloads, "CAL_EVERY_S", 1e9)
    monkeypatch.setattr(workloads, "CAL_WINDOW", 2)
    clock = workloads.Clock()
    first, last = [], []
    clock.record(first, 0.3)       # between calibrations 0 and 1
    for _ in range(3):
        clock.calibrate()
    clock.record(last, 0.3)        # between calibrations 3 and 4
    clock.calibrate()
    clock.finish()
    assert clock.kernel_s == [2e-3, 4e-3, 9e-3, 1e-3, 5e-3]
    # 0.3 s while the kernel took 3 ms is 0.1 s where it takes CAL_REF_S;
    # the neighbours of the first are 2, 4 and 9 ms, of the last 9, 1 and 5 ms
    assert first == [pytest.approx(0.3 * workloads.CAL_REF_S / 4e-3)]
    assert last == [pytest.approx(0.3 * workloads.CAL_REF_S / 5e-3)]


def test_uninstall_restores_every_patched_function():
    import numpy as np
    from opineq import checks, fuzz, linalg, maps

    before = (linalg.as_square, np.linalg.eigh, fuzz.FUZZ_SAMPLERS["norm_chain"],
              checks.REGISTRY["norm_chain"], maps.MapSpec.__dict__["compression"],
              checks.InstanceSpec.__post_init__, json.loads)
    t = tracer.Tracer()
    t.install()
    try:
        with t.op(tracer.OP_FUZZ):
            report = fuzz.run_fuzz("norm_chain", trials=3, dims=(3,), seed=1).reports[-1]
    finally:
        t.uninstall()
    after = (linalg.as_square, np.linalg.eigh, fuzz.FUZZ_SAMPLERS["norm_chain"],
             checks.REGISTRY["norm_chain"], maps.MapSpec.__dict__["compression"],
             checks.InstanceSpec.__post_init__, json.loads)
    assert all(a is b for a, b in zip(before, after))
    assert report.verdict == checks.HOLDS
    assert len(t.name) > 3 and t.cur == -1
