"""Self-test of the benchmark: output schema and metric names.

Runs the tiny ``smoke`` workload (a European and an N=1 timer) once
untraced and once traced; takes a few seconds:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results() -> dict:
    """Result lines of an untraced and a traced run, run side by side."""
    procs = {trace: subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed",
         "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for trace in (0, 1)}
    out = {}
    try:
        for trace, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            out[trace] = json.loads(stdout.strip().splitlines()[-1])
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    return out


def _check(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])


def test_end_to_end_metrics(results):
    result = results[0]
    _check(result, DECLARED["end_to_end"])
    metrics = result["metrics"]
    assert metrics["priced_frac"]["value"] == 1.0
    assert 0.0 <= metrics["err_rel_max"]["value"] < 1e-2
    assert metrics["wall_s"]["value"] > 0.0
    assert metrics["setup_s"]["value"] > 0.0


def test_per_layer_metrics(results):
    result = results[1]
    _check(result, DECLARED["per_layer"])
    metrics = result["metrics"]
    # Two Fourier inversions per pass: the European and the timer's base.
    assert metrics["quadrature.fourier_invert_1d.calls"]["value"] == 2
    assert metrics["transforms.log_h.calls"]["value"] > 0
    assert metrics["specfun.self_s"]["value"] > 0.0
