"""Smoke run of the benchmark harness against the engine in this checkout.

The tracer in perfbench/spans.py patches engine functions by name; a renamed
or removed function shows up as an absent span. This run fails the suite
when that happens, instead of silently dropping per-layer numbers. It also
fails when the runtime stops calling the traced kernels, which would leave
their per-layer times reading 0, and when the tape is no longer the sum of
its per-class parts or a quantized activation tapes its input again.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_is_correct_with_no_absent_spans(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.absent_spans"] == 0
    assert metrics["export.runtime.conv_ms"] > 0
    assert metrics["export.runtime.im2col_ms"] > 0
    if metrics["quantizer.act.fwd_calls"] > 0:  # a quantized workload
        assert metrics["export.runtime.act_ms"] > 0
    # the tape is the sum of the per-class tapes, and an activation that
    # follows a norm reads the norm's tape instead of taping its input
    per_class = sum(metrics[k + ".tape_mb"] for k in (
        "quantizer.act", "network.conv", "normalization.norm", "network.relu"))
    assert abs(metrics["network.tape_mb"] - per_class) <= 1e-6
    if metrics["quantizer.act.bwd_calls"] > 0:
        assert metrics["quantizer.act.tape_mb"] == 0
