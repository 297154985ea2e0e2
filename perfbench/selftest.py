"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs `perfbench/run.py --tiny` with
and without tracing and checks that:

* the last line is the result object with exactly the keys `correct`,
  `attempted`, `failed` and `metrics`, the run is correct and no op failed;
* the untraced run emits every `end_to_end` metric and the traced run every
  `per_layer` metric of BENCHMARK.json, each with its unit and nothing else;
* a second seed changes the inputs (their digest) but not the metric set.

It also checks that the benchmark exits with an error and prints no result
in a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
    return result, info


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for wl in (w["name"] for w in spec["workloads"]):
        digests, metric_sets = [], []
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            proc = run(ROOT, wl, seed, trace)
            tag = f"{wl} seed {seed} trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result, info = parse(proc)
            if set(result) != RESULT_KEYS:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                              f"attempted={result['attempted']} {info.get('problems')}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(units.items()))
                extra = sorted(set(units.items()) - set(expected[trace].items()))
                errors.append(f"{tag}: missing {missing}, unexpected {extra}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float))]
            if bad:
                errors.append(f"{tag}: non-numeric values {bad}")
            if trace == 0:
                digests.append(info["input_digest"])
                metric_sets.append(set(units))
            print(f"ok {tag}" if not errors else f".. {tag}", flush=True)
        if len(set(digests)) != 2:
            errors.append(f"{wl}: seeds 1 and 2 gave the same inputs {digests}")
        if len(metric_sets) == 2 and metric_sets[0] != metric_sets[1]:
            errors.append(f"{wl}: seeds 1 and 2 emitted different metric sets")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 1, 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print("ok bare directory exits", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for err in errors:
        print("FAIL", err)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
