#!/usr/bin/env python3
"""Smoke test of the benchmark itself, run from the root of a checkout:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for two seconds (--seconds also
shortens the warm-up and the ladder rungs), untraced and traced, and checks that the result line names every
end-to-end (untraced) or per-layer (traced) metric with its unit. Then
checks that the correctness gates fire: a corrupted fingerprint and a
swallowed reply must each make the command exit non-zero without a result.
Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.getcwd()


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "2",
               "--trace", str(trace), *extra]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_result(workload, trace, proc, expected, failures):
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = result_line(proc.stdout)
    if result is None:
        failures.append(f"{label}: last line is not a JSON result")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["attempted"] < 1:
        failures.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        failures.append(f"{label}: metrics {sorted(metrics)} differ from "
                        f"{sorted(m['name'] for m in expected)}")
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"]:
            failures.append(f"{label}: {metric['name']} unit {got.get('unit')}"
                            f" != {metric['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {metric['name']} value {value!r}")
    print(f"ok: {label} prints {len(metrics)} metrics")


def check_gate(workload, inject, failures):
    proc = run(workload, 0, "--inject", inject)
    label = f"{workload} --inject {inject}"
    if proc.returncode == 0 or result_line(proc.stdout) is not None:
        failures.append(f"{label}: expected a non-zero exit and no result, got "
                        f"exit {proc.returncode}")
    elif "correctness gate failed" not in proc.stderr:
        failures.append(f"{label}: failed for another reason: "
                        f"{proc.stderr[-500:]}")
    else:
        print(f"ok: {label} fails the run")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(workload, 0, run(workload, 0), spec["end_to_end"], failures)
        check_result(workload, 1, run(workload, 1), spec["per_layer"], failures)
        check_gate(workload, "corrupt-fingerprint", failures)
        if workload.startswith("tcp_"):
            check_gate(workload, "drop-reply", failures)
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
