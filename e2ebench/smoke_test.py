#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 e2ebench/smoke_test.py

Runs every workload in BENCHMARK.json once untraced and once traced, in
smoke mode (one-second phases, a tiny search preset, one repetition per
timing), and checks that:

  * both modes complete with exit code 0 and a result line whose keys are
    exactly correct / attempted / failed / metrics, with correct == true;
  * the untraced run emits every end_to_end metric and the traced run
    every per_layer metric, each with the unit BENCHMARK.json declares;
  * every metric name matches [A-Za-z0-9_.-]+;
  * each workload's `why` restates the frozen overload rate and latency
    limit that the run's context line reports.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload: str, trace: str) -> tuple:
    """Run one smoke workload; returns (context, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["context"], json.loads(lines[-1])


def check_result(res: dict, expected: list, label: str) -> list:
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(res)}")
    if res.get("correct") is not True:
        errors.append(f"{label}: correct is {res.get('correct')}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        errors.append(f"{label}: attempted {res.get('attempted')}")
    metrics = res.get("metrics", {})
    for name in metrics:
        if not NAME.fullmatch(name):
            errors.append(f"{label}: bad metric name {name!r}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"{label}: missing {m['name']}")
        elif got.get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {got.get('unit')!r} "
                          f"!= {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)):
            errors.append(f"{label}: {m['name']} value {got.get('value')!r}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{label}: undeclared metrics {sorted(extra)}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for spec in (bench["end_to_end"], bench["per_layer"]):
        for m in spec:
            if not NAME.fullmatch(m["name"]):
                errors.append(f"BENCHMARK.json: bad metric name {m['name']!r}")
    for wl in bench["workloads"]:
        ctx, res = run(wl["name"], "0")
        errors += check_result(res, bench["end_to_end"], f"{wl['name']} trace=0")
        frozen = ctx.get("overload", {})
        for key, unit in (("rps", "rps"), ("latency_limit_ms", "ms")):
            if key in frozen and f"{frozen[key]:g} {unit}" not in wl["why"]:
                errors.append(f"{wl['name']}: why does not state "
                              f"{frozen[key]:g} {unit}")
        _, res = run(wl["name"], "1")
        errors += check_result(res, bench["per_layer"], f"{wl['name']} trace=1")
    for e in errors:
        print("FAIL", e)
    print("smoke test:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
