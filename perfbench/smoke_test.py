"""Tiny-size smoke test of the benchmark: every workload, untraced and
traced, at 5% input size; each must exit 0, report no failure, and print
every metric BENCHMARK.json names with its unit.

    python3 perfbench/smoke_test.py          # or: python3 -m pytest perfbench/smoke_test.py

Takes about two minutes on four cores (each run starts Ray three times).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload: str) -> None:
    spec = _spec()
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        out = _run(workload, trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
        want = {m["name"]: m["unit"] for m in listed}
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        assert got == want, (workload, trace, set(got) ^ set(want))
        for name, m in out["metrics"].items():
            assert isinstance(m["value"], (int, float)), (name, m)


def test_every_workload_prints_its_metrics():
    for w in _spec()["workloads"]:
        check_workload(w["name"])


if __name__ == "__main__":
    for w in _spec()["workloads"]:
        check_workload(w["name"])
        print(f"ok {w['name']}", flush=True)
