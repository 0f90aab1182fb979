"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced at a tiny size, one
process each, and checks that every named metric comes out with its unit
and that no job failed.  Exits 1 and names the problem otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def smoke(workload, trace):
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seconds", "0",
               "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"exit code {done.returncode}: {(lines or [done.stderr])[-1][:500]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"failed_ratio {result['failed']}/{result['attempted']}")
    expected = LAYER_METRICS if trace else END_TO_END
    for name, unit in expected.items():
        metric = result["metrics"].get(name)
        if metric is None or metric.get("unit") != unit or not isinstance(metric.get("value"), (int, float)):
            problems.append(f"metric {name}: {metric}")
    extra = set(result["metrics"]) - set(expected)
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def main():
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = smoke(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}",
                  flush=True)
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
