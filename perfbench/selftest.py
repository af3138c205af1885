"""Self-test of the benchmark harness at tiny sizes; asserts no timings.

Runs every workload once untraced and once traced with run.py's --tiny
sizes, and checks that each run passes its output checks and prints exactly
the metrics BENCHMARK.json names, with their units.  Takes about a minute:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            command = spec["command"] + [
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny",
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=180)
            assert done.returncode == 0, f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}"
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, done.stdout
            assert result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], f"{workload} trace={trace}: metric names or units differ"
            assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
            if trace:
                calls = result["metrics"]["tikhonov.factorizations"]["value"]
                assert calls > 0, f"{workload}: no factorization traced"
            print(f"ok {workload} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
