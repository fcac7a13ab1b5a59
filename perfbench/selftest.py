"""Self-test of the benchmark harness on a tiny version of each workload.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it makes two traced runs of different lengths and one
untraced run with ``--tiny``, and checks that every metric declared in
``BENCHMARK.json`` is present with its unit, that the results are correct,
that the exact counts (each span's calls and the bit and pick counters)
repeat exactly, and that idle layers record no calls.  It never checks a
wall time.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

EXACT = ("sketch.payload_bits", "covering.greedy.picks", "streaming.handoff_bits")

# Layers each workload must leave idle, as the benchmark's workloads predict.
IDLE = {
    "mc_sweep": ("covering.", "streaming."),
    "exact_sweep": ("sketch.", "sampling.", "runtime.unit_vectors", "runtime.index_below", "covering.greedy"),
    "code_build": ("sketch.", "sampling.", "runtime.unit_vectors", "runtime.index_below", "streaming."),
}
# Layers each workload must exercise.
BUSY = {
    "mc_sweep": ("sketch.alice_sketch.calls", "sampling.run_protocol.calls", "runtime.unit_vectors.calls"),
    "exact_sweep": ("covering.nearest_index.table.calls", "covering.nearest_index.scan.calls",
                    "streaming.ghd_via_streaming.calls", "streaming.handoff_bits"),
    "code_build": ("covering.greedy_covering_code.calls", "covering.greedy.picks",
                   "covering.save_code.calls", "covering.audit_covering.calls"),
}


def fail(message: str) -> None:
    sys.exit(f"selftest: FAIL: {message}")


def run(workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload}: incorrect result {result['attempted']} attempted, {result['failed']} failed")
    return result["metrics"]


def check_declared(workload: str, metrics: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: value["unit"] for name, value in metrics.items()}
    if got != want:
        fail(f"{workload}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, value in metrics.items():
        if not isinstance(value["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for workload in IDLE:
        check_declared(workload, run(workload, 0.5, 0), spec["end_to_end"])
        first, second = run(workload, 0.5, 1), run(workload, 2.0, 1)
        check_declared(workload, first, spec["per_layer"])
        for name in first:
            if name.endswith(".calls") or name in EXACT:
                if first[name]["value"] != second[name]["value"]:
                    fail(f"{workload}: {name} {first[name]['value']} != {second[name]['value']}")
                if name.startswith(IDLE[workload]) and first[name]["value"] != 0:
                    fail(f"{workload}: idle layer {name} = {first[name]['value']}")
        for name in BUSY[workload]:
            if first[name]["value"] <= 0:
                fail(f"{workload}: {name} recorded nothing")
        print(f"selftest: {workload} ok", file=sys.stderr)
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
