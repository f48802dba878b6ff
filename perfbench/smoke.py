"""Smoke test of the benchmark itself (not of the program).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json declares exactly the metrics the benchmark emits,
that short sweep and cli runs emit every end-to-end metric with its unit, a
short traced sweep every per-layer metric, and that a corrupted golden is
reported as failures in the result rather than as a crash. The enumerate
workload is left out: one cold order-4 build takes most of a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402


def run(workload: str, trace: int) -> dict:
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    return json.loads(r.stdout.strip().splitlines()[-1])


def check_emitted(result: dict, declared: dict, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, label
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared, f"{label}: emitted {got} != declared {declared}"
    assert all(isinstance(v["value"], float) for v in result["metrics"].values()), label


def check_declared() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == metrics.END_TO_END, "end_to_end in BENCHMARK.json is out of date"
    assert layer == metrics.PER_LAYER, "per_layer in BENCHMARK.json is out of date"
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def check_corrupted_goldens() -> None:
    sweep = workloads.Sweep()
    sweep.setup(7)
    entry = sweep.members[0][0]
    entry["golden"] = "0" * 16
    m = sweep.run(0.2, Calibrator())
    assert m.failed >= 1 and m.attempted > m.failed, (m.failed, m.attempted)

    cli = workloads.Cli()
    cli.setup(7)
    try:
        for entry in cli.pool["cli"]:
            entry["stdout_sha256"] = "0" * 64
        m = cli.run(0.5, Calibrator())
    finally:
        cli.close()
    assert m.failed == m.attempted >= 1, (m.failed, m.attempted)


def main() -> int:
    check_declared()
    for workload in ("sweep", "cli"):
        check_emitted(run(workload, 0), metrics.END_TO_END, f"{workload} trace 0")
    check_emitted(run("sweep", 1), metrics.PER_LAYER, "sweep trace 1")
    check_corrupted_goldens()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
