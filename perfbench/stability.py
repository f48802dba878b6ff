"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/stability.py --workload sweep --seeds 10 [--save FILE]

Runs the benchmark once per seed (1..N, one after another) with tracing off
and prints, per metric, the median and the interquartile distance as a share
of the median, next to the metric's bound from BENCHMARK.json. With --save,
also makes one traced run and merges both into FILE (JSON) under the
workload's name.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    return json.loads(r.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--save", type=Path, default=None)
    args = p.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    runs = []
    for seed in seeds:
        result = run(args.workload, seed, seconds, 0)
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['failed']}/{result['attempted']} {values}", flush=True)
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q = statistics.quantiles(values, n=4)
        summary[name] = {"unit": first["unit"], "median": statistics.median(values),
                         "q1": q[0], "q3": q[2], "spread": spread(values)}
        print(f"{name}: median {summary[name]['median']:.4f} "
              f"spread {summary[name]['spread']:.4f} bound {bounds.get(name, '-')}")
    correct = all(r["correct"] for r in runs)
    if args.save:
        traced = run(args.workload, seeds[0], seconds, 1)
        correct = correct and traced["correct"]
        saved = json.loads(args.save.read_text()) if args.save.exists() else {}
        saved[args.workload] = {
            "machine": f"{platform.machine()}, {platform.python_implementation()} "
                       f"{platform.python_version()}, benchmark pinned to one CPU",
            "run_seconds": seconds,
            "seeds": seeds,
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed": seeds[0],
        }
        args.save.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
