"""semiringlab benchmark.

    python3 perfbench/run.py --workload sweep|enumerate|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src, never
installed. Human-readable lines go first; the last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones, measured
with tracing off; with `--trace 1` they are the per-layer ones, from a
separate traced run. Exits 2, printing no result, when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import pool as pool_mod  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: what a fresh child interpreter of this benchmark does
    p.add_argument("--child", choices=("setup", "build"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_seconds(args, calib: Calibrator) -> list[workloads.Child]:
    """Fresh interpreters that each run the workload's set-up and exit, one
    after another."""
    children = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--child", "setup"]
        child = workloads.run_child(cmd, calib)
        if child.returncode != 0:
            raise SystemExit(f"set-up failed: {child.stderr.decode()[-500:]}")
        children.append(child)
    return children


def pin_to_one_cpu() -> None:
    """One core for the benchmark and every child it starts, and one thread
    for numerical libraries, so calibration samples and measured work share
    a core (see calibrate.py)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def child(args, workload) -> int:
    workload.setup(args.seed)
    if args.child == "build":
        print(json.dumps(workload.build_once()))
    workload.close()
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (pool_mod.SRC / "semiringlab" / "__init__.py").is_file():
        print(f"error: no program sources under {pool_mod.SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    workload = workloads.WORKLOADS[args.workload]()
    if args.child:
        return child(args, workload)

    calib = Calibrator()
    setup = [] if args.trace else setup_seconds(args, calib)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            workloads.import_program()
            tracer.install()
        workload.setup(args.seed)
        if tracer is None:
            measured = workload.run(args.seconds, calib)
        else:
            measured = workload.traced(args.seconds, tracer)
            tracer.uninstall()
            workload.probes(measured)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    if tracer is None:
        values = metrics.end_to_end(workload, measured, setup)
    else:
        trace_dir = workloads.OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.tsv")
        measured.extra["spans_dropped"] = tracer.dropped
        values = metrics.per_layer(measured, tracer, args.seed)

    for line in metrics.report_lines(args, workload, measured, setup, values):
        print(line)
    result = {
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": values,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
