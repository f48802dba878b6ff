"""Metric names, units and how each is computed from a run.

End-to-end metrics are the same five on every workload; what one operation
is depends on the workload:

  sweep      one pool member through every verifier       tail = p99
  enumerate  one cold order-4 corpus build                 tail = slowest
  cli        one `semiringlab` command invocation          tail = p90

Times are CPU seconds of the process doing the work (the benchmark itself,
or the child interpreter it waited for), scaled to the reference machine
speed by the run's calibration factor (see calibrate.py). Wall-clock values
are printed alongside, unscaled.
"""

from __future__ import annotations

import workloads
from workloads import median, percentile

END_TO_END = {
    "setup_s": "s",
    "op_cpu_ms.p50": "ms",
    "op_cpu_ms.tail": "ms",
    "ops_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
}

# (span, which of calls / self_s to report)
SPANS = (
    ("kernel.validate", ("calls", "self_s")),
    ("kernel.semiring_built", ("calls",)),
    ("kernel.orbit", ("calls",)),
    ("elements.classify_element", ("calls", "self_s")),
    ("elements.additive_idempotents", ("calls",)),
    ("relations.green_plus", ("calls", "self_s")),
    ("relations.green_star_plus", ("calls", "self_s")),
    ("relations.enumerate_congruences", ("calls", "self_s")),
    ("structure.quasi_skew_ring_check", ("calls", "self_s")),
    ("structure.decompose", ("calls", "self_s")),
    ("classify.classify", ("calls", "self_s")),
    *((f"classify.verify.{t}", ("self_s",))
      for t in ("QSR3", "QCR5", "QCI5", "SAQCI3", "HJEQ", "IDEALS")),
    *((f"blattice.{fn}", ("calls", "self_s"))
      for fn in ("search_structure_maps", "check_main_theorem_conditions",
                 "check_generalized_clifford_theorem", "validate_spec", "compose")),
    ("enumeration.enumerate_semirings", ("self_s",)),
    ("enumeration.manifest_line", ("self_s",)),
    ("enumeration.sample_semirings", ("self_s",)),
    ("enumeration.canonical_form", ("calls",)),
    ("formats.parse_srt", ("calls", "self_s")),
    ("formats.serialize_srt", ("calls", "self_s")),
)

PER_LAYER = {
    **{f"{span}.{kind}": ("count" if kind == "calls" else "s")
       for span, kinds in SPANS for kind in kinds},
    "enumeration.sample.members_per_s": "1/s",
    "enumeration.sample.useful_ratio": "ratio",
    "cli.import_ms": "ms",
    **{f"cli.{c}.latency_ms.p50": "ms" for c in workloads.CLI_COMMANDS},
    **{f"scaling.zn{n}.classify_s": "s" for n in workloads.SCALING_ORDERS},
    "trace.untraced.members_per_s": "1/s",
    "trace.traced.members_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def scaled_cpu_ms(measured) -> list[float]:
    """Each operation's CPU time scaled by the calibration around it."""
    calib = measured.calib
    return [cpu * calib.factor(at, at + wall / 1000.0)
            for at, wall, cpu in zip(measured.starts, measured.latencies_ms, measured.cpu_ms)]


def command_cpu_ms(measured) -> dict:
    """Scaled CPU times of the CLI invocations, by command."""
    if not measured.by_command:
        return {}
    cpu = scaled_cpu_ms(measured)
    return {c: [cpu[i] for i in ops] for c, ops in measured.by_command.items()}


def end_to_end(workload, measured, setup: list) -> dict:
    cpu = scaled_cpu_ms(measured)
    values = {
        "setup_s": median([c.cpu_ms / 1000.0 * measured.calib.factor(c.at, c.at + c.wall_ms / 1000.0)
                           for c in setup]),
        "op_cpu_ms.p50": median(cpu),
        "op_cpu_ms.tail": percentile(cpu, workload.tail_percentile),
        "ops_per_cpu_s": measured.items / (sum(cpu) / 1000.0) if sum(cpu) else 0.0,
        "peak_rss_mb": measured.extra["peak_rss_mb"],
    }
    return {k: _metric(v, END_TO_END[k]) for k, v in values.items()}


def per_layer(measured, tracer, seed: int) -> dict:
    """Span aggregates plus the probes every traced run makes: import time,
    the Z_n scaling series and the tracer's own overhead. A layer the
    workload never reaches reports 0."""
    values = {}
    for span, kinds in SPANS:
        if "calls" in kinds:
            values[f"{span}.calls"] = tracer.calls.get(span, 0)
        if "self_s" in kinds:
            values[f"{span}.self_s"] = tracer.self_s.get(span, 0.0)
    values["enumeration.sample.members_per_s"] = measured.extra.get(
        "enumeration.sample.members_per_s", 0.0)
    values["enumeration.sample.useful_ratio"] = measured.extra.get(
        "enumeration.sample.useful_ratio", 0.0)
    per_command = command_cpu_ms(measured)
    for command in workloads.CLI_COMMANDS:
        lat = per_command.get(command)
        values[f"cli.{command}.latency_ms.p50"] = median(lat) if lat else 0.0
    values["cli.import_ms"] = workloads.import_ms()
    values.update(workloads.scaling_series(workloads.import_program(), seed))
    values.update(workloads.trace_overhead(seed))
    return {k: _metric(values[k], PER_LAYER[k]) for k in PER_LAYER}


READABLE_NAMES = {
    "sweep": ("sweep.members_per_s", "sweep.member_ms", "p99", "members"),
    "enumerate": ("enumerate.order4_per_s", "enumerate.order4_ms", "max", "order-4 builds"),
    "cli": ("cli.invocations_per_s", "cli.latency_ms", "p90", "invocations"),
}


def report_lines(args, workload, measured, setup, values) -> list[str]:
    """Readable lines: every metric with its unit and sample count, the
    failure ratio and the first failures."""
    lines = [f"workload: {args.workload} seed {args.seed} trace {args.trace}"]
    if not args.trace:
        rate, lat, tail_name, what = READABLE_NAMES[args.workload]
        wall = measured.latencies_ms
        n = len(wall)
        calib = measured.calib
        lines += [
            f"calibration: reference kernel {calib.mean_ms():.4f} ms "
            f"(mean of {len(calib.ms)}), factor {calib.factor():.4f}",
            f"setup_s: {values['setup_s']['value']:.4f} s CPU scaled "
            f"(median of {len(setup)} fresh set-ups; wall {median([c.wall_ms for c in setup]) / 1000.0:.4f} s)",
            f"{lat}.p50: {values['op_cpu_ms.p50']['value']:.4f} ms CPU scaled "
            f"(n={n}; wall {median(wall):.4f} ms)",
            f"{lat}.{tail_name}: {values['op_cpu_ms.tail']['value']:.4f} ms CPU scaled "
            f"(n={n}; wall {percentile(wall, workload.tail_percentile):.4f} ms)",
            f"{rate}: {values['ops_per_cpu_s']['value']:.4f} per scaled CPU second "
            f"(n={n} {what}; wall {measured.items / (sum(wall) / 1000.0):.4f} 1/s)",
            f"peak_rss_mb: {values['peak_rss_mb']['value']:.1f} MB",
        ]
        if args.workload == "cli":
            for command, lat_ms in sorted(command_cpu_ms(measured).items()):
                lines.append(f"cli.{command}.latency_ms.p50: {median(lat_ms):.2f} ms "
                             f"CPU scaled (n={len(lat_ms)})")
    else:
        for name, metric in values.items():
            lines.append(f"{name}: {metric['value']:.6g} {metric['unit']}")
        lines.append(f"trace.spans_dropped: {measured.extra.get('spans_dropped', 0)}")
    ratio = measured.failed / measured.attempted if measured.attempted else 1.0
    lines.append(f"failed_ratio: {ratio:.6f} ({measured.failed}/{measured.attempted})")
    lines.extend(f"failure: {e}" for e in measured.errors)
    return lines
