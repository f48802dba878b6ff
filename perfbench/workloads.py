"""The three workloads. Each is a closed loop with one client in one process:
the next operation starts only after the previous one has finished.

sweep      every verifier on pool members, in process
enumerate  exhaustive order-4 enumeration written out as a corpus, each
           build in a fresh interpreter (the program's table caches start
           cold, as they do for every `semiringlab enumerate` user)
cli        sequential `semiringlab` command invocations, each a fresh
           interpreter launched from the source tree

A workload's `setup` does everything before the first timed operation; `run`
measures with tracing off, for `--seconds`; `traced` records per-layer spans
over a fixed amount of work, so that a faster program shows lower per-layer
totals; `probes` measures workload-specific per-layer rates with the tracer
removed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import pool as pool_mod
from calibrate import Calibrator
from tracer import Tracer, read_totals

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench-out"
CHILD_TIMEOUT_S = 170
SCALING_ORDERS = (12, 14, 16, 18, 20)
CLI_COMMANDS = ("validate", "classify", "congruences", "decompose", "compose",
                "maps", "enumerate", "counterexample")


@dataclass
class Measured:
    """What one run observed: per-operation latencies, items per operation,
    and the outcome of every output check."""

    latencies_ms: list = field(default_factory=list)
    cpu_ms: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    by_command: dict = field(default_factory=dict)  # command -> operation indices
    extra: dict = field(default_factory=dict)
    calib: Calibrator = field(default_factory=Calibrator)

    def record(self, ms: tuple, ok: bool, at: float, items: int = 1, what: str = "") -> None:
        """ms is (wall, cpu) of one operation in milliseconds, `at` the
        perf_counter instant it started."""
        self.latencies_ms.append(ms[0])
        self.cpu_ms.append(ms[1])
        self.starts.append(at)
        self.items += items
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def import_program():
    if str(pool_mod.SRC) not in sys.path:
        sys.path.insert(0, str(pool_mod.SRC))
    import semiringlab

    return semiringlab


def stamp() -> tuple[float, float]:
    """Wall clock and CPU time of this process, in seconds."""
    return time.perf_counter(), time.process_time()


def since(start: tuple[float, float]) -> tuple[float, float]:
    """(wall, cpu) milliseconds elapsed since a stamp."""
    now = stamp()
    return (now[0] - start[0]) * 1000.0, (now[1] - start[1]) * 1000.0


@dataclass
class Child:
    """A finished child interpreter: exit code, output, and its own wall
    time, CPU time and peak RSS."""

    returncode: int
    stdout: bytes
    stderr: bytes
    at: float
    wall_ms: float
    cpu_ms: float
    maxrss_mb: float


def run_child(cmd, calib: Calibrator, cwd=None, env=None,
              timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion, sampling the calibration kernel every
    20 ms meanwhile (on the same pinned CPU, so the samples see the core the
    child runs on; they do not count in the child's CPU time)."""
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        at = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - at > timeout:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            calib.tick()
            time.sleep(0.005)
        wall_ms = (time.perf_counter() - at) * 1000.0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read(), err.read(), at, wall_ms,
                     (usage.ru_utime + usage.ru_stime) * 1000.0, usage.ru_maxrss / 1024.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scratch_dir(name: str) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))


class Workload:
    """What run.py drives: `setup`, then `run` (tracing off) or `traced`."""

    name = ""
    tail_percentile = 100

    def close(self) -> None:
        """Remove what set-up wrote."""

    def probes(self, m: Measured) -> None:
        """Add to a traced run's `m` what is measured after it with the
        tracer removed."""


# ------------------------------------------------------------------ sweep


class Sweep(Workload):
    name = "sweep"
    tail_percentile = 99

    def setup(self, seed: int) -> None:
        self.sl = import_program()
        self.members = [
            (entry, self.sl.parse_srt(entry["srt"], source=entry["id"]))
            for entry in pool_mod.sweep_selection(pool_mod.load(), seed)
        ]
        self.seed = seed

    def _loop(self, seconds: float, tracer: Tracer | None = None,
              calib: Calibrator | None = None, limit: int | None = None) -> Measured:
        """Members in the seeded order until `seconds` have passed or `limit`
        members are done; each later pass uses a freshly relabelled
        isomorphic copy, so no member is seen twice as the same value and
        verdicts stay comparable with the goldens."""
        m = Measured(calib=calib or Calibrator())
        clock = time.perf_counter
        start = clock()
        pass_no = 0
        while True:
            rng = random.Random(f"relabel:{self.seed}:{pass_no}")
            for entry, s in self.members:
                if pass_no:
                    perm = list(range(s.order))
                    rng.shuffle(perm)
                    with Tracer.paused(tracer):
                        s = s.relabel(perm)
                if tracer is not None:
                    tracer.request = m.attempted
                t0 = stamp()
                try:
                    ok, verdict = checks.sweep_member(self.sl, s)
                except Exception as exc:  # a raising verifier is a failed operation
                    ok, verdict = False, repr(exc)
                ms = since(t0)
                good = ok and checks.digest(verdict) == entry["golden"]
                m.record(ms, good, at=t0[0], what=f"{entry['id']} pass {pass_no}: {verdict[:120]}")
                m.calib.tick()
                if clock() - start >= seconds or m.attempted == limit:
                    return m
            pass_no += 1

    def run(self, seconds: float, calib: Calibrator) -> Measured:
        m = self._loop(seconds, calib=calib)
        m.extra["peak_rss_mb"] = peak_rss_mb()
        return m

    def traced(self, seconds: float, tracer: Tracer) -> Measured:
        """One pass over the seeded selection, whatever `seconds` says."""
        return self._loop(float("inf"), tracer, limit=len(self.members))


# -------------------------------------------------------------- enumerate


class Enumerate(Workload):
    name = "enumerate"
    tail_percentile = 100  # one build per fresh process; the tail is the slowest
    # (order, count) of the sample_semirings calls in a traced run; call k
    # draws with seed `seed * 1000 + k`, the untraced rate probe's with
    # `seed * 1000 + PROBE_SEEDS + k`, so neither can reuse the other's draws
    SAMPLE_CHUNKS = ((5, 10),) * 6 + ((6, 3),) * 4
    PROBE_SEEDS = 500

    def setup(self, seed: int) -> None:
        self.sl = import_program()
        self.golden = pool_mod.load()["enumerate"]
        self.seed = seed

    def build_once(self) -> dict:
        """One timed order-4 corpus build, checked against its goldens."""
        outdir = scratch_dir("corpus4")
        try:
            t0 = stamp()
            count, sha = checks.corpus_order4(self.sl, outdir / "corpus")
            ms = since(t0)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        ok = (count == self.golden["order4_count"]
              and sha == self.golden["order4_manifest_sha256"])
        return {"ms": ms, "at": t0[0], "count": count, "ok": ok,
                "what": f"order 4: {count} members, manifest sha256 {sha[:16]}"}

    def run(self, seconds: float, calib: Calibrator) -> Measured:
        """Builds in fresh child interpreters until `seconds` have passed."""
        m = Measured(calib=calib)
        start = time.perf_counter()
        rss = 0.0
        while True:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", self.name,
                   "--seed", str(self.seed), "--child", "build"]
            child = run_child(cmd, m.calib)
            rss = max(rss, child.maxrss_mb)
            try:
                got = json.loads(child.stdout.decode().strip().splitlines()[-1])
            except (ValueError, IndexError):
                # a crashed or killed build counts with the time it took
                got = {"ms": (child.wall_ms, child.cpu_ms), "at": child.at, "count": 0, "ok": False,
                       "what": f"build child exited {child.returncode}: {child.stderr[-300:]!r}"}
            m.record(tuple(got["ms"]), got["ok"] and child.returncode == 0, at=got["at"],
                     items=got["count"], what=got["what"])
            if time.perf_counter() - start >= seconds:
                break
        m.extra["peak_rss_mb"] = rss
        return m

    def traced(self, seconds: float, tracer: Tracer) -> Measured:
        """One traced order-4 build, then the SAMPLE_CHUNKS calls, whatever
        `seconds` says."""
        m = Measured()
        got = self.build_once()
        m.record(got["ms"], got["ok"], at=got["at"], items=got["count"], what=got["what"])
        forms: set = set()
        calls_before = tracer.calls.get("enumeration.canonical_form", 0)
        for k, (order, count) in enumerate(self.SAMPLE_CHUNKS):
            tracer.request = k + 1
            members = self.sl.sample_semirings(order, count, seed=self.seed * 1000 + k)
            with Tracer.paused(tracer):
                ok, got_forms = checks.sample_members_ok(self.sl, members, order, count)
            forms |= got_forms
            m.record((0.0, 0.0), ok, at=0.0, items=0,
                     what=f"sample order {order} seed {self.seed * 1000 + k}")
        sampled_calls = tracer.calls.get("enumeration.canonical_form", 0) - calls_before
        m.extra["enumeration.sample.useful_ratio"] = len(forms) / max(sampled_calls, 1)
        return m

    def probes(self, m: Measured) -> None:
        """Distinct members returned per scaled CPU second by the
        SAMPLE_CHUNKS calls, with fresh seeds and no tracer installed."""
        calib = Calibrator()
        spent = 0.0
        returned = 0
        for k, (order, count) in enumerate(self.SAMPLE_CHUNKS):
            seed = self.seed * 1000 + self.PROBE_SEEDS + k
            members, cpu_s = calibrated_cpu_s(
                lambda: self.sl.sample_semirings(order, count, seed=seed), calib)
            ok, forms = checks.sample_members_ok(self.sl, members, order, count)
            m.record((0.0, 0.0), ok, at=0.0, items=0,
                     what=f"untraced sample order {order} seed {seed}")
            spent += cpu_s
            returned += len(forms)
        m.extra["enumeration.sample.members_per_s"] = returned / spent


# -------------------------------------------------------------------- cli


class Cli(Workload):
    name = "cli"
    tail_percentile = 90

    def setup(self, seed: int) -> None:
        self.pool = pool_mod.load()
        self.seed = seed
        self.work = scratch_dir("cli")
        pool_mod.write_inputs(self.pool, self.work)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _invoke(self, entry, prefix, env, calib: Calibrator) -> tuple[Child, bool, str]:
        child = run_child(prefix + entry["argv"], calib, cwd=self.work, env=env)
        ok = (child.returncode == entry["exit"]
              and hashlib.sha256(child.stdout).hexdigest() == entry["stdout_sha256"])
        what = (f"{entry['id']} {' '.join(entry['argv'])}: exit {child.returncode} "
                f"{child.stderr[-200:]!r}")
        return child, ok, what

    def run(self, seconds: float, calib: Calibrator) -> Measured:
        m = Measured(calib=calib)
        prefix = pool_mod.cli_command()
        env = pool_mod.cli_env()
        start = time.perf_counter()
        rss = 0.0
        round_no = 0
        while True:
            for entry in pool_mod.cli_round(self.pool, self.seed, round_no):
                child, ok, what = self._invoke(entry, prefix, env, m.calib)
                rss = max(rss, child.maxrss_mb)
                m.record((child.wall_ms, child.cpu_ms), ok, at=child.at, what=what)
                m.by_command.setdefault(entry["argv"][0], []).append(m.attempted - 1)
                if time.perf_counter() - start >= seconds:
                    m.extra["peak_rss_mb"] = rss
                    return m
            round_no += 1

    def traced(self, seconds: float, tracer: Tracer) -> Measured:
        """The untraced loop (for per-command latencies), then each
        invocation of the first round once more in a traced interpreter."""
        m = self.run(seconds, Calibrator())
        trace_dir = OUT / "trace" / f"cli-seed{self.seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        env = pool_mod.cli_env()
        env["PYTHONPATH"] = f"{pool_mod.SRC}:{HERE}"
        for k, entry in enumerate(pool_mod.cli_round(self.pool, self.seed, 0)):
            out = trace_dir / f"invocation-{k:03d}.tsv"
            prefix = [sys.executable, "-c", TRACED_LAUNCHER, str(out), str(k)]
            _, ok, what = self._invoke(entry, prefix, env, Calibrator())
            if not ok:
                m.failed += 1
                m.attempted += 1
                m.errors.append("traced " + what)
            tracer.merge(read_totals(out))
        return m


TRACED_LAUNCHER = """\
import sys
from tracer import Tracer
import semiringlab.cli
out, request = sys.argv[1], int(sys.argv[2])
del sys.argv[1:3]
tracer = Tracer()
tracer.request = request
tracer.install()
try:
    code = semiringlab.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    tracer.dump(out)
raise SystemExit(code)
"""

WORKLOADS = {w.name: w for w in (Sweep, Enumerate, Cli)}


# ------------------------------------------------------------ probes


def calibrated_cpu_s(fn, calib: Calibrator):
    """fn()'s result and its CPU seconds in this process, scaled by
    calibration samples taken right before and after it."""
    calib.sample(3)
    t0 = stamp()
    result = fn()
    wall_ms, cpu_ms = since(t0)
    calib.sample(3)
    return result, cpu_ms / 1000.0 * calib.factor(t0[0], t0[0] + wall_ms / 1000.0)


def import_ms(repeats: int = 7) -> float:
    """Fresh-interpreter `import semiringlab` minus bare interpreter start:
    child CPU milliseconds, scaled as the CLI latencies are, medians of
    alternating runs."""
    env = pool_mod.cli_env()
    calib = Calibrator()
    bare, full = [], []
    for _ in range(repeats):
        for argv, sink in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import semiringlab"], full)):
            child = run_child(argv, calib, env=env)
            if child.returncode != 0:
                raise RuntimeError(f"{argv} exited {child.returncode}: {child.stderr[-300:]!r}")
            sink.append(child.cpu_ms * calib.factor(child.at, child.at + child.wall_ms / 1000.0))
    return median(full) - median(bare)


def scaling_series(sl, seed: int, repeats: int = 3) -> dict:
    """classify(Z_n) for n in SCALING_ORDERS, tracing off: scaled CPU
    seconds, the median of `repeats` runs, each on a freshly relabelled copy
    so nothing cached by value carries over."""
    import rings

    calib = Calibrator()
    rng = random.Random(f"scaling:{seed}")
    out = {}
    for n in SCALING_ORDERS:
        names, add, mul = rings.zn_tables(n)
        s = sl.FiniteSemiring(names=names, add=add, mul=mul)
        times = []
        for _ in range(repeats):
            perm = list(range(n))
            rng.shuffle(perm)
            copy = s.relabel(perm)
            times.append(calibrated_cpu_s(lambda: sl.classify(copy), calib)[1])
        out[f"scaling.zn{n}.classify_s"] = median(times)
    return out


def trace_overhead(seed: int, size: int = 200, block: int = 20) -> dict:
    """The same sweep slice untraced and traced, alternating in blocks of
    `block` members so machine-speed drift hits both alike; every run uses a
    fresh relabelled copy, so nothing cached by value carries over."""
    sweep = Sweep()
    sweep.setup(seed)
    members = [s for _, s in sweep.members[:size]]
    rng = random.Random(f"overhead:{seed}")
    spent = {False: 0.0, True: 0.0}
    for k in range(0, len(members), block):
        for traced in (False, True):
            tracer = Tracer()
            if traced:
                tracer.install()
            try:
                for s in members[k:k + block]:
                    perm = list(range(s.order))
                    rng.shuffle(perm)
                    with Tracer.paused(tracer):
                        copy = s.relabel(perm)
                    t0 = time.process_time()
                    checks.sweep_member(sweep.sl, copy)
                    spent[traced] += time.process_time() - t0
            finally:
                tracer.uninstall()
    return {
        "trace.untraced.members_per_s": len(members) / spent[False],
        "trace.traced.members_per_s": len(members) / spent[True],
        "trace.overhead_ratio": spent[True] / spent[False],
    }


# ------------------------------------------------------------ statistics


def median(values) -> float:
    vals = sorted(values)
    n = len(vals)
    mid = n // 2
    return vals[mid] if n % 2 else (vals[mid - 1] + vals[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)
