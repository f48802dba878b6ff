"""In-memory span tracer for the public functions of every semiringlab module.

`Tracer.install()` replaces each public function, wherever it is bound in a
`semiringlab` module namespace (so calls between modules go through it too),
by a wrapper that records a span: name, start, end, parent span and the
request (sweep member, CLI invocation, ...) it belongs to. Counts and self
time (duration minus the time covered by child spans) are aggregated exactly
for every call; span records are kept in memory up to a cap and written out
by `dump` when the run ends. Nothing here touches the program's files.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array

PACKAGE = "semiringlab"
SPAN_CAP = 200_000


def _span_name(home: str, fn):
    """Span name for a wrapped function; verify_equivalence is split by the
    theorem it verifies."""
    short = home.rsplit(".", 1)[-1]
    if (short, fn.__name__) == ("classify", "verify_equivalence"):
        return lambda args, kwargs: "classify.verify." + (args[1] if len(args) > 1 else kwargs["theorem"])
    if (short, fn.__name__) == ("classify", "verify_ideal_corollary"):
        return "classify.verify.IDEALS"
    return f"{short}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.request = 0
        self.enabled = True
        self._stack: list[list] = []  # [name, start, child_time, span_id]
        self._next_id = 1
        self.dropped = 0
        self._names: dict[str, int] = {}
        self._spans = {k: array(t) for k, t in (
            ("id", "q"), ("parent", "q"), ("request", "q"), ("name", "i"),
            ("start", "d"), ("end", "d"))}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    @staticmethod
    @contextlib.contextmanager
    def paused(tracer: "Tracer | None"):
        """Calls made inside (the benchmark's own checks) are not traced."""
        if tracer is None:
            yield
            return
        tracer.enabled = False
        try:
            yield
        finally:
            tracer.enabled = True

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        dynamic = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = name(args, kwargs) if dynamic else name
            stack = tracer._stack
            frame = [span, clock(), 0.0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, end, stack[-1] if stack else None)

        return wrapper

    def _close(self, frame, end, parent) -> None:
        span, start, child, span_id = frame
        dur = end - start
        self.calls[span] = self.calls.get(span, 0) + 1
        self.self_s[span] = self.self_s.get(span, 0.0) + dur - child
        if parent is not None:
            parent[2] += dur
        if len(self._spans["id"]) >= SPAN_CAP:
            self.dropped += 1
            return
        s = self._spans
        s["id"].append(span_id)
        s["parent"].append(parent[3] if parent is not None else 0)
        s["request"].append(self.request)
        s["name"].append(self._names.setdefault(span, len(self._names)))
        s["start"].append(start)
        s["end"].append(end)

    # ------------------------------------------------------- (un)installing

    def install(self) -> None:
        """Wrap every public function of every loaded semiringlab module, in
        every semiringlab namespace that binds it, plus FiniteSemiring
        construction (`kernel.semiring_built`)."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        targets = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = sys.modules.get(obj.__module__)
                if home is None or not obj.__module__.startswith(PACKAGE + "."):
                    continue
                if getattr(home, obj.__name__, None) is obj and not obj.__name__.startswith("_"):
                    targets.append((mod, attr, obj))
        wrappers = {}
        for mod, attr, obj in targets:
            if id(obj) not in wrappers:
                wrappers[id(obj)] = self._wrap(_span_name(obj.__module__, obj), obj)
            self._patch(mod, attr, wrappers[id(obj)])
        kernel = sys.modules[PACKAGE + ".kernel"]
        cls = kernel.FiniteSemiring
        self._patch(cls, "__post_init__", self._wrap("kernel.semiring_built", cls.__post_init__))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -------------------------------------------------------------- output

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "dropped": self.dropped}

    def merge(self, totals: dict) -> None:
        """Add counts and self times recorded by another process."""
        for k, v in totals["calls"].items():
            self.calls[k] = self.calls.get(k, 0) + v
        for k, v in totals["self_s"].items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        self.dropped += totals["dropped"]

    def dump(self, path) -> None:
        """Write the aggregates and the recorded spans (one per line, tab
        separated: id, parent, request, name, start, end) to path."""
        names = {v: k for k, v in self._names.items()}
        s = self._spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(self.totals(), sort_keys=True) + "\n")
            for i in range(len(s["id"])):
                fh.write(f"{s['id'][i]}\t{s['parent'][i]}\t{s['request'][i]}\t"
                         f"{names[s['name'][i]]}\t{s['start'][i]:.9f}\t{s['end'][i]:.9f}\n")


def read_totals(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.readline()[2:])
