"""In-memory span recorder for the benchmark's traced run.

The benchmark measures the program from outside: it wraps the public
calls into each layer (``run_pattern``, the sampler, ``Machine.execute``,
``Trace.add_samples``, ``Tracer.finalize``, save/load, the folds, the
Figure-1 analysis, ``TraceRepo.put`` and every HTTP request) in spans.
A span records its name, start, end, parent span and the run id; spans
stay in memory and are written out once, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Untraced runs use :class:`NullRecorder`,
whose :meth:`~NullRecorder.call` is a plain call, and never patch the
program's objects.
"""

from __future__ import annotations

import contextvars
import json
import time
from pathlib import Path

__all__ = ["NullRecorder", "Span", "SpanRecorder", "instrument_session"]


class Span:
    """One timed call: name, interval (ns), parent span, attributes."""

    __slots__ = ("name", "start_ns", "end_ns", "parent", "attrs")

    def __init__(self, name: str, start_ns: int, parent: "Span | None") -> None:
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.parent = parent
        self.attrs: dict | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class NullRecorder:
    """Tracing off: every boundary is a direct call."""

    enabled = False

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def open(self, name: str):
        return _NULL_SCOPE


class _NullScope:
    span = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SCOPE = _NullScope()


class _Scope:
    """Context manager opening one span under the current one."""

    __slots__ = ("_rec", "_name", "span", "_token")

    def __init__(self, rec: "SpanRecorder", name: str) -> None:
        self._rec = rec
        self._name = name
        self.span = None
        self._token = None

    def __enter__(self) -> "_Scope":
        rec = self._rec
        self.span = Span(self._name, time.perf_counter_ns(), rec._current.get())
        rec.spans.append(self.span)
        self._token = rec._current.set(self.span)
        return self

    def __exit__(self, *exc) -> None:
        self.span.end_ns = time.perf_counter_ns()
        self._rec._current.reset(self._token)


class SpanRecorder:
    """Collects spans for one run; thread-safe through ``contextvars``.

    ``list.append`` is atomic under the interpreter lock, and each
    thread sees its own current span, so client threads started in a
    ``contextvars.copy_context()`` nest their spans under the span that
    was open when they were started.
    """

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"perfbench_span_{id(self)}", default=None
        )

    def open(self, name: str) -> _Scope:
        return _Scope(self, name)

    def call(self, name: str, fn, *args, **kwargs):
        with _Scope(self, name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn, attrs=None):
        """A wrapper of *fn* that records one span per call.

        *attrs*, when given, is called as ``attrs(args, result)`` and
        its dict is stored on the span (counts measured where the work
        happens).  The scope logic is inlined: this wrapper sits on
        the hottest calls (one per simulated pattern).
        """
        spans = self.spans
        current = self._current
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            span = Span(name, clock(), current.get())
            spans.append(span)
            token = current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                current.reset(token)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return wrapped

    # -- analysis -------------------------------------------------------
    def children(self) -> dict[int, list[Span]]:
        """Child spans keyed by ``id(parent)`` (roots under ``0``)."""
        kids: dict[int, list[Span]] = {}
        for span in self.spans:
            key = id(span.parent) if span.parent is not None else 0
            kids.setdefault(key, []).append(span)
        return kids

    def self_times(self) -> dict[int, int]:
        """Self time (ns) of every span, keyed by ``id(span)``."""
        kids = self.children()
        return {
            id(span): span.duration_ns - _covered_ns(span, kids.get(id(span), ()))
            for span in self.spans
        }

    def subtree(self, root: Span) -> list[Span]:
        """*root* and every span below it, in recording order."""
        kids = self.children()
        out, stack = [], [root]
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(kids.get(id(span), ()))
        return out

    def dump(self, path: str | Path) -> Path:
        """Write every span as one JSON line (ids are recording order)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        index = {id(s): i for i, s in enumerate(self.spans)}
        with path.open("w") as f:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "run": self.run_id,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": index.get(id(s.parent)) if s.parent else None,
                }
                if s.attrs:
                    row["attrs"] = s.attrs
                f.write(json.dumps(row) + "\n")
        return path


def _covered_ns(parent: Span, children) -> int:
    """Length of the union of *children*'s intervals inside *parent*."""
    intervals = sorted(
        (max(c.start_ns, parent.start_ns), min(c.end_ns, parent.end_ns))
        for c in children
    )
    covered, cur_lo, cur_hi = 0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def _pattern_attrs(args, result) -> dict:
    """Simulated statistics of one ``run_pattern`` call."""
    misses = result.level_misses
    return {
        "accesses": int(args[0].count),
        "l1d_misses": int(misses.get("L1D", 0)),
        "l2_misses": int(misses.get("L2", 0)),
        "l3_misses": int(misses.get("L3", 0)),
        "tlb_misses": int(result.tlb_misses),
        "dram_lines": int(result.dram_lines),
    }


def instrument_session(rec: SpanRecorder, session) -> None:
    """Wrap one session's layer entry points in spans.

    Only this session's instances are patched (instance attributes
    shadow the class methods), so nothing outlives the session and
    untraced sessions in the same process are untouched.
    """
    machine = session.machine
    engine = machine.engine
    engine.run_pattern = rec.wrap(
        "memsim.run_pattern", engine.run_pattern, _pattern_attrs
    )
    sampler = machine.sampler
    if sampler is not None:
        sampler.take = rec.wrap("sampler.take", sampler.take)
        sampler.latency_filter = rec.wrap("sampler.filter", sampler.latency_filter)
        sampler.classify = rec.wrap("sampler.filter", sampler.classify)
    machine.execute = rec.wrap("simproc.execute", machine.execute)
    trace = session.tracer.trace
    trace.add_samples = rec.wrap("extrae.record", trace.add_samples)
