"""Streaming folds: the fold kernel over bounded-memory chunk streams.

``fold_trace`` holds the consolidated sample table (and the per-sample
folded views derived from it) resident — O(trace) parent memory.  This
module runs the same fold kernel (:mod:`repro.folding.fold`: boundary
scan, projection, :class:`~repro.util.pava.DesignAccumulator`) over a
stream of row chunks instead, with O(chunk) parent memory, so trace
size becomes disk-bound rather than RAM-bound.  A resident fold is the
one-chunk case, so the chunked result is the resident one bit for bit
(the accumulator's ``np.add.at`` order argument and the scan's
two-row interpolation window make chunking invisible).

Two drivers sit on top of the kernel:

* :func:`stream_fold_trace` — the exact two-pass fold of a finished
  trace (pass 1: instance boundaries from the event sidecar plus the
  boundary scan; pass 2: project each chunk once and feed its σ to the
  counter design and to the address/line sinks), sharing
  :class:`~repro.folding.cache.FoldCache` entries with resident folds;
* :class:`LiveFold` — a single-pass monitoring-style fold over a live
  sample stream whose instance boundaries arrive *with* the data, and
  which emits partial :class:`~repro.folding.model.FoldedCounters`
  snapshots on demand.  It cannot know the final σ span or kept count
  up front, so it accumulates on the fixed [0, 1] span — deterministic
  and chunk-invariant, but a documented approximation of the resident
  fit (the bin width, 1/4096, is at most bandwidth/8 for every
  bandwidth the ablations use).

With ``directions=("counters", "address", "lines")`` the drivers also
feed the bounded per-direction accumulators — the address accumulator
of :mod:`repro.folding.address` (exact accounting, a reservoir of at
most :data:`~repro.folding.address.RESERVOIR_CAPACITY` points and a
density sketch) and the (line × σ-bin) count matrices of
:mod:`repro.folding.stream_views` — and return a three-direction
:class:`~repro.folding.stream_views.StreamedReport` in
O(chunk + summary) parent memory.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro.extrae.trace import Trace
from repro.folding.address import AddressStream
from repro.folding.cache import fold_key_params
from repro.folding.detect import FoldInstances, instances_from_iterations
from repro.folding.fold import (
    FoldPrologue,
    Projection,
    build_prologue,
    chunk_column,
    project,
)
from repro.folding.model import (
    FoldedCounters,
    PerformanceFold,
    fit_counter_curves,
    fold_digest,
)
from repro.folding.stream_views import LineStream, StreamedReport
from repro.objects.registry import DataObjectRegistry
from repro.simproc.machine import SAMPLE_COUNTERS
from repro.util.pava import DesignAccumulator

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "LiveFold",
    "StreamedReport",
    "StreamingFold",
    "fold_digest",
    "stream_fold_trace",
]

#: Default chunk size, re-exported from the container reader.
from repro.extrae.storage import DEFAULT_CHUNK_ROWS  # noqa: E402

#: Sample columns the streamed address direction reads.
_ADDRESS_COLUMNS = ("address", "op", "source", "latency")


class StreamingFold:
    """The fold kernel driven over a stream of time-ordered chunks.

    Built from a :class:`~repro.folding.fold.FoldPrologue` of the same
    stream: :meth:`add_chunk` projects one chunk and feeds the design
    accumulator (O(bins) memory, plus O(kept) only in the small-sample
    regime where the fit does not bin).  :meth:`result` fits the
    accumulated design; :meth:`snapshot` fits the partial design at any
    point for progress-style reporting.
    """

    def __init__(
        self,
        prologue: FoldPrologue,
        grid_points: int = 201,
        bandwidth: float = 0.015,
    ) -> None:
        if prologue.n_kept == 0:
            raise ValueError("cannot fold counters without samples")
        self.prologue = prologue
        self.grid_points = grid_points
        self.bandwidth = bandwidth
        self._acc = DesignAccumulator(
            len(prologue.counters), prologue.span, binned=prologue.binned
        )
        self._last_t: float | None = None
        self.n_chunks = 0

    @property
    def n_folded(self) -> int:
        return self._acc.n

    def add_chunk(self, chunk) -> Projection:
        """Fold one time-ordered chunk in; returns its projection."""
        self.n_chunks += 1
        t = chunk_column(chunk, "time_ns")
        if t.size:
            if self._last_t is not None and t[0] < self._last_t:
                raise ValueError("sample chunks must arrive in time order")
            self._last_t = float(t[-1])
        proj = project(chunk, self.prologue.instances, self.prologue)
        self._acc.add(proj.sigma, proj.fractions)
        return proj

    # -- outputs -----------------------------------------------------------
    def snapshot(self) -> FoldedCounters:
        """Partial curves over the chunks folded so far."""
        p = self.prologue
        return fit_counter_curves(
            self._acc.design(),
            grid_points=self.grid_points,
            bandwidth=self.bandwidth,
            counters=p.counters,
            totals_mean={name: float(p.totals[name].mean()) for name in p.counters},
            duration_ns=p.instances.mean_duration_ns,
        )

    def result(self, chunk_rows: int = 0) -> PerformanceFold:
        """Finalize after the full stream has been folded in."""
        p = self.prologue
        if self.n_folded != p.n_kept:
            raise ValueError(
                f"stream folded {self.n_folded} kept samples, prologue saw "
                f"{p.n_kept} — passes must consume the same chunks"
            )
        return PerformanceFold(
            instances=p.instances,
            counters=self.snapshot(),
            totals=dict(p.totals),
            degenerate=dict(p.degenerate),
            n_folded=self.n_folded,
            n_chunks=self.n_chunks,
            chunk_rows=int(chunk_rows),
        )


# ---------------------------------------------------------------------------
# Exact two-pass driver.
# ---------------------------------------------------------------------------

_KNOWN_DIRECTIONS = ("counters", "address", "lines")


def _normalize_directions(directions) -> tuple[str, ...] | None:
    """Canonical direction tuple, or ``None`` for counters-only.

    ``None`` and ``("counters",)`` both mean the counters-only fold (a
    :class:`~repro.folding.model.PerformanceFold`); anything more returns the canonical
    subset of ``("counters", "address", "lines")`` — counters are
    always folded, so a :class:`StreamedReport` always has its
    performance direction.
    """
    if directions is None:
        return None
    if isinstance(directions, str):
        directions = (directions,)
    requested = set(directions)
    unknown = requested - set(_KNOWN_DIRECTIONS)
    if unknown:
        raise ValueError(
            f"unknown fold directions {sorted(unknown)}; "
            f"choose from {_KNOWN_DIRECTIONS}"
        )
    if requested <= {"counters"}:
        return None
    requested.add("counters")
    return tuple(d for d in _KNOWN_DIRECTIONS if d in requested)


def stream_fold_trace(
    source: Trace | str | Path,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    grid_points: int = 201,
    bandwidth: float = 0.015,
    prune_tolerance: float | None = 0.5,
    counters: tuple[str, ...] = SAMPLE_COUNTERS,
    cache=None,
    report_every: int | None = None,
    on_snapshot=None,
    directions=None,
) -> PerformanceFold | StreamedReport:
    """Fold a trace chunk by chunk — exact, two passes, O(chunk) memory.

    Pass 1 builds the instance set from the event sidecar (events are
    O(markers), never O(samples)) and runs the boundary scan over
    ``time_ns`` plus the counter columns.  Pass 2 streams the columns
    again, projects each chunk once and feeds its σ to the counter
    design and the address/line sinks.  The result's curves, totals and
    degenerate flags are bit-identical to the resident
    :func:`~repro.folding.report.fold_trace` at the same parameters.

    Parameters
    ----------
    source:
        A :class:`~repro.extrae.trace.Trace` or a path to a saved
        container.  Passing a path keeps the trace lazy: only the
        sidecar and O(chunk) column slices are ever resident.
    chunk_rows:
        Rows per streamed chunk.
    cache:
        Optional :class:`~repro.folding.cache.FoldCache`.  For the
        counters-only fold of every counter, keys are identical to the
        resident fold's, so a trace folded resident serves streamed
        requests (through the report's ``performance`` view); a
        streamed entry is treated as a miss by the resident path, which
        overwrites it with the full report.  A counter subset is part
        of the key.  Multi-
        direction streamed reports are keyed under ``kind="streamed"``
        — their address/line products are bounded summaries, not the
        resident views, so they must never alias a resident report.
    report_every:
        Emit a partial-curves snapshot to *on_snapshot* every this many
        chunks of the accumulation pass.
    on_snapshot:
        ``callable(FoldedCounters)`` for the periodic snapshots.
    directions:
        Which fold directions to stream.  ``None`` (or
        ``("counters",)``) keeps the counters-only
        :class:`~repro.folding.model.PerformanceFold`; any superset — up to
        ``("counters", "address", "lines")`` — returns a
        :class:`~repro.folding.stream_views.StreamedReport` whose
        extra directions were accumulated in the same pass 2, still in
        O(chunk + summary) memory.  The address direction resolves
        against the trace's own object records, exactly as the resident
        fold does, and holds at most
        :data:`~repro.folding.address.RESERVOIR_CAPACITY` scatter points.
    """
    trace = source if isinstance(source, Trace) else Trace.load(source)
    dirs = _normalize_directions(directions)
    want_address = dirs is not None and "address" in dirs
    want_lines = dirs is not None and "lines" in dirs
    # The resident fold always folds every counter, so only a subset is
    # spelled out: default-subset keys stay shared with resident folds.
    counters = tuple(counters)
    subset = {} if counters == SAMPLE_COUNTERS else {"counters": counters}
    key = None
    if cache is not None:
        if dirs is None:
            key = cache.key(
                trace,
                **fold_key_params(grid_points, bandwidth, prune_tolerance),
                **subset,
            )
            hit = cache.get(key)
            if hit is not None:
                return hit.performance
        else:
            # chunk_rows is deliberately absent: the products are
            # chunk-size-invariant, so any chunking serves any other.
            key = cache.key(
                trace,
                kind="streamed",
                grid_points=grid_points,
                bandwidth=bandwidth,
                prune_tolerance=prune_tolerance,
                directions=dirs,
                **subset,
            )
            hit = cache.get(key)
            if isinstance(hit, StreamedReport):
                return hit
    instances = instances_from_iterations(trace)
    if prune_tolerance is not None and instances.n >= 3:
        instances = instances.prune_outliers(prune_tolerance)
    names = ("time_ns", *counters)
    pass1_names = names + (("address",) if want_address else ())
    prologue = build_prologue(
        trace.iter_sample_chunks(pass1_names, chunk_rows),
        instances,
        counters,
        track_address=want_address,
    )
    acc = StreamingFold(prologue, grid_points=grid_points, bandwidth=bandwidth)
    addr_stream = None
    line_stream = None
    extras: tuple[str, ...] = ()
    if want_address:
        addr_stream = AddressStream(
            DataObjectRegistry(trace.objects), prologue.addr_range
        )
        extras += _ADDRESS_COLUMNS
    if want_lines:
        line_stream = LineStream(trace.callstack)
        extras += ("callstack_id",)
    for chunk in trace.iter_sample_chunks(names + extras, chunk_rows):
        _feed_sinks(chunk, acc.add_chunk(chunk), addr_stream, line_stream)
        if (
            report_every
            and on_snapshot is not None
            and acc.n_chunks % report_every == 0
            and acc.n_folded
        ):
            on_snapshot(acc.snapshot())
    result = acc.result(chunk_rows=chunk_rows)
    if dirs is not None:
        result = StreamedReport(
            performance=result,
            addresses=addr_stream.result() if addr_stream is not None else None,
            lines=line_stream.result() if line_stream is not None else None,
            directions=dirs,
        )
    if cache is not None:
        cache.put(key, result)
    return result


def _feed_sinks(chunk, proj: Projection, addr_stream, line_stream) -> None:
    """Pass one chunk's kept rows, at their projected σ, to the
    address and line accumulators that are live."""
    if addr_stream is not None:
        addr_stream.add(
            proj.sigma,
            *(np.asarray(chunk_column(chunk, c))[proj.inside] for c in _ADDRESS_COLUMNS),
        )
    if line_stream is not None:
        line_stream.add(
            proj.sigma, np.asarray(chunk_column(chunk, "callstack_id"))[proj.inside]
        )


# ---------------------------------------------------------------------------
# Single-pass live mode.
# ---------------------------------------------------------------------------


class LiveFold:
    """Single-pass monitoring fold: boundaries arrive with the stream.

    For always-on consumers watching a *live* sample source (a running
    :class:`~repro.extrae.tracer.Tracer`, a socket, a growing file):
    feed sample chunks through :meth:`observe` and iteration markers
    through :meth:`mark_iteration` as they happen; call
    :meth:`snapshot` any time for the partial curves and
    :meth:`finish` once for the final
    :class:`~repro.folding.model.PerformanceFold`.

    Each instance is folded by the kernel as one chunk once the stream
    has passed its end.  Because the final σ span and kept count are
    unknowable mid-stream, the design accumulates on the fixed [0, 1]
    span — deterministic and chunk-invariant, but not bit-identical to
    the resident fit (bin width 1/4096 ≤ bandwidth/8 for every ablation
    bandwidth; the equivalence tests pin it against the fixed-span
    accumulator fed the whole trace).  Instances are not outlier-pruned: a monitor
    wants to *see* the perturbed instance, not drop it.

    Memory: the design sums plus a raw-row buffer covering the open
    instance and the interpolation window — O(chunk + one instance),
    never O(stream).

    With ``directions`` beyond ``("counters",)`` the flush also feeds
    the bounded address and line accumulators, and :meth:`snapshot_report`
    serves a partial three-panel
    :class:`~repro.folding.stream_views.StreamedReport` at any point.
    Live limitations, both documented approximations of the offline
    streamed report: the address view has no density sketch (the span
    is unknowable up front) and no object registry (objects are still
    being allocated) — resolve offline against the saved trace for
    full fidelity.  Hook a live fold onto a running simulation with
    ``TracerConfig(live_fold=...)``; the
    :class:`~repro.extrae.tracer.Tracer` feeds samples, iteration
    marks and its call-stack interner automatically.
    """

    def __init__(
        self,
        counters: tuple[str, ...] = SAMPLE_COUNTERS,
        grid_points: int = 201,
        bandwidth: float = 0.015,
        name: str = "iteration",
        directions=None,
        callstack_resolver=None,
    ) -> None:
        self._counters = tuple(counters)
        self.grid_points = grid_points
        self.bandwidth = bandwidth
        self._name = name or "iteration"
        dirs = _normalize_directions(directions)
        self._directions = dirs if dirs is not None else ("counters",)
        self._addr: AddressStream | None = None
        self._line: LineStream | None = None
        extras: tuple[str, ...] = ()
        if "address" in self._directions:
            self._addr = AddressStream(DataObjectRegistry(), None)
            extras += _ADDRESS_COLUMNS
        if "lines" in self._directions:
            self._line = LineStream(callstack_resolver)
            extras += ("callstack_id",)
        self._extras = extras
        self._acc = DesignAccumulator(len(self._counters))
        self._marks: list[float] = []
        self._intervals: list[tuple[float, float]] = []
        self._totals: dict[str, list[float]] = {n: [] for n in self._counters}
        self._degen: dict[str, list[bool]] = {n: [] for n in self._counters}
        self._flushed = 0
        self._buf: list[dict[str, np.ndarray]] = []
        self._prev: dict[str, np.ndarray] | None = None
        self._dropped_t = -math.inf
        self._last_t: float | None = None
        self._finished = False
        self.n_rows = 0
        self.n_chunks = 0

    @property
    def n_folded(self) -> int:
        return self._acc.n

    @property
    def required_columns(self) -> tuple[str, ...]:
        """Columns every :meth:`observe` chunk must carry."""
        return ("time_ns", *self._counters, *self._extras)

    def bind_callstacks(self, resolver) -> None:
        """Late-bind the call-stack resolver for the line direction
        (the :class:`~repro.extrae.tracer.Tracer` hook calls this with
        its trace's interner)."""
        if self._line is not None:
            self._line.bind(resolver)

    # -- inputs ------------------------------------------------------------
    def observe(self, chunk) -> None:
        """Feed one time-ordered sample chunk."""
        if self._finished:
            raise ValueError("LiveFold is finished")
        # Copy: a live source may reuse or grow its buffers under us.
        cols = {
            name: np.array(chunk_column(chunk, name), dtype=np.float64)
            for name in self.required_columns
        }
        t = cols["time_ns"]
        self.n_chunks += 1
        if t.size == 0:
            return
        if (np.diff(t) < 0.0).any() or (
            self._last_t is not None and t[0] < self._last_t
        ):
            raise ValueError("sample chunks must arrive in time order")
        self._buf.append(cols)
        self._last_t = float(t[-1])
        self.n_rows += int(t.size)
        self._drain()

    def mark_iteration(self, time_ns: float) -> None:
        """Record an iteration boundary at *time_ns*.

        Marks must be strictly increasing and roughly in stream
        position: a mark may trail the samples by up to the retained
        buffer (chunk-granularity lateness is fine), but once rows at
        or past a time have been trimmed, a mark there would fold from
        lost data and is rejected.
        """
        if self._finished:
            raise ValueError("LiveFold is finished")
        time_ns = float(time_ns)
        if self._marks and time_ns <= self._marks[-1]:
            raise ValueError("iteration marks must strictly increase")
        if time_ns <= self._dropped_t:
            raise ValueError(
                "iteration mark arrived after its samples were trimmed — "
                "deliver marks in stream order"
            )
        self._marks.append(time_ns)
        if len(self._marks) >= 2:
            self._intervals.append((self._marks[-2], self._marks[-1]))
        self._drain()

    def finish(self, end_time_ns: float | None = None) -> PerformanceFold:
        """Close the open instance and return the final fold.

        The last instance ends at *end_time_ns* (default: the last
        observed sample time), mirroring how the offline instance
        detection closes on the end marker or the trace end.
        """
        if self._finished:
            raise ValueError("LiveFold is already finished")
        if not self._marks:
            raise ValueError("no iteration marks observed")
        end = end_time_ns if end_time_ns is not None else self._last_t
        if end is not None and float(end) > self._marks[-1]:
            self._intervals.append((self._marks[-1], float(end)))
        if not self._intervals:
            raise ValueError("no closed instances to fold")
        self._finished = True
        self._drain()
        instances = FoldInstances(self._name, tuple(self._intervals))
        counters = self._fit(instances.mean_duration_ns)
        return PerformanceFold(
            instances=instances,
            counters=counters,
            totals={
                n: np.asarray(v, dtype=np.float64)
                for n, v in self._totals.items()
            },
            degenerate={
                n: np.asarray(v, dtype=bool) for n, v in self._degen.items()
            },
            n_folded=self.n_folded,
            n_chunks=self.n_chunks,
        )

    # -- partial output ----------------------------------------------------
    def snapshot(self) -> FoldedCounters | None:
        """Partial curves over the instances flushed so far.

        ``None`` until at least one instance has closed with samples.
        """
        if self._flushed == 0 or self.n_folded == 0:
            return None
        closed = self._intervals[: self._flushed]
        durations = np.asarray([t1 - t0 for t0, t1 in closed])
        return self._fit(float(durations.mean()))

    def snapshot_report(self) -> StreamedReport | None:
        """Partial three-panel report over the instances flushed so far.

        ``None`` until at least one instance has closed with samples.
        The performance panel matches :meth:`snapshot`; address and
        line panels (when their directions are live) hold exactly the
        flushed samples — a mid-simulation consumer sees the trace
        folded up to the last completed instance.
        """
        counters = self.snapshot()
        if counters is None:
            return None
        closed = tuple(self._intervals[: self._flushed])
        performance = PerformanceFold(
            instances=FoldInstances(self._name, closed),
            counters=counters,
            totals={
                n: np.asarray(v[: self._flushed], dtype=np.float64)
                for n, v in self._totals.items()
            },
            degenerate={
                n: np.asarray(v[: self._flushed], dtype=bool)
                for n, v in self._degen.items()
            },
            n_folded=self.n_folded,
            n_chunks=self.n_chunks,
        )
        return StreamedReport(
            performance=performance,
            addresses=self._addr.result() if self._addr is not None else None,
            lines=self._line.result() if self._line is not None else None,
            directions=self._directions,
        )

    def _fit(self, duration_ns: float) -> FoldedCounters:
        totals_mean = {
            name: float(np.asarray(vals, dtype=np.float64).mean())
            for name, vals in self._totals.items()
        }
        return fit_counter_curves(
            self._acc.design(),
            grid_points=self.grid_points,
            bandwidth=self.bandwidth,
            counters=self._counters,
            totals_mean=totals_mean,
            duration_ns=duration_ns,
        )

    # -- internals ---------------------------------------------------------
    def _window(self) -> dict[str, np.ndarray]:
        parts = ([self._prev] if self._prev is not None else []) + self._buf
        return {
            name: np.concatenate([p[name] for p in parts]) if parts else np.empty(0)
            for name in self.required_columns
        }

    def _drain(self) -> None:
        while self._flushed < len(self._intervals):
            t1 = self._intervals[self._flushed][1]
            if not self._finished and not (
                self._last_t is not None and t1 < self._last_t
            ):
                break  # end boundary not strictly passed yet
            self._flush(self._flushed)
            self._flushed += 1
        self._trim()

    def _flush(self, i: int) -> None:
        """Fold closed instance *i* from the window as one chunk.

        The window holds every row of the instance plus, as its left
        edge, the last row before it (the trim policy keeps both), so
        the boundary scan's interpolation equals the one over the whole
        series.
        """
        window = self._window()
        instance = FoldInstances(self._name, (self._intervals[i],))
        prologue = build_prologue([window], instance, self._counters)
        proj = project(window, instance, prologue)
        self._acc.add(proj.sigma, proj.fractions)
        for name in self._counters:
            self._totals[name].append(float(prologue.totals[name][0]))
            self._degen[name].append(bool(prologue.degenerate[name][0]))
        _feed_sinks(window, proj, self._addr, self._line)

    def _trim(self) -> None:
        """Drop buffered chunks no longer reachable by a future flush.

        Rows below the first unflushed instance start (or, with every
        closed instance flushed, below the open instance's start) can
        only ever be needed as the left edge of a boundary-
        interpolation window, so the last dropped row is carried in
        ``_prev`` as that edge.
        """
        if self._flushed < len(self._intervals):
            threshold = self._intervals[self._flushed][0]
        elif self._marks and not self._finished:
            threshold = self._marks[-1]
        else:
            threshold = math.inf
        while self._buf and float(self._buf[0]["time_ns"][-1]) < threshold:
            if not self._marks and not self._finished and len(self._buf) == 1:
                break  # keep one chunk of slack for a slightly late first mark
            dropped = self._buf.pop(0)
            self._prev = {name: arr[-1:] for name, arr in dropped.items()}
            self._dropped_t = float(dropped["time_ns"][-1])
