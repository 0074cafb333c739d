"""Streaming fold: exactness, chunk invariance, cache interop, LiveFold.

The acceptance property of the streaming pipeline: for any chunk size,
any engine and any workload, :func:`repro.folding.stream.stream_fold_trace`
produces curves, totals and degenerate flags bit-identical to the
resident :func:`repro.folding.report.fold_trace` — the chunk boundary
is an implementation detail that must never leak into the numbers.
"""

import numpy as np
import pytest

from repro.extrae.events import EventKind, TraceEvent
from repro.extrae.trace import _SAMPLE_COLUMNS, SampleTable, Trace
from repro.extrae.tracer import TracerConfig
from repro.folding.cache import FoldCache
from repro.folding.detect import instances_from_iterations
from repro.folding.model import PerformanceFold
from repro.folding.report import FoldedReport, fold_trace
from repro.folding.stream import LiveFold, fold_digest, stream_fold_trace
from repro.pipeline import SessionConfig, run_workload
from repro.simproc.machine import SAMPLE_COUNTERS
from repro.vmem.callstack import CallStack, Frame
from repro.workloads import HpcgWorkload
from repro.workloads.stream import StreamConfig, StreamWorkload
from tests.conftest import small_hpcg_config

NAMES = ("time_ns", *SAMPLE_COUNTERS)


def stream_trace(seed=3, engine="analytic", n=1 << 14, iterations=3, period=64):
    return run_workload(
        StreamWorkload(StreamConfig(n=n, iterations=iterations, blocks=2)),
        SessionConfig(
            seed=seed,
            engine=engine,
            tracer=TracerConfig(load_period=period, store_period=period),
        ),
    )


@pytest.fixture(scope="module")
def trace():
    return stream_trace()


@pytest.fixture(scope="module")
def resident(trace):
    return fold_trace(trace)


def assert_stream_matches_resident(streamed, report):
    """Bit-identity of everything the streamed fold re-derives."""
    assert isinstance(streamed, PerformanceFold)
    assert streamed.digest() == fold_digest(report)
    np.testing.assert_array_equal(
        streamed.counters.sigma, report.counters.sigma
    )
    assert streamed.counters.curves.keys() == report.counters.curves.keys()
    for name, curve in streamed.counters.curves.items():
        ref = report.counters.curves[name]
        np.testing.assert_array_equal(curve.cumulative, ref.cumulative)
        np.testing.assert_array_equal(curve.rate, ref.rate)
    assert streamed.n_folded == report.samples.n
    for name in SAMPLE_COUNTERS:
        np.testing.assert_array_equal(
            streamed.totals[name], report.samples.totals[name]
        )
        np.testing.assert_array_equal(
            streamed.degenerate[name], report.samples.degenerate[name]
        )


class TestStreamedEqualsResident:
    @pytest.mark.parametrize("chunk_rows", [7, 997, 1 << 20])
    def test_chunk_boundary_invariance(self, trace, resident, chunk_rows):
        streamed = stream_fold_trace(trace, chunk_rows=chunk_rows)
        assert_stream_matches_resident(streamed, resident)

    def test_binned_regime(self):
        # dense sampling pushes n_kept past BIN_THRESHOLD
        trace = stream_trace(seed=9, period=8)
        report = fold_trace(trace)
        assert report.samples.n > 4096
        for chunk_rows in (311, 1 << 20):
            assert_stream_matches_resident(
                stream_fold_trace(trace, chunk_rows=chunk_rows), report
            )

    @pytest.mark.parametrize("compression", ["none", "deflate"])
    def test_from_saved_container(self, trace, resident, tmp_path, compression):
        path = tmp_path / f"t-{compression}.bsctrace"
        trace.save(path, compression=compression)
        streamed = stream_fold_trace(path, chunk_rows=501)
        assert_stream_matches_resident(streamed, resident)

    def test_hpcg_workload(self, hpcg_trace):
        report = fold_trace(hpcg_trace)
        streamed = stream_fold_trace(hpcg_trace, chunk_rows=1009)
        assert_stream_matches_resident(streamed, report)

    def test_parameters_carry_through(self, trace):
        report = fold_trace(trace, grid_points=51, bandwidth=0.05,
                            prune_tolerance=None)
        streamed = stream_fold_trace(trace, grid_points=51, bandwidth=0.05,
                                     prune_tolerance=None, chunk_rows=640)
        assert_stream_matches_resident(streamed, report)

    def test_snapshot_cadence(self, trace):
        seen = []
        streamed = stream_fold_trace(
            trace, chunk_rows=200, report_every=2, on_snapshot=seen.append
        )
        assert seen, "no snapshots emitted"
        for partial in seen:
            assert partial.sigma.size == 201
            assert set(partial.curves) == set(SAMPLE_COUNTERS)
        # the stream of partials converges on the final curves
        np.testing.assert_array_equal(
            seen[-1].curves["instructions"].cumulative,
            streamed.counters.curves["instructions"].cumulative,
        )


@pytest.mark.slow
class TestEngineWorkloadMatrix:
    """Chunk invariance for every engine × workload, including rows=1."""

    @pytest.mark.parametrize("engine", ["analytic", "precise", "vectorized"])
    def test_stream_workload(self, engine):
        trace = stream_trace(seed=11, engine=engine, n=1 << 12)
        report = fold_trace(trace)
        for chunk_rows in (1, 97, 1 << 20):
            assert_stream_matches_resident(
                stream_fold_trace(trace, chunk_rows=chunk_rows), report
            )

    @pytest.mark.parametrize("engine", ["analytic", "precise", "vectorized"])
    def test_hpcg_workload(self, engine):
        trace = run_workload(
            HpcgWorkload(small_hpcg_config(n_iterations=3, nx=8)),
            SessionConfig(
                seed=2,
                engine=engine,
                tracer=TracerConfig(load_period=500, store_period=500),
            ),
        )
        report = fold_trace(trace)
        for chunk_rows in (1, 251):
            assert_stream_matches_resident(
                stream_fold_trace(trace, chunk_rows=chunk_rows), report
            )


class TestCacheSharing:
    def test_resident_entry_serves_streamed(self, trace, tmp_path):
        cache = FoldCache(directory=tmp_path)
        report = fold_trace(trace, cache=cache)
        streamed = stream_fold_trace(trace, cache=cache)
        assert_stream_matches_resident(streamed, report)

    def test_streamed_entry_upgraded_by_resident(self, trace, tmp_path):
        cache = FoldCache(directory=tmp_path)
        first = stream_fold_trace(trace, cache=cache)
        # a streamed entry cannot serve the full three-direction report:
        # the resident path treats it as a miss and overwrites it
        report = fold_trace(trace, cache=cache)
        assert isinstance(report, FoldedReport)
        assert fold_digest(report) == first.digest()
        # ... after which the streamed path adapts the resident entry
        again = stream_fold_trace(trace, cache=cache)
        assert_stream_matches_resident(again, report)

    @pytest.mark.parametrize("directions", [None, ("counters", "address", "lines")])
    def test_counter_subset_never_aliases_default(self, trace, tmp_path, directions):
        """A counter-subset fold is stored under its own key: a later
        default-subset request, through this cache or a fresh one on
        the same directory, gets every counter back."""
        cache = FoldCache(directory=tmp_path)
        subset = ("instructions", "cycles")
        first = stream_fold_trace(
            trace, counters=subset, cache=cache, directions=directions
        )
        assert set(first.counters.curves) == set(subset)
        for c in (cache, FoldCache(directory=tmp_path)):
            full = stream_fold_trace(trace, cache=c, directions=directions)
            assert set(full.counters.curves) == set(SAMPLE_COUNTERS)


def synthetic_trace(drift: float) -> Trace:
    """Two-iteration trace whose ``flops`` counter drifts by *drift*.

    All other counters grow normally.  With a zero or tiny-negative
    drift the per-instance raw increment is non-positive — the
    degenerate-clamp case that must flag (not crash, not go negative)
    identically in both fold paths.
    """
    n = 64
    t = np.linspace(100.0, 900.0, n)
    columns = {
        "time_ns": t.astype(np.float64),
        "address": np.arange(n, dtype=np.uint64) * 64,
        "op": np.zeros(n, dtype=np.int8),
        "source": np.ones(n, dtype=np.int8),
        "latency": np.full(n, 12.0, dtype=np.float32),
        "callstack_id": np.zeros(n, dtype=np.int32),
        "label_id": np.zeros(n, dtype=np.int32),
    }
    for name in SAMPLE_COUNTERS:
        columns[name] = np.linspace(0.0, 1e6, n)
    columns["flops"] = np.linspace(0.0, drift, n)
    events = [
        TraceEvent(100.0, EventKind.ITERATION),
        TraceEvent(500.0, EventKind.ITERATION),
        TraceEvent(900.0, EventKind.MARKER, "execution_phase_end"),
    ]
    return Trace.from_parts(
        metadata={"duration_ns": 1000.0},
        events=events,
        labels=["main"],
        callstacks=[CallStack((Frame("main", "main.c", 1),))],
        table=SampleTable({k: columns[k] for k in _SAMPLE_COLUMNS}),
    )


class TestDegenerateClamp:
    @pytest.mark.parametrize("drift", [0.0, -1e-9, -5.0])
    def test_flags_match_resident(self, drift):
        trace = synthetic_trace(drift)
        report = fold_trace(trace, prune_tolerance=None)
        streamed = stream_fold_trace(trace, prune_tolerance=None,
                                     chunk_rows=5)
        assert_stream_matches_resident(streamed, report)
        assert streamed.degenerate["flops"].all()
        assert not streamed.degenerate["instructions"].any()
        # the single clamp site keeps totals non-negative
        assert (streamed.totals["flops"] >= 0.0).all()

    def test_healthy_counter_not_flagged(self):
        trace = synthetic_trace(1e6)
        streamed = stream_fold_trace(trace, prune_tolerance=None)
        assert not streamed.degenerate["flops"].any()


class TestLiveFold:
    def feed(self, trace, chunk_rows, live=None):
        """Drive a LiveFold from a finished trace's chunks + markers."""
        instances = instances_from_iterations(trace)
        marks = [instances.intervals[0][0]] + [e for _, e in instances.intervals]
        live = live or LiveFold()
        pending = list(marks)
        for chunk in trace.iter_sample_chunks(NAMES, chunk_rows):
            live.observe(chunk)
            while pending and pending[0] <= chunk["time_ns"][-1]:
                live.mark_iteration(pending.pop(0))
        for mark in pending:
            live.mark_iteration(mark)
        return live.finish(end_time_ns=marks[-1]), instances

    def test_snapshot_lifecycle(self, trace):
        live = LiveFold()
        assert live.snapshot() is None  # nothing flushed yet
        _final, _ = self.feed(trace, 256, live=live)
        partial = live.snapshot()
        assert partial is not None and partial.sigma.size == 201

    def test_buffer_stays_bounded(self, trace):
        live = LiveFold()
        self.feed(trace, 64, live=live)
        # after finish the whole buffer has been flushed and trimmed
        assert len(live._buf) <= 1

    def test_errors(self, trace):
        live = LiveFold()
        chunks = trace.iter_sample_chunks(NAMES, 1 << 20)
        chunk = next(chunks)
        t = chunk["time_ns"]
        live.observe(chunk)
        live.mark_iteration(t[0])
        with pytest.raises(ValueError, match="strictly increase"):
            live.mark_iteration(t[0])
        with pytest.raises(ValueError, match="time order"):
            live.observe({name: chunk[name][::-1].copy() for name in NAMES})
        live.mark_iteration(t[-1])
        live.finish()
        with pytest.raises(ValueError):
            live.observe(chunk)
        with pytest.raises(ValueError):
            live.mark_iteration(t[-1] + 1.0)
        with pytest.raises(ValueError, match="no iteration marks"):
            LiveFold().finish()

    def test_late_mark_after_trim_rejected(self, trace):
        live = LiveFold()
        chunks = list(trace.iter_sample_chunks(NAMES, 64))
        assert len(chunks) > 2
        for chunk in chunks:
            live.observe(chunk)
        # with no marks yet only one chunk of slack is retained; a
        # first mark planted back at the trace start would fold from
        # lost data and must be refused
        with pytest.raises(ValueError, match="trimmed"):
            live.mark_iteration(float(chunks[0]["time_ns"][-1]))
        # a first mark inside the retained slack is still accepted
        live.mark_iteration(float(chunks[-1]["time_ns"][0]))
