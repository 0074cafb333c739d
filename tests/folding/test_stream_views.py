"""Streamed address & line directions: exactness, invariance, wiring.

The acceptance properties of the three-direction streamed report
(:mod:`repro.folding.address`, :mod:`repro.folding.stream_views`):

* the exact parts — per-object/source/op accounting and the line/region
  count matrices — are digest-identical to the resident fold;
* the bounded parts — reservoir and density sketch — are
  chunk-size-invariant by construction, and their fidelity against the
  resident scatter is measured, not assumed;
* the resident address view is the same accumulator with no point
  bound;
* the wiring works end to end: ``stream_fold_trace(directions=...)``,
  the CLI ``--stream --directions``, cache ``kind``
  separation, ASCII rendering, and :class:`LiveFold` hooked onto a
  running :class:`~repro.extrae.tracer.Tracer`.
"""

import numpy as np
import pytest

from repro.cli import main_fold
from repro.extrae.tracer import TracerConfig
from repro.folding.address import (
    AddressReservoir,
    AddressStream,
    DensitySketch,
    measure_address_fidelity,
)
from repro.folding.ascii_plot import render_address_panel, render_figure
from repro.folding.cache import FoldCache
from repro.folding.detect import instances_from_iterations
from repro.folding.fold import build_prologue, project
from repro.folding.lines import FoldedLines, fold_lines, leaf_and_region
from repro.folding.model import PerformanceFold
from repro.folding.report import FoldedReport, fold_trace
from repro.folding.stream import LiveFold, stream_fold_trace
from repro.folding.stream_views import StreamedReport, lines_from_folded
from repro.objects.registry import DataObjectRegistry
from repro.pipeline import SessionConfig, run_workload
from repro.workloads import HpcgWorkload
from repro.workloads.stream import StreamConfig, StreamWorkload
from tests.conftest import sampler_session_config, small_hpcg_config

DIRECTIONS = ("counters", "address", "lines")


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


@pytest.fixture(scope="module")
def streamed(trace):
    report = stream_fold_trace(trace, chunk_rows=333, directions=DIRECTIONS)
    assert isinstance(report, StreamedReport)
    return report


def address_stream(trace, capacity, chunk_rows):
    """Drive the address accumulator at *capacity* over *trace*'s kept
    samples in chunks of *chunk_rows*, as the streamed fold does."""
    instances = instances_from_iterations(trace).prune_outliers(0.5)
    prologue = build_prologue(
        trace.iter_sample_chunks(("time_ns", "address"), chunk_rows),
        instances,
        (),
        track_address=True,
    )
    stream = AddressStream(
        DataObjectRegistry(trace.objects), prologue.addr_range, capacity=capacity
    )
    columns = ("address", "op", "source", "latency")
    for chunk in trace.iter_sample_chunks(("time_ns", *columns), chunk_rows):
        proj = project(chunk, instances)
        stream.add(proj.sigma, *(np.asarray(chunk[c])[proj.inside] for c in columns))
    return stream.result()


def assert_directions_match_resident(report, resident):
    """The exact streamed products equal the resident fold's."""
    assert (
        report.addresses.accounting.digest()
        == resident.addresses.accounting.digest()
    )
    assert report.lines.digest() == lines_from_folded(resident.lines).digest()
    fidelity = measure_address_fidelity(report.addresses, resident.addresses)
    assert fidelity.accounting_exact
    assert fidelity.matched_fraction_error == 0.0
    assert fidelity.sketch_band_error == 0.0


class TestStreamedEqualsResident:
    def test_performance_panel_unchanged(self, streamed, resident):
        from repro.folding.stream import fold_digest

        assert fold_digest(streamed.performance) == fold_digest(resident)
        assert streamed.n_folded == resident.samples.n

    def test_accounting_exact(self, streamed, resident):
        acc = streamed.addresses.accounting
        ref = resident.addresses.accounting
        assert acc.digest() == ref.digest()
        assert acc.n == resident.addresses.n
        np.testing.assert_array_equal(acc.object_counts, ref.object_counts)
        np.testing.assert_array_equal(acc.object_latency, ref.object_latency)

    def test_matched_fraction_exact(self, streamed, resident):
        assert streamed.addresses.matched_fraction() == pytest.approx(
            resident.addresses.matched_fraction()
        )

    def test_sketch_equals_binned_resident(self, streamed, resident):
        sketch = streamed.addresses.sketch
        ref = DensitySketch.empty(
            sketch.lo, sketch.hi, sketch.bands, sketch.sigma_bins
        )
        ref.add(resident.addresses.sigma, resident.addresses.address)
        assert sketch.digest() == ref.digest()
        assert sketch.n == resident.addresses.n

    def test_reservoir_is_full_scatter_at_capacity(self, streamed, resident):
        """capacity ≥ kept samples ⇒ the reservoir IS the resident
        scatter, in stream order."""
        a = streamed.addresses
        r = resident.addresses
        assert a.n == r.n
        np.testing.assert_array_equal(a.sigma, r.sigma)
        np.testing.assert_array_equal(a.address, np.asarray(r.address, np.uint64))
        np.testing.assert_array_equal(a.op, r.op)
        np.testing.assert_array_equal(a.source, r.source)
        np.testing.assert_array_equal(a.latency, r.latency)
        np.testing.assert_array_equal(a.object_index, r.object_index)
        np.testing.assert_array_equal(a.kept_index, np.arange(r.n))

    def test_lines_digest(self, streamed, resident):
        assert (
            streamed.lines.digest() == lines_from_folded(resident.lines).digest()
        )
        assert streamed.lines.n == resident.lines.n

    def test_fidelity_bounds(self, streamed, resident):
        fidelity = measure_address_fidelity(streamed.addresses, resident.addresses)
        assert fidelity.accounting_exact
        assert fidelity.matched_fraction_error == 0.0
        assert fidelity.sketch_band_error == 0.0
        # Reservoir == full scatter here, so even the measured
        # subsample error vanishes.
        assert fidelity.reservoir_band_error == 0.0
        assert fidelity.reservoir_points == fidelity.resident_points

    def test_summary_mentions_all_directions(self, streamed):
        text = streamed.summary()
        assert "addresses:" in text
        assert "reservoir" in text
        assert "lines:" in text


class TestChunkInvariance:
    """The full streamed digest is a pure function of (trace, params)."""

    def test_digest_across_chunk_sizes(self, trace, streamed):
        for chunk_rows in (7, 997, 1 << 20):
            other = stream_fold_trace(
                trace, chunk_rows=chunk_rows, directions=DIRECTIONS
            )
            assert other.digest() == streamed.digest()

    def test_small_reservoir_invariant(self, trace):
        views = [address_stream(trace, 64, rows) for rows in (13, 997, 1 << 20)]
        assert {a.digest() for a in views} == {views[0].digest()}
        assert views[0].n == 64

    def test_small_reservoir_subsamples_resident(self, trace, resident):
        """Every surviving point is the resident point at its global
        kept index — the reservoir never fabricates samples."""
        a = address_stream(trace, 128, 333)
        r = resident.addresses
        assert a.n == 128
        assert a.n_folded == r.n
        np.testing.assert_array_equal(a.sigma, r.sigma[a.kept_index])
        np.testing.assert_array_equal(
            a.address, np.asarray(r.address, np.uint64)[a.kept_index]
        )
        np.testing.assert_array_equal(a.latency, r.latency[a.kept_index])

    def test_from_saved_container(self, trace, streamed, tmp_path):
        path = tmp_path / "t.bsctrace"
        trace.save(path)
        report = stream_fold_trace(
            str(path), chunk_rows=997, directions=DIRECTIONS
        )
        assert report.digest() == streamed.digest()


class TestStreamedLinesSemantics:
    def test_dominant_region_bin_aligned(self, streamed, resident):
        for lo, hi in ((0.0, 0.5), (0.5, 1.0), (0.25, 0.75), (0.0, 1.0)):
            assert streamed.lines.dominant_region(lo, hi) == (
                resident.lines.dominant_region(lo, hi)
            )

    def test_zero_width_window_raises(self, streamed, resident):
        """Zero-width and reversed windows hold no samples: both
        products raise."""
        for lines in (streamed.lines, resident.lines):
            for lo, hi in ((0.5, 0.5), (0.6, 0.4)):
                with pytest.raises(ValueError):
                    lines.dominant_region(lo, hi)

    def test_empty_window_raises(self, streamed):
        empty = streamed.lines.region_counts.sum(axis=0) == 0
        if not empty.any():
            pytest.skip("no empty sigma bin in this trace")
        b = int(np.argmax(empty))
        bins = streamed.lines.sigma_bins
        with pytest.raises(ValueError):
            streamed.lines.dominant_region(b / bins, (b + 1) / bins)


class TestBoundedSummaryUnits:
    def test_reservoir_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            AddressReservoir(capacity=0)

    def test_sketch_rejects_empty_span(self):
        with pytest.raises(ValueError):
            DensitySketch.empty(10, 9)

    def test_sketch_band_density_sums_to_one(self, streamed):
        density = streamed.addresses.sketch.band_density()
        assert density.sum() == pytest.approx(1.0)
        edges = streamed.addresses.sketch.band_edges()
        assert edges.size == streamed.addresses.sketch.bands + 1
        assert edges[0] == streamed.addresses.sketch.lo

    def test_measured_reservoir_error_small(self, trace, resident):
        """A genuinely subsampling reservoir: the measured band error
        is small but non-zero — the bound is real, not vacuous."""
        a = address_stream(trace, 256, 333)
        fidelity = measure_address_fidelity(a, resident.addresses)
        assert fidelity.sketch_band_error == 0.0
        assert 0.0 < fidelity.reservoir_band_error < 0.1


class TestFoldLinesVectorized:
    """Satellite: the vectorized fold_lines equals a per-sample loop."""

    @staticmethod
    def reference_fold_lines(folded, trace):
        cs_ids = np.asarray(folded.table.callstack_id, dtype=np.int64)
        line_table, region_table = [], []
        line_lookup, region_lookup = {}, {}
        per_cs = {}
        for cid in np.unique(cs_ids):
            key, region = leaf_and_region(trace.callstack(int(cid)))
            if key not in line_lookup:
                line_lookup[key] = len(line_table)
                line_table.append(key)
            if region not in region_lookup:
                region_lookup[region] = len(region_table)
                region_table.append(region)
            per_cs[int(cid)] = (line_lookup[key], region_lookup[region])
        return FoldedLines(
            sigma=folded.sigma,
            line_id=np.array([per_cs[int(c)][0] for c in cs_ids], np.int64),
            line_table=line_table,
            region_id=np.array([per_cs[int(c)][1] for c in cs_ids], np.int64),
            region_table=region_table,
        )

    def test_matches_reference(self, trace, resident):
        got = fold_lines(resident.samples, trace)
        ref = self.reference_fold_lines(resident.samples, trace)
        assert got.line_table == ref.line_table
        assert got.region_table == ref.region_table
        np.testing.assert_array_equal(got.line_id, ref.line_id)
        np.testing.assert_array_equal(got.region_id, ref.region_id)
        assert (
            lines_from_folded(got).digest() == lines_from_folded(ref).digest()
        )


class TestApiWiring:
    def test_pipeline_face(self, trace, streamed):
        """The streamed fold is called directly; the pipeline keeps no
        wrapper around it."""
        import repro.pipeline

        assert not hasattr(repro.pipeline, "streamfold_trace")
        report = stream_fold_trace(trace, chunk_rows=333, directions=DIRECTIONS)
        assert report.digest() == streamed.digest()

    def test_counters_only_stays_streamed_fold(self, trace):
        assert isinstance(
            stream_fold_trace(trace, directions=("counters",)), PerformanceFold
        )

    def test_directions_normalized(self, trace):
        report = stream_fold_trace(trace, chunk_rows=1 << 20, directions=("address",))
        assert isinstance(report, StreamedReport)
        assert "counters" in report.directions
        assert report.lines is None
        assert report.addresses is not None

    def test_unknown_direction_rejected(self, trace):
        with pytest.raises(ValueError):
            stream_fold_trace(trace, directions=("bogus",))

    def test_export_gnuplot(self, streamed, resident, tmp_path):
        written = streamed.export_gnuplot(tmp_path)
        names = {p.name for p in written}
        assert names == {
            "counters.dat", "addresses.dat", "address_density.dat",
            "objects.dat", "codeline_density.dat",
        }
        for p in written:
            assert p.stat().st_size > 0
        # addresses.dat: one header + one row per reservoir point.
        rows = (tmp_path / "addresses.dat").read_text().strip().split("\n")
        assert len(rows) == streamed.addresses.n + 1


class TestCacheKindSeparation:
    def test_streamed_entries_roundtrip_and_never_alias(self, trace, tmp_path):
        cache = FoldCache(directory=tmp_path)
        first = stream_fold_trace(
            trace, chunk_rows=333, directions=DIRECTIONS, cache=cache
        )
        n_after_put = cache.stats().n_entries
        assert n_after_put >= 1
        # Hit: same params, any chunk size (chunk_rows is not part of
        # the key — the product is chunk-invariant).
        hit = stream_fold_trace(
            trace, chunk_rows=997, directions=DIRECTIONS, cache=cache
        )
        assert isinstance(hit, StreamedReport)
        assert hit.digest() == first.digest()
        assert cache.stats().n_entries == n_after_put
        # A resident fold at the same fit parameters must NOT be served
        # the streamed entry (bounded summaries != resident views).
        report = fold_trace(trace, cache=cache)
        assert isinstance(report, FoldedReport)
        assert not isinstance(report, StreamedReport)
        # And the streamed request afterwards still gets a StreamedReport.
        again = stream_fold_trace(trace, directions=DIRECTIONS, cache=cache)
        assert isinstance(again, StreamedReport)
        assert again.digest() == first.digest()

    def test_annotations_do_not_bleed_into_cache(self, trace, tmp_path):
        cache = FoldCache(directory=tmp_path)
        first = stream_fold_trace(trace, directions=DIRECTIONS, cache=cache)
        first.addresses.annotate("scratch", 0, 1)
        fresh = stream_fold_trace(trace, directions=DIRECTIONS, cache=cache)
        assert fresh.addresses.bands == []


class TestAsciiRendering:
    def test_streamed_panel_equals_resident(self, streamed, resident):
        # capacity ≥ kept ⇒ reservoir == full scatter ⇒ identical panel.
        assert render_address_panel(streamed) == render_address_panel(resident)

    def test_missing_direction_renders_placeholder(self, trace):
        counters_and_lines = stream_fold_trace(
            trace, chunk_rows=1 << 20, directions=("lines",)
        )
        assert counters_and_lines.addresses is None
        assert render_address_panel(counters_and_lines) == "(no address direction)"

    def test_full_figure_renders(self, streamed):
        text = render_figure(streamed)
        assert "addresses referenced" in text
        assert "MIPS" in text


class _SnapshottingLiveFold(LiveFold):
    """Capture a partial three-panel report at every iteration mark."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.reports = []

    def mark_iteration(self, time_ns):
        super().mark_iteration(time_ns)
        report = self.snapshot_report()
        if report is not None:
            self.reports.append(
                (report.n_folded, report.addresses.n_folded, report.lines.n)
            )


class TestLiveTracerWiring:
    """LiveFold hooked on a running Tracer folds all three directions
    while the simulation is still producing samples."""

    @pytest.fixture(scope="class")
    def live(self):
        live = _SnapshottingLiveFold(directions=DIRECTIONS)
        run_workload(
            StreamWorkload(StreamConfig(n=1 << 12, iterations=4, blocks=2)),
            SessionConfig(
                seed=3,
                tracer=TracerConfig(
                    load_period=64, store_period=64, live_fold=live
                ),
            ),
        )
        return live

    def test_partial_reports_mid_run(self, live):
        assert len(live.reports) >= 2
        folded = [n for n, _, _ in live.reports]
        assert folded == sorted(folded)
        # The address/line accumulators grow with the fold.
        assert live.reports[-1][1] > live.reports[0][1]
        assert live.reports[-1][2] > live.reports[0][2]

    def test_final_report_has_all_directions(self, live):
        report = live.snapshot_report()
        assert isinstance(report, StreamedReport)
        assert report.addresses is not None and report.lines is not None
        assert report.addresses.n_folded > 0
        assert report.lines.n > 0
        assert "triad" in report.lines.region_table

    def test_live_limitations_are_explicit(self, live):
        report = live.snapshot_report()
        # No whole-trace prologue: span unknowable, registry empty.
        assert report.addresses.sketch is None
        assert report.addresses.matched_fraction() == 0.0
        assert "no sketch (live)" in report.summary()
        with pytest.raises(ValueError):
            measure_address_fidelity(
                report.addresses, fold_trace(stream_trace()).addresses
            )


class TestCli:
    def test_stream_directions_exports(self, trace, tmp_path):
        path = tmp_path / "t.bsctrace"
        trace.save(path)
        out = tmp_path / "out"
        rc = main_fold(
            [str(path), "--stream",
             "--directions", "counters,address,lines", "-o", str(out)]
        )
        assert rc == 0
        for name in ("counters.dat", "addresses.dat", "address_density.dat",
                     "objects.dat", "codeline_density.dat"):
            assert (out / name).exists()

    def test_directions_require_stream_flag(self, trace, tmp_path):
        path = tmp_path / "t.bsctrace"
        trace.save(path)
        with pytest.raises(SystemExit):
            main_fold([str(path), "--directions", "address"])


@pytest.mark.slow
class TestDirectionsMatrix:
    """Satellite acceptance: every engine × workload × sampler backend
    streams exact accounting/lines and a chunk-invariant digest."""

    def check(self, trace):
        resident = fold_trace(trace)
        assert resident.addresses.n > 0
        reports = [
            stream_fold_trace(trace, chunk_rows=rows, directions=DIRECTIONS)
            for rows in (251, 1 << 20)
        ]
        assert reports[0].digest() == reports[1].digest()
        assert_directions_match_resident(reports[0], resident)

    @pytest.mark.parametrize("engine", ["analytic", "precise", "vectorized"])
    def test_stream_workload(self, engine, sampler_backend):
        self.check(
            run_workload(
                StreamWorkload(StreamConfig(n=1 << 12, iterations=3, blocks=2)),
                sampler_session_config(
                    sampler_backend, engine=engine, seed=11, period=64
                ),
            )
        )

    @pytest.mark.parametrize("engine", ["analytic", "precise", "vectorized"])
    def test_hpcg_workload(self, engine, sampler_backend):
        self.check(
            run_workload(
                HpcgWorkload(small_hpcg_config(n_iterations=3, nx=8)),
                sampler_session_config(
                    sampler_backend, engine=engine, seed=2, period=500
                ),
            )
        )
