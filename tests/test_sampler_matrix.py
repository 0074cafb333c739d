"""Cross-backend differential test matrix: PEBS and SPE, end to end.

Every downstream layer — validation, TraceIndex, v1/v2 storage,
resident and streaming folding, rank spill/aggregation — must run
unchanged whichever sampling backend produced the trace.  The matrix
drives the engine×workload suites over both backends via the shared
``sampler_backend`` fixture, and pins today's PEBS digests so the
sampler refactor (and any future one) provably leaves the default
path bit-identical.
"""

import numpy as np
import pytest

from repro.extrae.trace import Trace
from repro.folding.report import fold_trace
from repro.folding.stream import fold_digest, stream_fold_trace
from repro.memsim.hierarchy import HierarchyConfig
from repro.memsim.patterns import MemOp
from repro.parallel import RankSet
from repro.pipeline import run_workload
from repro.validate import validate_trace
from repro.workloads import HpcgConfig, HpcgWorkload
from repro.workloads.randomaccess import RandomAccessConfig, RandomAccessWorkload
from repro.workloads.stream import StreamConfig, StreamWorkload

from tests.conftest import SAMPLER_BACKENDS, sampler_session_config, v1_fixture


def small_workloads():
    return {
        "stream": StreamWorkload(StreamConfig(n=2048, iterations=3, blocks=2)),
        "gups": RandomAccessWorkload(
            RandomAccessConfig(
                table_bytes=1 << 18, updates_per_iteration=1 << 11, iterations=3
            )
        ),
        "hpcg": HpcgWorkload(
            HpcgConfig(
                nx=8, ny=8, nz=8, nlevels=2, n_iterations=2, blocks_per_kernel=2
            )
        ),
    }


#: Shared trace cache so the matrix simulates each combination once.
_TRACES: dict[tuple[str, str, str], Trace] = {}


def traced(sampler, engine="analytic", workload="stream"):
    key = (sampler, engine, workload)
    if key not in _TRACES:
        _TRACES[key] = run_workload(
            small_workloads()[workload], sampler_session_config(sampler, engine=engine)
        )
    return _TRACES[key]


class TestValidation:
    """Both backends' traces pass the backend-aware validator."""

    @pytest.mark.parametrize("workload", ["stream", "gups"])
    def test_analytic_trace_passes_validator(self, sampler_backend, workload):
        trace = traced(sampler_backend, workload=workload)
        report = validate_trace(trace, HierarchyConfig())
        assert report.ok, f"{sampler_backend}/{workload}:\n{report.summary()}"
        assert trace.n_samples > 0

    def test_hpcg_trace_passes_validator(self, sampler_backend):
        report = validate_trace(
            traced(sampler_backend, workload="hpcg"), HierarchyConfig()
        )
        assert report.ok, report.summary()

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ["precise", "vectorized"])
    @pytest.mark.parametrize("workload", ["stream", "gups", "hpcg"])
    def test_heavy_engines_pass_validator(self, sampler_backend, engine, workload):
        trace = traced(sampler_backend, engine=engine, workload=workload)
        report = validate_trace(trace, HierarchyConfig())
        assert report.ok, report.summary()


class TestBackendSemantics:
    """The observable PEBS/SPE contrasts on identical workloads."""

    def test_spe_samples_stores_natively(self):
        table = traced("spe").sample_table()
        assert int(np.count_nonzero(table.op == int(MemOp.STORE))) > 0

    def test_spe_metadata_identifies_backend(self):
        md = traced("spe").metadata
        assert md["sampler"] == "spe"
        assert md["spe_period"] > 0

    def test_pebs_metadata_has_no_sampler_key(self):
        # absence == pebs; writing the key would change every existing
        # trace digest, so the default backend must never add it
        assert "sampler" not in traced("pebs").metadata


class TestTraceIndex:
    """Indexed queries ≡ boolean masks, whichever backend sampled."""

    def test_index_matches_masks(self, sampler_backend):
        trace = traced(sampler_backend)
        table = trace.sample_table()
        idx = trace.index().samples
        for op in (int(MemOp.LOAD), int(MemOp.STORE)):
            np.testing.assert_array_equal(
                idx.rows_for_op(op), np.nonzero(table.op == op)[0]
            )
        for label_id in range(len(trace.labels)):
            np.testing.assert_array_equal(
                idx.rows_for_label(label_id),
                np.nonzero(table.label_id == label_id)[0],
            )


class TestStorageRoundTrip:
    """Both container versions preserve the content digest (v1 through
    a committed container, v2 through a fresh save)."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_save_load_preserves_digest(self, sampler_backend, version, tmp_path):
        trace = traced(sampler_backend)
        if version == 1:
            # v1 is read-only: load this trace's committed v1 container.
            path = v1_fixture(f"sampler_{sampler_backend}")
        else:
            path = trace.save(tmp_path / "t.bsctrace")
        loaded = Trace.load(path)
        assert loaded.digest() == trace.digest()
        assert loaded.metadata.get("sampler") == trace.metadata.get("sampler")


class TestFolding:
    """Resident and streaming folds agree bit for bit per backend."""

    def test_stream_fold_matches_resident(self, sampler_backend):
        trace = traced(sampler_backend)
        report = fold_trace(trace)
        streamed = stream_fold_trace(trace, chunk_rows=501)
        assert fold_digest(streamed) == fold_digest(report)

    @pytest.mark.slow
    def test_stream_fold_matches_resident_hpcg(self, sampler_backend):
        trace = traced(sampler_backend, workload="hpcg")
        assert fold_digest(stream_fold_trace(trace, chunk_rows=257)) == fold_digest(
            fold_trace(trace)
        )


class _StreamFactory:
    """Picklable STREAM factory for the rank pipeline."""

    def __call__(self, rank, n_ranks):
        return StreamWorkload(StreamConfig(n=512, iterations=2))


class TestRankPipeline:
    """Spill/aggregation digests are backend-stable."""

    def test_pooled_spilled_matches_serial(self, sampler_backend):
        cfg = sampler_session_config(sampler_backend, seed=11, period=64)
        serial = RankSet(3, cfg, max_workers=1).run(_StreamFactory())
        pooled_set = RankSet(3, cfg, max_workers=2)
        pooled = pooled_set.run(_StreamFactory())
        try:
            for s, p in zip(serial, pooled):
                assert s.summary.digest == p.summary.digest
                assert p.trace.digest() == s.trace.digest()
        finally:
            pooled_set.cleanup_spill()


#: Content digests of the default-PEBS path on the engine cross-check
#: configurations, pinned at the sampler refactor (PR 7).  If any of
#: these move, a change broke RNG-stream or byte-level compatibility
#: of the default sampling path — that is a regression, not a baseline
#: to re-pin, unless the PR explicitly declares a digest break.
PEBS_PINNED_DIGESTS = {
    ("precise", "stream"): "a544596949678ffdb5959c3fdab7f68a0f63824a5483c841d64c9c36a3381f0c",
    ("precise", "gups"): "c819306c59b86eb90b682c7b7a2fd7c66d3ffb81b0f673e7012688e9b93797fd",
    ("precise", "hpcg"): "aabdb82c7ef0cbe0d3c704a37d54879d63961a882bb6702c82a578d0ab273b66",
    ("vectorized", "stream"): "1d816772961cdbc966b9629b6fa6e3231302edb0933aec1225e23b6c1ecc4d68",
    ("vectorized", "gups"): "1e78b2f41a04b06616d214d070920ff274615fe70436dadc8f52b015950a0e3c",
    ("vectorized", "hpcg"): "9957bbd1188e8b27168db42448c998befbdd14e109a90a61049d67ada5885f6d",
    ("analytic", "stream"): "504d0e084749134f167d5a8c19cd4b2d033cf00e4925e59dbed8a7c1ad5fd528",
    ("analytic", "gups"): "1fbdab06d2334ba2d460219c2249e908c9aa7898e31660c6bff4b18d71eb3a3a",
    ("analytic", "hpcg"): "d84ecb6baf1c87f5737733a3f4e1132db9851442683abd8542b1819646a39bca",
}


class TestPebsDigestStability:
    """The default path is digest-identical to the pre-refactor tree."""

    @pytest.mark.parametrize("engine,workload", sorted(PEBS_PINNED_DIGESTS))
    def test_digest_unchanged(self, engine, workload):
        trace = traced("pebs", engine=engine, workload=workload)
        assert trace.digest() == PEBS_PINNED_DIGESTS[(engine, workload)], (
            f"default-PEBS digest drifted for {engine}/{workload}; the "
            "sampler abstraction must keep the default path bit-identical"
        )


def test_backend_registry_is_exactly_the_matrix():
    assert SAMPLER_BACKENDS == ("pebs", "spe")
