"""v2 trace container: round-trips, lazy columns, compat with v1 files."""

import json
import mmap
import os
import zipfile

import numpy as np
import pytest

from repro.extrae.storage import ColumnReader, member_data_offset
from repro.extrae.trace import (
    _SAMPLE_COLUMNS,
    Trace,
    TraceSchemaError,
    _LazySampleTable,
)

from tests.conftest import v1_fixture
from tests.extrae.test_trace_fastpath import run_trace

GOLDEN = "tests/golden"


@pytest.fixture(scope="module")
def traced():
    return run_trace("vectorized", "stream")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "version, compression",
        [(2, "none"), (2, "deflate"), (1, "none")],
    )
    def test_digest_and_columns_preserved(
        self, traced, tmp_path, version, compression
    ):
        if version == 1:
            # v1 is read-only: load this trace's committed v1 container.
            path = v1_fixture("stream_vectorized")
        else:
            path = traced.save(
                tmp_path / f"t_{compression}.bsctrace", compression=compression
            )
        loaded = Trace.load(path)
        assert loaded.digest() == traced.digest()
        want = traced.sample_table()
        got = loaded.sample_table()
        for name in _SAMPLE_COLUMNS:
            col = got.column(name)
            assert col.dtype == np.dtype(_SAMPLE_COLUMNS[name])
            np.testing.assert_array_equal(col, want.column(name))
        assert loaded.n_samples == traced.n_samples
        assert loaded.labels == traced.labels
        assert len(loaded.events) == len(traced.events)

    def test_invalid_version_and_compression(self, traced, tmp_path):
        # Only the current container is written: no version knob.
        with pytest.raises(TypeError, match="version"):
            traced.save(tmp_path / "x.bsctrace", version=1)
        with pytest.raises(ValueError, match="compression"):
            traced.save(tmp_path / "x.bsctrace", compression="lz4")


class TestLazyLoading:
    def test_only_touched_columns_load(self, traced, tmp_path):
        path = tmp_path / "lazy.bsctrace"
        traced.save(path, compression="none")
        table = Trace.load(path).sample_table()
        assert isinstance(table, _LazySampleTable)
        assert table._reader.loaded == {}
        t = table.time_ns
        assert set(table._reader.loaded) == {"time_ns"}
        assert t.size == traced.n_samples

    def test_uncompressed_columns_are_memmapped(self, traced, tmp_path):
        path = tmp_path / "mm.bsctrace"
        traced.save(path, compression="none")
        table = Trace.load(path).sample_table()
        col = table.column("address")
        # Zero-copy: the column is a view over the reader's one shared
        # read-only map of the container, not an owned copy.
        assert not col.flags.owndata
        assert isinstance(col.base.obj, mmap.mmap)
        assert col.base.obj is table.column("time_ns").base.obj
        np.testing.assert_array_equal(col, traced.sample_table().address)

    def test_deflate_columns_are_plain_arrays(self, traced, tmp_path):
        path = tmp_path / "defl.bsctrace"
        traced.save(path, compression="deflate")
        table = Trace.load(path).sample_table()
        col = table.column("latency")
        assert not isinstance(col, np.memmap)
        np.testing.assert_array_equal(col, traced.sample_table().latency)

    def test_member_offset_points_at_raw_data(self, traced, tmp_path):
        path = tmp_path / "off.bsctrace"
        traced.save(path, compression="none")
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("columns/time_ns.bin")
            offset = member_data_offset(path, info)
        with open(path, "rb") as f:
            f.seek(offset)
            raw = np.frombuffer(f.read(info.file_size), dtype=np.float64)
        np.testing.assert_array_equal(raw, traced.sample_table().time_ns)

    def test_materialize_detaches_from_file(self, traced, tmp_path):
        path = tmp_path / "mat.bsctrace"
        traced.save(path, compression="none")
        table = Trace.load(path).sample_table().materialize()
        assert not isinstance(table, _LazySampleTable)
        for name in _SAMPLE_COLUMNS:
            assert not isinstance(table.column(name), np.memmap)
            np.testing.assert_array_equal(
                table.column(name), traced.sample_table().column(name)
            )


class TestMalformedV2:
    def test_missing_column_rejected(self, traced, tmp_path):
        src = tmp_path / "ok.bsctrace"
        bad = tmp_path / "bad.bsctrace"
        traced.save(src, compression="none")
        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(bad, "w") as zout:
            for info in zin.infolist():
                if info.filename == "columns/latency.bin":
                    continue
                data = zin.read(info.filename)
                if info.filename == "trace.json":
                    sidecar = json.loads(data)
                    del sidecar["columns"]["latency"]
                    data = json.dumps(sidecar).encode()
                zout.writestr(info.filename, data)
        with pytest.raises(TraceSchemaError, match="latency"):
            Trace.load(bad).sample_table().column("latency")

    def test_column_reader_validates_lengths(self, traced, tmp_path):
        path = tmp_path / "len.bsctrace"
        traced.save(path, compression="none")
        reader = ColumnReader(path)
        assert reader.n_samples == traced.n_samples
        assert set(reader.columns()) == set(_SAMPLE_COLUMNS)


def _open_fds() -> int:
    """Count this process's open file descriptors (gc-independent)."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):  # pragma: no cover - non-Linux
        fd_dir = "/dev/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("no fd directory on this platform")
    return len(os.listdir(fd_dir))


class TestHandleLifecycle:
    """Explicit close()/context-manager support on the lazy read side."""

    @pytest.fixture()
    def saved(self, traced, tmp_path):
        path = tmp_path / "fd.bsctrace"
        traced.save(path, compression="none")
        return path

    def test_repeated_open_close_is_fd_neutral(self, saved):
        # Warm up caches (zipimport, numpy internals) before baselining.
        with Trace.load(saved) as t:
            t.sample_table().column("time_ns")
        before = _open_fds()
        for _ in range(8):
            trace = Trace.load(saved)
            table = trace.sample_table()
            table.column("address")
            table.column("latency")
            trace.close()
        assert _open_fds() == before

    def test_one_fd_for_many_columns(self, saved):
        trace = Trace.load(saved)
        before = _open_fds()
        table = trace.sample_table()
        for name in ("time_ns", "address", "latency", "op", "instructions"):
            table.column(name)
        # The shared map costs exactly one descriptor however many
        # columns materialize.
        assert _open_fds() == before + 1
        trace.close()
        assert _open_fds() == before

    def test_close_is_idempotent_and_marks_table(self, saved):
        table = Trace.load(saved).sample_table()
        assert not table.closed
        table.close()
        table.close()
        assert table.closed
        with pytest.raises(ValueError, match="closed"):
            table.column("time_ns")

    def test_context_manager_closes_reader(self, saved):
        with ColumnReader(saved) as reader:
            reader.load("time_ns")
            assert not reader.closed
        assert reader.closed

    def test_materialized_columns_survive_close(self, saved):
        trace = Trace.load(saved)
        want = np.array(trace.sample_table().column("address"))
        table = trace.sample_table()
        copy = table.materialize()
        trace.close()
        np.testing.assert_array_equal(copy.column("address"), want)

    def test_outstanding_views_stay_readable_after_close(self, saved):
        # close() always releases the descriptor, but live views pin
        # the map's pages until they are collected — reading through
        # one after close must not crash or go dark.
        trace = Trace.load(saved)
        col = trace.sample_table().column("time_ns")
        first = float(col[0])
        trace.close()
        assert float(col[0]) == first

    def test_peek_reads_one_element_without_loading(self, saved):
        reader = ColumnReader(saved)
        want = Trace.load(saved).sample_table().column("time_ns")
        assert reader.peek("time_ns", 0) == want[0]
        assert reader.peek("time_ns", -1) == want[-1]
        assert reader.loaded == {}
        with pytest.raises(IndexError):
            reader.peek("time_ns", len(want))

    def test_peek_deflate_falls_back_to_load(self, traced, tmp_path):
        path = tmp_path / "peek_defl.bsctrace"
        traced.save(path, compression="deflate")
        reader = ColumnReader(path)
        want = traced.sample_table().time_ns
        assert reader.peek("time_ns", 0) == want[0]
        assert "time_ns" in reader.loaded


class TestGoldenFixtures:
    @pytest.mark.parametrize("engine", ["precise", "vectorized", "analytic"])
    def test_committed_v1_traces_still_load(self, engine):
        path = f"{GOLDEN}/stream_{engine}.bsctrace"
        trace = Trace.load(path)
        assert trace.n_samples > 0
        table = trace.sample_table()
        assert table.time_ns.size == trace.n_samples
        # Re-saving a v1 fixture through the v2 container keeps the digest.
        digest = trace.digest()
        assert digest == Trace.load(path).digest()

    def test_golden_v1_survives_v2_conversion(self, tmp_path):
        src = f"{GOLDEN}/stream_precise.bsctrace"
        trace = Trace.load(src)
        out = tmp_path / "conv.bsctrace"
        trace.save(out, compression="deflate")
        assert Trace.load(out).digest() == trace.digest()
