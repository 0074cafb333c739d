"""Chunked column streaming out of v2 containers.

The contract of :func:`repro.extrae.storage.iter_chunks` (and its
trace-level wrapper ``Trace.iter_sample_chunks``): every row exactly
once, in file order, bit-identical to a full ``ColumnReader.load`` —
for any chunk size, any column subset, and both compressions.
"""

import numpy as np
import pytest

from repro.extrae.storage import DEFAULT_CHUNK_ROWS, ColumnReader, iter_chunks
from repro.extrae.trace import _SAMPLE_COLUMNS, Trace
from repro.extrae.tracer import TracerConfig
from repro.pipeline import SessionConfig, run_workload
from repro.workloads.stream import StreamConfig, StreamWorkload


@pytest.fixture(scope="module")
def trace():
    return run_workload(
        StreamWorkload(StreamConfig(n=1 << 12, iterations=3, blocks=2)),
        SessionConfig(
            seed=5,
            tracer=TracerConfig(load_period=64, store_period=64),
        ),
    )


@pytest.fixture(scope="module", params=["none", "deflate"])
def saved(request, trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("chunks") / f"t-{request.param}.bsctrace"
    trace.save(path, compression=request.param)
    return path


def gather(chunks, names):
    parts = {name: [] for name in names}
    sizes = []
    for chunk in chunks:
        assert set(chunk) == set(names)
        lengths = {arr.shape[0] for arr in chunk.values()}
        assert len(lengths) == 1
        sizes.append(lengths.pop())
        for name in names:
            parts[name].append(chunk[name])
    return {name: np.concatenate(arrs) for name, arrs in parts.items()}, sizes


class TestIterChunks:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 1 << 20])
    def test_roundtrip_all_columns(self, saved, chunk_rows):
        reader = ColumnReader(saved)
        names = reader.columns()
        got, sizes = gather(iter_chunks(saved, chunk_rows=chunk_rows), names)
        assert sum(sizes) == reader.n_samples
        # every chunk but the last is full-sized
        assert all(s == chunk_rows for s in sizes[:-1])
        for name in names:
            want = reader.load(name)
            assert got[name].dtype == np.asarray(want).dtype
            np.testing.assert_array_equal(got[name], want)

    def test_column_subset(self, saved):
        names = ("time_ns", "instructions", "l3_misses")
        got, _ = gather(iter_chunks(saved, names, chunk_rows=100), names)
        reader = ColumnReader(saved)
        for name in names:
            np.testing.assert_array_equal(got[name], reader.load(name))

    def test_unknown_column(self, saved):
        with pytest.raises(KeyError):
            list(iter_chunks(saved, ("time_ns", "nope")))

    def test_bad_chunk_rows(self, saved):
        with pytest.raises(ValueError):
            list(iter_chunks(saved, chunk_rows=0))
        with pytest.raises(ValueError):
            list(iter_chunks(saved, chunk_rows=-8))

    def test_default_chunk_rows_single_chunk_for_small_trace(self, saved):
        chunks = list(iter_chunks(saved))
        reader = ColumnReader(saved)
        assert reader.n_samples <= DEFAULT_CHUNK_ROWS
        assert len(chunks) == 1


class TestTraceIterSampleChunks:
    def test_lazy_trace_matches_table(self, saved):
        lazy = Trace.load(saved)
        table = lazy.sample_table()
        names = ("time_ns", "cycles")
        got, _ = gather(lazy.iter_sample_chunks(names, chunk_rows=33), names)
        for name in names:
            assert got[name].dtype == _SAMPLE_COLUMNS[name]
            np.testing.assert_array_equal(got[name], table.column(name))

    def test_in_memory_trace_matches_table(self, trace):
        table = trace.sample_table()
        names = tuple(_SAMPLE_COLUMNS)
        got, _ = gather(trace.iter_sample_chunks(chunk_rows=129), names)
        for name in names:
            np.testing.assert_array_equal(got[name], table.column(name))

    def test_errors(self, trace):
        with pytest.raises(KeyError):
            list(trace.iter_sample_chunks(("time_ns", "bogus")))
        with pytest.raises(ValueError):
            list(trace.iter_sample_chunks(chunk_rows=0))
