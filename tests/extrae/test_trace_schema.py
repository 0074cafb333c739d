"""Trace schema versioning: explicit, rejected when unknown."""

import json
import zipfile

import numpy as np
import pytest

from repro.extrae.trace import TRACE_SCHEMA_VERSION, Trace, TraceSchemaError

from tests.conftest import v1_fixture

from .conftest import build_session


def small_trace():
    tracer = build_session()
    from repro.memsim.patterns import SequentialPattern
    from repro.simproc.isa import KernelBatch

    with tracer.region("k"):
        tracer.iteration()
        tracer.execute(
            KernelBatch("k", (SequentialPattern(1 << 22, 500, 8),),
                        instructions=2000)
        )
    return tracer.finalize()


def rewrite_sidecar(src, dst, mutate):
    """Copy a trace file with its JSON sidecar transformed by *mutate*."""
    with zipfile.ZipFile(src) as zin:
        sidecar = json.loads(zin.read("trace.json"))
        members = {
            info.filename: (zin.read(info.filename), info.compress_type)
            for info in zin.infolist()
            if info.filename != "trace.json"
        }
    mutate(sidecar)
    with zipfile.ZipFile(dst, "w", zipfile.ZIP_DEFLATED) as zout:
        for name, (data, compress_type) in members.items():
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = compress_type
            zout.writestr(info, data)
        zout.writestr("trace.json", json.dumps(sidecar))
    return dst


@pytest.fixture()
def trace_path(tmp_path):
    return small_trace().save(tmp_path / "t.bsctrace")


@pytest.fixture()
def v1_trace_path():
    """``small_trace()`` as a committed v1 container (read-only)."""
    return v1_fixture("schema")


class TestSchemaVersion:
    def test_save_writes_schema_field(self, trace_path):
        with zipfile.ZipFile(trace_path) as zf:
            sidecar = json.loads(zf.read("trace.json"))
        assert sidecar["schema"] == TRACE_SCHEMA_VERSION == 2

    def test_v1_save_writes_schema_1(self, v1_trace_path):
        """The committed fixture is what the v1 writer produced: npz
        columns and a schema-1 sidecar (a fixture rewritten by the
        current writer would silently turn the v1 tests into v2 ones)."""
        with zipfile.ZipFile(v1_trace_path) as zf:
            assert "samples.npz" in zf.namelist()
            sidecar = json.loads(zf.read("trace.json"))
        assert sidecar["schema"] == 1

    def test_current_version_loads_silently(self, trace_path, recwarn):
        Trace.load(trace_path)
        assert not [w for w in recwarn.list if "schema" in str(w.message)]

    def test_v1_loads_silently(self, v1_trace_path, recwarn):
        loaded = Trace.load(v1_trace_path)
        assert not [w for w in recwarn.list if "schema" in str(w.message)]
        assert loaded.digest() == small_trace().digest()

    def test_unknown_version_rejected(self, trace_path, tmp_path):
        bad = rewrite_sidecar(
            trace_path, tmp_path / "future.bsctrace",
            lambda s: s.__setitem__("schema", 99),
        )
        with pytest.raises(TraceSchemaError, match="unknown trace schema"):
            Trace.load(bad)

    def test_bogus_version_rejected(self, trace_path, tmp_path):
        bad = rewrite_sidecar(
            trace_path, tmp_path / "bogus.bsctrace",
            lambda s: s.__setitem__("schema", "banana"),
        )
        with pytest.raises(TraceSchemaError):
            Trace.load(bad)

    def test_legacy_file_loads_with_warning(self, v1_trace_path, tmp_path):
        legacy = rewrite_sidecar(
            v1_trace_path, tmp_path / "legacy.bsctrace",
            lambda s: s.pop("schema"),
        )
        with pytest.warns(UserWarning, match="no schema version"):
            loaded = Trace.load(legacy)
        original = Trace.load(v1_trace_path)
        assert loaded.n_samples == original.n_samples
        assert len(loaded.events) == len(original.events)

    def test_missing_sample_column_rejected(self, v1_trace_path, tmp_path):
        trace_path = v1_trace_path
        with zipfile.ZipFile(trace_path) as zin:
            sidecar = zin.read("trace.json")
            with zin.open("samples.npz") as f:
                npz = np.load(f)
                columns = {k: npz[k] for k in npz.files}
        columns.pop("latency")
        bad = tmp_path / "clipped.bsctrace"
        with zipfile.ZipFile(bad, "w") as zout:
            with zout.open("samples.npz", "w") as f:
                np.savez(f, **columns)
            zout.writestr("trace.json", sidecar)
        with pytest.raises(TraceSchemaError, match="missing columns"):
            Trace.load(bad)


class TestEventOrderingExactness:
    """The absolute 1e-6 slack is gone: ordering is exact."""

    def test_equal_timestamps_accepted(self):
        from repro.extrae.events import EventKind, TraceEvent

        t = Trace()
        t.add_event(TraceEvent(10.0, EventKind.MARKER, "a"))
        t.add_event(TraceEvent(10.0, EventKind.MARKER, "b"))
        assert len(t.events) == 2

    def test_tiny_backwards_step_rejected(self):
        from repro.extrae.events import EventKind, TraceEvent

        t = Trace()
        t.add_event(TraceEvent(10.0, EventKind.MARKER, "a"))
        # Under the old 1e-6 tolerance this silently passed.
        with pytest.raises(ValueError, match="time order"):
            t.add_event(TraceEvent(10.0 - 1e-7, EventKind.MARKER, "b"))
