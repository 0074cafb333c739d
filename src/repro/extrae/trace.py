"""Trace container and (de)serialization.

A trace holds three kinds of data:

* **punctual events** — region enters/exits, iteration markers,
  allocation/group events (:class:`~repro.extrae.events.TraceEvent`);
* **sample blocks** — PEBS records with interpolated counters, appended
  into chunked columnar buffers and consolidated on demand into a
  time-sorted :class:`SampleTable`;
* **object records** — the data objects discovered by allocation
  interception, wrapping and the static scan.

Recording is the acquisition hot path, so it never touches Python-level
per-sample state: :meth:`Trace.add_samples` copies each block's columns
into a growable preallocated buffer (amortized O(1) per sample), and
consolidation merges the already-sorted prefix with the newly appended
chunk incrementally — a fast in-place append when the chunk starts
after the consolidated samples end (the overwhelmingly common case,
since batches are emitted in time order), a single stable two-run merge
otherwise.  Both paths are bit-identical to the historical global
``concatenate`` + stable ``argsort``.  ``n_samples``/``duration_ns``
and repeated ``digest()`` calls never force a rebuild.

Serialization is schema-versioned via the ``"schema"`` field of the
JSON sidecar.  :meth:`Trace.save` writes the **v2 container** — raw
little-endian column members with selectable compression
(``"none"``/``"deflate"``, see :mod:`repro.extrae.storage`).
:meth:`Trace.load` reads it lazily (columns materialize on first touch,
memory-mapped when uncompressed) and still reads the legacy npz-based
**v1 container**, eagerly.
Version-less legacy files load as v1 with a warning; unknown versions
raise :class:`TraceSchemaError`.  No pickling on disk, so traces are
safe to exchange.
"""

from __future__ import annotations

import hashlib
import json
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.extrae.events import EventKind, TraceEvent
from repro.extrae.index import TraceIndex
from repro.extrae.memalloc import ObjectRecord
from repro.extrae.storage import (
    SIDECAR_MEMBER,
    TRACE_COMPRESSIONS,
    ColumnReader,
    write_columns,
)
from repro.simproc.machine import SAMPLE_COUNTERS, SampleBlock
from repro.vmem.callstack import CallStack, Frame

__all__ = [
    "EVENT_TIME_EPSILON_NS",
    "SampleTable",
    "Trace",
    "TraceSchemaError",
    "TRACE_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSIONS",
]

#: Version of the on-disk trace layout this build writes (the
#: ``"schema"`` field of the JSON sidecar).
TRACE_SCHEMA_VERSION = 2

#: Versions :meth:`Trace.load` accepts.
TRACE_SCHEMA_VERSIONS = (1, 2)

#: Tolerance (ns) for the append-time monotonicity check of punctual
#: events.  Machine time is exactly nondecreasing — there is no float
#: slack to absorb — so the comparison is exact.  The constant exists
#: (rather than a literal) so :mod:`repro.validate.invariants` applies
#: the identical rule when re-checking finished traces.
EVENT_TIME_EPSILON_NS = 0.0


class TraceSchemaError(ValueError):
    """A trace file's schema version is unknown to this code."""


#: columnar sample schema: name -> dtype
_SAMPLE_COLUMNS = {
    "time_ns": np.float64,
    "address": np.uint64,
    "op": np.int8,
    "source": np.int8,
    "latency": np.float32,
    "callstack_id": np.int32,
    "label_id": np.int32,
    **{name: np.float64 for name in SAMPLE_COUNTERS},
}


class SampleTable:
    """Columnar view over all samples of a trace, time-sorted.

    Columns are exposed as attributes (``table.address``,
    ``table.latency``, ``table.instructions``, ...).
    """

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        missing = set(_SAMPLE_COLUMNS) - set(columns)
        if missing:
            raise ValueError(f"sample table missing columns: {sorted(missing)}")
        n = {c.size for c in columns.values()}
        if len(n) > 1:
            raise ValueError("sample columns have inconsistent lengths")
        self._columns = columns

    def __getattr__(self, name: str) -> np.ndarray:
        # Look up _columns via __dict__: during unpickling attributes
        # are probed before __init__ ran, and falling through to
        # self._columns here would recurse.
        columns = self.__dict__.get("_columns")
        if columns is None or name not in columns:
            raise AttributeError(name)
        return columns[name]

    def __len__(self) -> int:
        return int(self._columns["time_ns"].size)

    @property
    def n(self) -> int:
        return len(self)

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def select(self, mask: np.ndarray) -> "SampleTable":
        """Subset by boolean mask or index array."""
        return SampleTable({k: v[mask] for k, v in self.columns().items()})

    def columns(self) -> dict[str, np.ndarray]:
        return dict(self._columns)

    @classmethod
    def empty(cls) -> "SampleTable":
        return cls({k: np.empty(0, dtype=dt) for k, dt in _SAMPLE_COLUMNS.items()})


class _LazySampleTable(SampleTable):
    """Sample table backed by a v2 container: columns load on demand.

    Each column materializes (a view over the reader's one shared
    memory map when the file stores it uncompressed) the first time a
    pass touches it; untouched columns never leave the file.  Read-only
    — mutate via :meth:`materialize`.

    The table owns its reader's file-descriptor lifecycle: close it
    explicitly with :meth:`close` (or use it as a context manager) and
    the descriptor is released immediately instead of whenever the GC
    gets around to it — repeated open/close of the same container is
    fd-neutral.  Touching an unmaterialized stored column after close
    raises ``ValueError``.
    """

    def __init__(self, reader: ColumnReader) -> None:
        self._reader = reader
        self._n = reader.n_samples

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in _SAMPLE_COLUMNS or self.__dict__.get("_reader") is None:
            raise AttributeError(name)
        return self.column(name)

    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        arr = self._reader.load(name)
        dtype = _SAMPLE_COLUMNS[name]
        if arr.dtype != dtype:
            arr = arr.astype(dtype)
            self._reader.loaded[name] = arr
        return arr

    def columns(self) -> dict[str, np.ndarray]:
        return {name: self.column(name) for name in _SAMPLE_COLUMNS}

    def materialize(self) -> SampleTable:
        """An in-memory copy, decoupled from the backing file."""
        return SampleTable(
            {name: np.array(self.column(name)) for name in _SAMPLE_COLUMNS}
        )

    @property
    def closed(self) -> bool:
        return self._reader.closed

    def close(self) -> None:
        """Release the backing reader's map and descriptor (idempotent)."""
        self._reader.close()

    def __enter__(self) -> "_LazySampleTable":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _ChunkBuffer:
    """Growable columnar sample buffer (amortized O(1) append).

    One preallocated array per sample column, doubled on overflow —
    appending a block is seventeen slice assignments, never a list of
    Python objects or a per-save reconcatenation.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._n = 0
        self._cap = int(capacity)
        self._cols = {
            name: np.empty(self._cap, dtype=dt)
            for name, dt in _SAMPLE_COLUMNS.items()
        }

    def __len__(self) -> int:
        return self._n

    def _grow_to(self, need: int) -> None:
        if need <= self._cap:
            return
        cap = max(self._cap * 2, need)
        for name, arr in self._cols.items():
            grown = np.empty(cap, dtype=arr.dtype)
            grown[: self._n] = arr[: self._n]
            self._cols[name] = grown
        self._cap = cap

    def append(self, n: int, columns: dict) -> None:
        """Append *n* rows; column values may be arrays or scalars."""
        self._grow_to(self._n + n)
        end = self._n + n
        for name, value in columns.items():
            self._cols[name][self._n : end] = value
        self._n = end

    def adopt(self, columns: dict[str, np.ndarray], n: int) -> None:
        """Replace the contents with already-built full columns."""
        self._cols = columns
        self._n = n
        self._cap = n

    def clear(self) -> None:
        self._n = 0

    def last_time_ns(self) -> float:
        return float(self._cols["time_ns"][self._n - 1])

    def view(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the filled prefix of every column."""
        return {name: arr[: self._n] for name, arr in self._cols.items()}


@dataclass
class Trace:
    """One process's trace."""

    metadata: dict = field(default_factory=dict)
    events: list[TraceEvent] = field(default_factory=list)
    objects: list[ObjectRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._callstacks: list[CallStack] = []
        self._callstack_ids: dict[CallStack, int] = {}
        self._labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        # Recording state: _buf holds the consolidated (time-sorted)
        # prefix, _pending the appended-but-unmerged chunk.  Both are
        # None for traces adopting an external table (load/from_parts)
        # until an append re-seeds them.
        self._buf: _ChunkBuffer | None = _ChunkBuffer()
        self._pending: _ChunkBuffer | None = _ChunkBuffer()
        self._table: SampleTable | None = None
        self._digest: str | None = None
        self._index: TraceIndex | None = None
        self._max_time_ns: float | None = None  # running sample-time max

    # -- intern tables ----------------------------------------------------
    def callstack_id(self, stack: CallStack) -> int:
        """Intern *stack*; returns its stable id."""
        if stack not in self._callstack_ids:
            self._callstack_ids[stack] = len(self._callstacks)
            self._callstacks.append(stack)
        return self._callstack_ids[stack]

    def callstack(self, stack_id: int) -> CallStack:
        return self._callstacks[stack_id]

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self._labels)
            self._labels.append(label)
        return self._label_ids[label]

    def label(self, label_id: int) -> str:
        return self._labels[label_id]

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    @property
    def callstacks(self) -> list[CallStack]:
        return list(self._callstacks)

    @property
    def n_callstacks(self) -> int:
        return len(self._callstacks)

    # -- recording ----------------------------------------------------------
    def add_event(self, event: TraceEvent) -> None:
        if (
            self.events
            and event.time_ns < self.events[-1].time_ns - EVENT_TIME_EPSILON_NS
        ):
            raise ValueError(
                f"events must be appended in time order "
                f"({event.time_ns} < {self.events[-1].time_ns})"
            )
        self.events.append(event)
        self._digest = None
        self._index = None

    def add_samples(self, block: SampleBlock, callstack: CallStack) -> None:
        """Attach a sample block taken under *callstack*.

        The block's columns are copied straight into the chunked append
        buffer — the block object itself is not retained.
        """
        cs_id = self.callstack_id(callstack)
        lbl_id = self.label_id(block.label)
        self._digest = None
        self._index = None
        n = block.n
        if n == 0:
            return
        if self._pending is None:
            self._seed_buffers_from_table()
        times = np.asarray(block.times_ns, dtype=np.float64)
        columns = {
            "time_ns": times,
            "address": block.addresses,
            "op": np.int8(block.op),
            "source": block.sources,
            "latency": block.latencies,
            "callstack_id": np.int32(cs_id),
            "label_id": np.int32(lbl_id),
        }
        for name in SAMPLE_COUNTERS:
            columns[name] = block.counters[name]
        self._pending.append(n, columns)
        self._table = None
        m = float(times.max())
        if self._max_time_ns is None or m > self._max_time_ns:
            self._max_time_ns = m

    def add_object(self, record: ObjectRecord) -> None:
        self.objects.append(record)
        self._digest = None
        self._index = None

    def _seed_buffers_from_table(self) -> None:
        """Re-enter recording mode on a trace built from external parts."""
        table = self._table if self._table is not None else SampleTable.empty()
        if isinstance(table, _LazySampleTable):
            table = table.materialize()
        buf = _ChunkBuffer(capacity=max(len(table), 1))
        buf.adopt(
            {
                name: np.ascontiguousarray(
                    table.column(name), dtype=_SAMPLE_COLUMNS[name]
                )
                for name in _SAMPLE_COLUMNS
            },
            len(table),
        )
        self._buf = buf
        self._pending = _ChunkBuffer()
        if len(table):
            self._max_time_ns = float(np.max(table.time_ns))

    # -- pickling -----------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the consolidated columnar form, not the buffers.

        The append buffers exist only for recording (shipping their
        slack capacity would bloat the payload), and lazy tables
        reference an open file — so the pickled trace always carries a
        plain, materialized, consolidated :class:`SampleTable`.
        """
        state = self.__dict__.copy()
        table = self.sample_table()
        if isinstance(table, _LazySampleTable):
            table = table.materialize()
        state["_table"] = table
        state["_buf"] = None
        state["_pending"] = None
        state["_index"] = None
        return state

    # -- content addressing -------------------------------------------------
    def digest(self) -> str:
        """Content digest of the full trace (hex SHA-256).

        Hashes the consolidated sample columns plus the JSON sidecar
        parts (metadata, events, objects, intern tables) — exactly the
        information :meth:`save` persists, so a save/load round-trip
        keeps the digest.  The sidecar is hashed in its v1 shape
        whatever container the trace was read from, keeping the digest
        a property of the *content*, not the encoding.  Two
        traces with equal digests fold identically; the report cache
        (:class:`repro.folding.cache.FoldCache`) uses this as its
        content address.  Cached until the next mutating ``add_*``.
        """
        if self._digest is not None:
            return self._digest
        # Consolidate first: merging sample blocks interns their labels,
        # which the sidecar must already reflect when it is hashed.
        table = self.sample_table()
        h = hashlib.sha256()
        h.update(json.dumps(self._sidecar(schema=1), sort_keys=True).encode())
        for name in sorted(_SAMPLE_COLUMNS):
            col = np.ascontiguousarray(table.column(name))
            h.update(name.encode())
            h.update(col.tobytes())
        self._digest = h.hexdigest()
        return self._digest

    # -- consolidated views ----------------------------------------------------
    @property
    def n_samples(self) -> int:
        if self._buf is not None:
            return len(self._buf) + len(self._pending)
        return len(self._table) if self._table is not None else 0

    def _consolidate(self) -> None:
        """Merge the pending chunk into the sorted prefix.

        The pending chunk is stable-sorted on its own, then either
        appended in place (when it starts at or after the prefix's last
        timestamp — the common case, since batches are emitted in time
        order) or merged with the prefix in one stable two-run pass.
        Both are bit-identical to re-sorting everything globally with a
        stable sort, because every prefix sample was appended before
        every pending sample and therefore wins ties.
        """
        pending = self._pending
        if pending is None or len(pending) == 0:
            return
        chunk = pending.view()
        order = np.argsort(chunk["time_ns"], kind="stable")
        chunk = {name: col[order] for name, col in chunk.items()}
        buf = self._buf
        if len(buf) == 0 or chunk["time_ns"][0] >= buf.last_time_ns():
            buf.append(order.size, chunk)
        else:
            held = buf.view()
            t_held, t_chunk = held["time_ns"], chunk["time_ns"]
            n_held, n_chunk = t_held.size, t_chunk.size
            # Stable two-run merge via searchsorted: prefix rows win
            # ties (side="left"/"right"), matching a global stable sort.
            pos_held = np.arange(n_held) + np.searchsorted(t_chunk, t_held, "left")
            pos_chunk = np.arange(n_chunk) + np.searchsorted(t_held, t_chunk, "right")
            merged: dict[str, np.ndarray] = {}
            for name, dt in _SAMPLE_COLUMNS.items():
                out = np.empty(n_held + n_chunk, dtype=dt)
                out[pos_held] = held[name]
                out[pos_chunk] = chunk[name]
                merged[name] = out
            buf.adopt(merged, n_held + n_chunk)
        pending.clear()
        self._table = None

    def sample_table(self) -> SampleTable:
        """All samples as one time-sorted columnar table (cached)."""
        if self._pending is not None and len(self._pending):
            self._consolidate()
        if self._table is None:
            self._table = (
                SampleTable(self._buf.view())
                if self._buf is not None
                else SampleTable.empty()
            )
        return self._table

    def iter_sample_chunks(
        self,
        columns: tuple[str, ...] | None = None,
        chunk_rows: int | None = None,
    ):
        """Stream the consolidated sample columns in row chunks.

        Yields ``{name: np.ndarray}`` dicts of equal-length row slices
        in time order, covering every sample exactly once.  For a trace
        lazily backed by a v2 container the chunks come straight off
        the file through :func:`repro.extrae.storage.iter_chunks` —
        O(chunk) memory, nothing materialized or memory-mapped.  For an
        in-memory (recording) trace the chunks are zero-copy views of
        the consolidated table.  Either way the streaming fold
        (:mod:`repro.folding.stream`) consumes the same chunk shape.
        """
        from repro.extrae.storage import DEFAULT_CHUNK_ROWS, iter_chunks

        if chunk_rows is None:
            chunk_rows = DEFAULT_CHUNK_ROWS
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        names = tuple(columns) if columns is not None else tuple(_SAMPLE_COLUMNS)
        unknown = [name for name in names if name not in _SAMPLE_COLUMNS]
        if unknown:
            raise KeyError(f"unknown sample columns {unknown}")
        table = self.sample_table()
        if isinstance(table, _LazySampleTable):
            for chunk in iter_chunks(table._reader.path, names, chunk_rows):
                yield {
                    name: arr.astype(_SAMPLE_COLUMNS[name], copy=False)
                    for name, arr in chunk.items()
                }
            return
        n = len(table)
        cols = {name: table.column(name) for name in names}
        for lo in range(0, n, chunk_rows):
            hi = min(lo + chunk_rows, n)
            yield {name: col[lo:hi] for name, col in cols.items()}

    # -- indexed queries ----------------------------------------------------
    def index(self) -> TraceIndex:
        """Prebuilt event/sample indexes over this trace (cached).

        Invalidated by any mutating ``add_*``; see
        :class:`repro.extrae.index.TraceIndex`.
        """
        if self._index is None:
            self._index = TraceIndex(self)
        return self._index

    # -- event queries ------------------------------------------------------------
    def region_intervals(self, name: str) -> list[tuple[float, float]]:
        """Matched ``[enter, exit)`` time intervals of region *name*.

        Handles recursion by matching each exit with the most recent
        unmatched enter of the same name.
        """
        return self.index().events.region_intervals(name)

    def iteration_times(self, name: str = "") -> list[float]:
        """Timestamps of ITERATION markers (optionally filtered by name)."""
        return self.index().events.iteration_times(name)

    def duration_ns(self) -> float:
        t = []
        if self.events:
            t.append(self.events[-1].time_ns)
        if self.n_samples:
            t.append(self._sample_max_ns())
        return max(t) if t else 0.0

    def _sample_max_ns(self) -> float:
        """Latest sample timestamp, without forcing consolidation.

        Recording traces track the running max at append time; traces
        adopting an external table read just the ``time_ns`` column
        (one column touch on a lazy table, never a full rebuild).
        """
        if self._max_time_ns is None:
            self._max_time_ns = float(np.max(self._table.time_ns))
        return self._max_time_ns

    # -- serialization ------------------------------------------------------------
    def _sidecar(self, schema: int = TRACE_SCHEMA_VERSION) -> dict:
        """The JSON sidecar :meth:`save` writes (also hashed, in its
        v1 shape, by :meth:`digest`)."""
        return {
            "schema": schema,
            "metadata": self.metadata,
            "labels": self._labels,
            "callstacks": [
                [[f.function, f.file, f.line] for f in cs.frames]
                for cs in self._callstacks
            ],
            "events": [
                {
                    "time_ns": ev.time_ns,
                    "kind": int(ev.kind),
                    "name": ev.name,
                    "payload": ev.payload,
                }
                for ev in self.events
            ],
            "objects": [
                {
                    "name": o.name,
                    "start": o.start,
                    "end": o.end,
                    "kind": o.kind,
                    "bytes_user": o.bytes_user,
                    "n_allocations": o.n_allocations,
                    "time_ns": o.time_ns,
                    "site": (
                        [[f.function, f.file, f.line] for f in o.site.frames]
                        if o.site
                        else None
                    ),
                }
                for o in self.objects
            ],
        }

    def save(self, path: str | Path, *, compression: str = "none") -> Path:
        """Write the trace as ``<path>`` (a single-file zip container).

        Always the current (v2) container: raw per-column binary members
        with the selected *compression* (``"none"`` streams
        ``ZIP_STORED`` columns that load back as zero-copy memory maps;
        ``"deflate"`` trades save/load speed for size).  v1 files are
        still read by :meth:`load`, never written.
        """
        path = Path(path)
        if compression not in TRACE_COMPRESSIONS:
            raise ValueError(
                f"compression must be one of {TRACE_COMPRESSIONS}, "
                f"got {compression!r}"
            )
        zip_compression = (
            zipfile.ZIP_DEFLATED if compression == "deflate" else zipfile.ZIP_STORED
        )
        with zipfile.ZipFile(path, "w", zip_compression) as zf:
            manifest = write_columns(zf, self.sample_table().columns(), compression)
            sidecar = self._sidecar()
            sidecar["columns"] = manifest
            sidecar["compression"] = compression
            zf.writestr(SIDECAR_MEMBER, json.dumps(sidecar))
        return path

    @classmethod
    def from_parts(
        cls,
        *,
        metadata: dict | None = None,
        events: Iterable[TraceEvent] = (),
        objects: Iterable[ObjectRecord] = (),
        labels: Iterable[str] = (),
        callstacks: Iterable[CallStack] = (),
        table: SampleTable | None = None,
    ) -> "Trace":
        """Assemble a trace from already-consolidated parts.

        Used by :meth:`load` and by tools that rewrite traces (e.g. the
        golden-fixture perturbation helper in
        :mod:`repro.validate.golden`).  The intern tables are rebuilt in
        the given order so ``callstack_id``/``label_id`` columns of
        *table* keep their meaning.
        """
        trace = cls(metadata=dict(metadata or {}))
        for cs in callstacks:
            trace.callstack_id(cs)
        for lbl in labels:
            trace.label_id(lbl)
        trace.events.extend(events)
        trace.objects.extend(objects)
        trace._table = table if table is not None else SampleTable.empty()
        trace._buf = None
        trace._pending = None
        return trace

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save` (any known version).

        v1 files materialize eagerly, exactly as before.  v2 files load
        *lazily*: the events/objects/intern tables come from the
        sidecar, but sample columns stay on disk until a pass touches
        them (zero-copy memory maps when stored uncompressed).

        Raises :class:`TraceSchemaError` when the file declares a schema
        version this code does not know.  Files written before schema
        versioning existed (no ``"schema"`` field) load as version 1
        with a :class:`UserWarning`.
        """
        path = Path(path)
        with zipfile.ZipFile(path) as zf:
            sidecar = json.loads(zf.read(SIDECAR_MEMBER))
        schema = sidecar.get("schema")
        if schema is None:
            warnings.warn(
                f"{path}: trace has no schema version (written before "
                f"versioning); loading as schema 1",
                stacklevel=2,
            )
            schema = 1
        elif schema not in TRACE_SCHEMA_VERSIONS:
            raise TraceSchemaError(
                f"{path}: unknown trace schema version {schema!r} "
                f"(this build reads versions {TRACE_SCHEMA_VERSIONS})"
            )
        if schema == 1:
            with zipfile.ZipFile(path) as zf:
                with zf.open("samples.npz") as f:
                    npz = np.load(f)
                    columns = {k: npz[k] for k in npz.files}
            missing = set(_SAMPLE_COLUMNS) - set(columns)
            if missing:
                raise TraceSchemaError(
                    f"{path}: sample table missing columns {sorted(missing)}"
                )
            table: SampleTable = SampleTable(
                {k: columns[k].astype(dt) for k, dt in _SAMPLE_COLUMNS.items()}
            )
        else:
            reader = ColumnReader(path)
            missing = set(_SAMPLE_COLUMNS) - set(reader.columns())
            if missing:
                raise TraceSchemaError(
                    f"{path}: sample table missing columns {sorted(missing)}"
                )
            table = _LazySampleTable(reader)
        return cls.from_parts(
            metadata=sidecar["metadata"],
            callstacks=[
                CallStack(tuple(Frame(*f) for f in cs))
                for cs in sidecar["callstacks"]
            ],
            labels=sidecar["labels"],
            events=[
                TraceEvent(
                    ev["time_ns"], EventKind(ev["kind"]), ev["name"], ev["payload"]
                )
                for ev in sidecar["events"]
            ],
            objects=[
                ObjectRecord(
                    name=o["name"],
                    start=o["start"],
                    end=o["end"],
                    kind=o["kind"],
                    bytes_user=o["bytes_user"],
                    n_allocations=o["n_allocations"],
                    site=(
                        CallStack(tuple(Frame(*f) for f in o["site"]))
                        if o["site"]
                        else None
                    ),
                    time_ns=o["time_ns"],
                )
                for o in sidecar["objects"]
            ],
            table=table,
        )

    # -- resource lifecycle -------------------------------------------------
    def close(self) -> None:
        """Release the file resources of a lazily loaded trace.

        For traces backed by a v2 container this closes the shared
        column map and its file descriptor deterministically
        (idempotent; see :meth:`_LazySampleTable.close`).  In-memory
        (recording) traces hold no file resources — close is a no-op —
        so callers can close any trace uniformly, e.g. via the context
        manager: ``with Trace.load(path) as trace: ...``.
        """
        table = self._table
        if isinstance(table, _LazySampleTable):
            table.close()

    def __enter__(self) -> "Trace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self.n_samples
