"""Content-addressed trace repository.

Where the batch CLI works on loose ``.bsctrace`` files, the repository
gives every trace a permanent, content-derived home so the analysis
service (:mod:`repro.service`) — and any number of concurrent CLI
invocations — can resolve, share and deduplicate traces by what they
*are*, not where they happen to sit:

* **addressing** — a trace lives under its
  :meth:`~repro.extrae.trace.Trace.digest` (hex SHA-256 of the
  consolidated content), sharded git-style to keep directories small::

      <root>/objects/ab/cdef.../trace.bsctrace   # the v2 container
      <root>/objects/ab/cdef.../meta.json        # run metadata

* **atomic publish** — both files are staged in the entry directory
  and published with one ``os.replace`` each, container first.  A
  reader can never observe a partial container: until the rename the
  entry does not exist, after it the bytes are complete.  Concurrent
  ``put`` of the same digest is idempotent (the bytes are identical by
  construction — the digest says so) and last-writer-safe.

* **run index** — ``<root>/index.json`` summarizes every entry
  (workload, engine, sampler, seed, ranks, samples, duration) so
  listing a large repository costs one JSON read instead of a
  directory walk.  The index is a rebuildable cache of the per-entry
  ``meta.json`` files — :meth:`TraceRepo.reindex` rescans and rewrites
  it atomically, and :meth:`TraceRepo.list` falls back to the scan
  when asked for authority.

Traces are stored as v2 ``compression="none"`` containers whatever the
input was, so everything the repository serves loads as zero-copy
shared memory maps (:class:`repro.extrae.storage.ColumnReader`).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.extrae.trace import Trace

__all__ = ["RepoEntry", "RepoError", "TraceRepo", "default_repo_root"]

_ENV_ROOT = "REPRO_TRACE_REPO"
_OBJECTS = "objects"
_CONTAINER = "trace.bsctrace"
_META = "meta.json"
_INDEX = "index.json"

#: Schema version of ``meta.json``/``index.json`` payloads.
REPO_META_VERSION = 1

#: Minimum abbreviated-digest length accepted by :meth:`TraceRepo.resolve`.
MIN_PREFIX = 4


def default_repo_root() -> Path:
    """``$REPRO_TRACE_REPO``, else ``~/.local/share/repro/traces``."""
    env = os.environ.get(_ENV_ROOT)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_DATA_HOME")
    base = Path(xdg) if xdg else Path.home() / ".local" / "share"
    return base / "repro" / "traces"


@dataclass(frozen=True)
class RepoEntry:
    """One repository entry: a digest plus its run metadata summary."""

    digest: str
    path: Path
    meta: dict = field(default_factory=dict)

    @property
    def short(self) -> str:
        return self.digest[:12]

    def summary_row(self) -> tuple:
        m = self.meta
        return (
            self.short,
            m.get("workload", "?"),
            m.get("engine", "?"),
            m.get("sampler", "pebs"),
            m.get("seed", "?"),
            m.get("n_samples", "?"),
            f"{m.get('duration_ns', 0) / 1e6:.2f}",
        )


class RepoError(KeyError):
    """A digest (or digest prefix) cannot be resolved in the repository."""


class TraceRepo:
    """Sharded, content-addressed store of trace containers.

    Parameters
    ----------
    root:
        Repository root directory (created on first ``put``).
        Default: ``$REPRO_TRACE_REPO``, else
        ``~/.local/share/repro/traces``.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root else default_repo_root()

    # -- layout --------------------------------------------------------------
    def _objects_dir(self) -> Path:
        return self.root / _OBJECTS

    def entry_dir(self, digest: str) -> Path:
        """The sharded directory of *digest* (``objects/ab/cdef...``)."""
        return self._objects_dir() / digest[:2] / digest[2:]

    def path(self, digest: str) -> Path:
        """The container path of a (full) digest."""
        return self.entry_dir(digest) / _CONTAINER

    # -- publish -------------------------------------------------------------
    def put(self, source: Trace | str | Path, *, extra_meta: dict | None = None) -> RepoEntry:
        """Store a trace (object or container path); returns its entry.

        The container is written to a staging file inside the entry
        directory and published with one atomic ``os.replace``;
        ``meta.json`` follows the same way.  Re-putting an existing
        digest skips the container copy (the bytes are identical by
        content addressing) and refreshes the metadata — safe under
        concurrent writers, invisible to concurrent readers until
        complete.
        """
        if isinstance(source, (str, Path)):
            trace = Trace.load(source)
        else:
            trace = source
        digest = trace.digest()
        entry_dir = self.entry_dir(digest)
        entry_dir.mkdir(parents=True, exist_ok=True)
        container = entry_dir / _CONTAINER
        if not container.exists():
            fd, tmp = tempfile.mkstemp(dir=entry_dir, suffix=".staging")
            os.close(fd)
            try:
                trace.save(tmp, compression="none")
                os.replace(tmp, container)
            except BaseException:
                Path(tmp).unlink(missing_ok=True)
                raise
        meta = self._build_meta(trace, digest)
        if extra_meta:
            meta.update(extra_meta)
        _atomic_json(entry_dir / _META, meta)
        if isinstance(source, (str, Path)):
            trace.close()
        self.reindex()
        return RepoEntry(digest=digest, path=container, meta=meta)

    @staticmethod
    def _build_meta(trace: Trace, digest: str) -> dict:
        md = trace.metadata
        return {
            "version": REPO_META_VERSION,
            "digest": digest,
            "workload": md.get("workload"),
            "engine": md.get("engine"),
            "sampler": md.get("sampler", "pebs"),
            "seed": md.get("seed"),
            "rank": md.get("rank"),
            "n_ranks": md.get("n_ranks"),
            "n_samples": trace.n_samples,
            "n_events": len(trace.events),
            "n_objects": len(trace.objects),
            "duration_ns": trace.duration_ns(),
            "stored_at": time.time(),
        }

    # -- resolve / read ------------------------------------------------------
    def resolve(self, prefix: str) -> str:
        """Expand a digest prefix (≥ 4 hex chars) to the full digest.

        Raises :class:`RepoError` when the prefix is unknown or
        ambiguous.
        """
        prefix = prefix.lower()
        if len(prefix) == 64 and self.path(prefix).exists():
            return prefix
        if len(prefix) < MIN_PREFIX:
            raise RepoError(
                f"digest prefix {prefix!r} too short (need >= {MIN_PREFIX} chars)"
            )
        matches = [e.digest for e in self.list() if e.digest.startswith(prefix)]
        if not matches:
            raise RepoError(f"no trace with digest prefix {prefix!r}")
        if len(matches) > 1:
            raise RepoError(
                f"digest prefix {prefix!r} is ambiguous ({len(matches)} matches)"
            )
        return matches[0]

    def get(self, digest: str) -> Path:
        """The container path of a digest (prefixes allowed)."""
        full = self.resolve(digest)
        path = self.path(full)
        if not path.exists():
            raise RepoError(f"no trace {full} in {self.root}")
        return path

    def open(self, digest: str) -> Trace:
        """Lazily load a stored trace (columns stay on disk until touched)."""
        return Trace.load(self.get(digest))

    def entry(self, digest: str) -> RepoEntry:
        full = self.resolve(digest)
        path = self.path(full)
        if not path.exists():
            raise RepoError(f"no trace {full} in {self.root}")
        return RepoEntry(digest=full, path=path, meta=self._read_meta(full, path))

    def _read_meta(self, digest: str, container: Path) -> dict:
        meta_path = container.parent / _META
        try:
            return json.loads(meta_path.read_text())
        except (OSError, ValueError):
            # The writer died between the two publishes (container
            # first, meta second), or meta.json is mid-replace.
            # Synthesize the cheap parts from the sidecar.
            try:
                with zipfile.ZipFile(container) as zf:
                    sidecar = json.loads(zf.read("trace.json"))
            except Exception:
                return {"digest": digest}
            manifest = sidecar.get("columns", {})
            return {
                "digest": digest,
                "workload": sidecar.get("metadata", {}).get("workload"),
                "engine": sidecar.get("metadata", {}).get("engine"),
                "sampler": sidecar.get("metadata", {}).get("sampler", "pebs"),
                "seed": sidecar.get("metadata", {}).get("seed"),
                "n_samples": next(
                    (int(s["n"]) for s in manifest.values()), None
                ),
                "n_events": len(sidecar.get("events", [])),
                "n_objects": len(sidecar.get("objects", [])),
            }

    # -- enumerate -----------------------------------------------------------
    def list(self) -> list[RepoEntry]:
        """Every entry, by directory scan (authoritative), digest-sorted.

        An entry exists iff its container file does — a concurrent
        ``put`` that has staged but not yet renamed is invisible, and
        one that renamed the container but not yet ``meta.json`` shows
        up with sidecar-synthesized metadata.
        """
        objects = self._objects_dir()
        if not objects.is_dir():
            return []
        entries = []
        for shard in sorted(objects.iterdir()):
            if not shard.is_dir() or len(shard.name) != 2:
                continue
            for rest in sorted(shard.iterdir()):
                container = rest / _CONTAINER
                if not container.exists():
                    continue
                digest = shard.name + rest.name
                entries.append(
                    RepoEntry(
                        digest=digest,
                        path=container,
                        meta=self._read_meta(digest, container),
                    )
                )
        return entries

    def index(self) -> dict:
        """The run index (``index.json``), rebuilt if missing."""
        index_path = self.root / _INDEX
        try:
            return json.loads(index_path.read_text())
        except (OSError, ValueError):
            return self.reindex()

    def reindex(self) -> dict:
        """Rescan the object directories and rewrite ``index.json``.

        The rewrite is atomic (temp + rename); concurrent reindexes
        are last-writer-wins over full-scan snapshots, so the index
        converges to the true directory state.
        """
        entries = self.list()
        index = {
            "version": REPO_META_VERSION,
            "n_traces": len(entries),
            "traces": {e.digest: e.meta for e in entries},
        }
        if self.root.is_dir() or entries:
            self.root.mkdir(parents=True, exist_ok=True)
            _atomic_json(self.root / _INDEX, index)
        return index

    # -- remove --------------------------------------------------------------
    def remove(self, digest: str) -> str:
        """Delete an entry (prefixes allowed); returns the full digest."""
        full = self.resolve(digest)
        entry_dir = self.entry_dir(full)
        if not entry_dir.is_dir():
            raise RepoError(f"no trace {full} in {self.root}")
        shutil.rmtree(entry_dir)
        shard = entry_dir.parent
        try:
            shard.rmdir()  # drop the shard dir when it empties
        except OSError:
            pass
        self.reindex()
        return full

    def stats(self) -> dict:
        entries = self.list()
        total = 0
        for e in entries:
            try:
                total += e.path.stat().st_size
            except OSError:
                continue
        return {
            "root": str(self.root),
            "n_traces": len(entries),
            "total_bytes": total,
        }


def _atomic_json(path: Path, payload: dict) -> None:
    """Publish *payload* at *path* via temp file + atomic rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".staging")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
