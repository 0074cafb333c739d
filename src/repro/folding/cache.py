"""Content-addressed on-disk cache for folded reports.

Folding the same trace with the same parameters always yields the same
report, so repeated CLI/:func:`~repro.pipeline.analyze_hpcg`
invocations over a saved trace can skip the whole fold: the cache keys
each report by the SHA-256 of (trace content digest, fold parameters,
fold-code version) and stores it as one pickle file.  Hits return in
milliseconds regardless of trace size.

The cache is strictly opt-in: nothing in :mod:`repro` touches it
unless a :class:`FoldCache` is passed to
:func:`~repro.folding.report.fold_trace` /
:func:`~repro.pipeline.analyze_hpcg`, or ``--cache`` is given to the
CLI.  The default location is ``~/.cache/repro/folding`` (override
with the ``REPRO_FOLD_CACHE_DIR`` environment variable or the
``directory`` argument).  Total size is bounded: after every store the
least-recently-used entries are evicted until the cache fits
``max_bytes``.  ``python -m repro.cli cache {info,clear,prune}``
inspects and manages it.

Pickled entries are an internal format (unlike ``.bsctrace`` files):
they are versioned by :data:`FOLD_CACHE_VERSION` — bump it whenever
folded output changes — and any unreadable entry is treated as a miss
and deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.extrae.trace import Trace

__all__ = ["FOLD_CACHE_VERSION", "FoldCache", "fold_key_params"]

#: Version of the folded-report pipeline baked into every cache key.
#: Bump when folding output changes (new fit, changed clamps, new
#: report fields) so stale entries miss instead of resurfacing.
#: v2: keys carry a ``kind`` discriminator so extrapolated
#: (representative-instance) folds can never alias exact reports.
#: v3: one pickled performance type (``PerformanceFold``) for streamed
#: entries; streamed keys carry a non-default counter subset.
#: v4: one pickled address type (``FoldedAddresses`` with its exact
#: accounting) for resident and streamed entries; streamed keys no
#: longer carry reservoir or line-binning parameters.
FOLD_CACHE_VERSION = 4

_ENV_DIR = "REPRO_FOLD_CACHE_DIR"
_SUFFIX = ".foldreport"


def _default_directory() -> Path:
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "folding"


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of the cache directory."""

    directory: Path
    n_entries: int
    total_bytes: int
    max_bytes: int

    def summary(self) -> str:
        mb = self.total_bytes / 1e6
        cap = self.max_bytes / 1e6
        return (
            f"fold cache at {self.directory}\n"
            f"  entries: {self.n_entries}\n"
            f"  size: {mb:.1f} MB of {cap:.0f} MB"
        )


class FoldCache:
    """Size-bounded, content-addressed store of folded reports.

    Two tiers: a small in-process memo (reports this process already
    stored or loaded — hits cost microseconds) over the on-disk pickle
    store (hits cost one read + unpickle, still milliseconds).  Both
    are addressed by the same content key, so a hit on either tier is
    bit-identical to refolding.

    Parameters
    ----------
    directory:
        Cache root (created on first store).  Default:
        ``$REPRO_FOLD_CACHE_DIR``, else ``~/.cache/repro/folding``.
    max_bytes:
        Total on-disk size bound; least-recently-used entries are
        evicted after each store until the cache fits.
    memo_entries:
        In-process memo capacity (reports kept alive in memory);
        ``0`` disables the memo tier.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_bytes: int = 1_000_000_000,
        memo_entries: int = 8,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if memo_entries < 0:
            raise ValueError(f"memo_entries must be >= 0, got {memo_entries}")
        self.directory = Path(directory) if directory else _default_directory()
        self.max_bytes = max_bytes
        self.memo_entries = memo_entries
        self._memo: OrderedDict[str, object] = OrderedDict()

    # -- keys ----------------------------------------------------------------
    def key(self, trace: Trace, *, kind: str = "report", **params) -> str:
        """Content address of (trace, fold kind, fold parameters).

        *kind* discriminates entry families that are **not**
        bit-identical to each other.  Exact resident and counters-only
        streamed folds share the default ``"report"`` (a streamed entry
        is a strict subset of the resident report, same bits where they
        overlap); extrapolated representative folds use
        ``"extrapolated"`` and multi-direction streamed reports use
        ``"streamed"`` — their address/line products are bounded
        summaries (reservoir, sketch, count matrices), so sharing a key
        with an exact entry would silently serve approximations to
        exact callers (and vice versa) whenever fit parameters
        coincide.
        """
        return self.key_digest(trace.digest(), kind=kind, **params)

    def key_digest(self, trace_digest: str, *, kind: str = "report", **params) -> str:
        """:meth:`key` from an already-known trace content digest.

        Identical to ``key(trace, ...)`` for a trace whose ``digest()``
        equals *trace_digest* — callers that know the digest without
        holding the trace (the analysis service resolves digests from
        the repository index) derive the same addresses as the fold
        workers that later populate the entry.
        """
        blob = json.dumps(
            {
                "cache_version": FOLD_CACHE_VERSION,
                "kind": kind,
                "trace": trace_digest,
                "params": {k: _canonical(v) for k, v in sorted(params.items())},
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{_SUFFIX}"

    # -- store/fetch ---------------------------------------------------------
    def get(self, key: str):
        """The cached report for *key*, or ``None`` on a miss.

        The memo tier is consulted first; a disk hit refreshes the
        entry's mtime (LRU bookkeeping) and populates the memo.
        Entries that cannot be read or unpickled are deleted and
        reported as misses — the caller just refolds.  Every hit
        returns a fresh report wrapper (annotation bands copied), so
        annotating one returned report does not bleed into later hits.
        """
        memo = self._memo.get(key)
        if memo is not None:
            self._memo.move_to_end(key)
            return _rewrap(memo)
        path = self._path(key)
        try:
            with path.open("rb") as f:
                report = pickle.load(f)
        except FileNotFoundError:
            return None
        except Exception:
            path.unlink(missing_ok=True)
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        self._memoize(key, report)
        return _rewrap(report)

    def put(self, key: str, report) -> Path:
        """Store *report* under *key* (atomic), then enforce the bound.

        The pickle is staged to a private temp file and published with
        one ``os.replace`` — concurrent readers of the same key see
        either the previous complete entry or the new complete entry,
        never a torn pickle, and concurrent writers of the same key
        are last-writer-wins (both wrote identical bits: the key is a
        content address).  A writer dying inside the window leaves the
        published entry untouched; its staging file is swept by
        :meth:`prune`/:meth:`clear`.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(report, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self._memoize(key, _rewrap(report))
        self.prune()
        return path

    def _memoize(self, key: str, report) -> None:
        if self.memo_entries <= 0:
            return
        self._memo[key] = report
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_entries:
            self._memo.popitem(last=False)

    # -- maintenance ---------------------------------------------------------
    def _entries(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return [p for p in self.directory.iterdir() if p.suffix == _SUFFIX]

    def _stat_entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) per entry, skipping concurrently deleted ones.

        Several processes may share one cache directory (parallel fold
        workers, a serving process, a ``cache prune`` invocation); an
        entry listed a moment ago can be gone by the time it is
        stat'ed.  That is not an error — the entry simply no longer
        counts.
        """
        out = []
        for p in self._entries():
            try:
                st = p.stat()
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, p))
        return out

    def stats(self) -> CacheStats:
        entries = self._stat_entries()
        return CacheStats(
            directory=self.directory,
            n_entries=len(entries),
            total_bytes=sum(size for _, size, _ in entries),
            max_bytes=self.max_bytes,
        )

    def prune(self, max_bytes: int | None = None) -> int:
        """Evict least-recently-used entries past the size bound.

        Also sweeps staging files orphaned by a writer that died inside
        its crash window (after ``mkstemp``, before ``os.replace``) —
        they are invisible to readers but would otherwise accumulate.
        Returns the number of entries removed.
        """
        bound = self.max_bytes if max_bytes is None else max_bytes
        entries = sorted(self._stat_entries(), reverse=True)
        total = 0
        removed = 0
        for _, size, path in entries:
            total += size
            if total > bound:
                path.unlink(missing_ok=True)
                removed += 1
        self._sweep_stale_tmp()
        return removed

    def _sweep_stale_tmp(self, min_age_s: float = 3600.0) -> int:
        """Delete ``.tmp`` staging files older than *min_age_s*.

        The age guard keeps the sweep from racing a live writer that is
        mid-``pickle.dump``; an hour-old staging file belongs to a
        process that crashed in its write window.
        """
        if not self.directory.is_dir():
            return 0
        removed = 0
        now = time.time()
        for p in self.directory.iterdir():
            if p.suffix != ".tmp":
                continue
            try:
                if now - p.stat().st_mtime < min_age_s:
                    continue
            except OSError:
                continue
            p.unlink(missing_ok=True)
            removed += 1
        return removed

    def clear(self) -> int:
        """Delete every entry (both tiers); returns the number removed.

        Staging files left by crashed writers are swept too (regardless
        of age — clear means clear); they do not count as entries.
        """
        self._memo.clear()
        entries = self._entries()
        for path in entries:
            path.unlink(missing_ok=True)
        self._sweep_stale_tmp(min_age_s=0.0)
        return len(entries)


def fold_key_params(
    grid_points: int,
    bandwidth: float,
    prune_tolerance: float | None = 0.5,
    align_regions: tuple[str, ...] | None = None,
    rep_budget: int | None = None,
    rep_seed: int = 0,
) -> dict:
    """The ``kind`` and key parameters of an exact or extrapolated fold.

    The one place these keys are built: the resident
    :func:`~repro.folding.report.fold_trace`, the counters-only
    :func:`~repro.folding.stream.stream_fold_trace` and the analysis
    service's warm-path lookup all pass the result to
    :meth:`FoldCache.key` / :meth:`FoldCache.key_digest`, so a fold
    stored by one is found by the others.  The defaults are
    ``fold_trace``'s.  With *rep_budget* the key is the extrapolated
    fold's (representative folds use the linear projection, so
    *align_regions* does not apply).
    """
    if rep_budget is not None:
        return {
            "kind": "extrapolated",
            "grid_points": grid_points,
            "bandwidth": bandwidth,
            "prune_tolerance": prune_tolerance,
            "rep_budget": rep_budget,
            "rep_seed": rep_seed,
        }
    return {
        "kind": "report",
        "grid_points": grid_points,
        "bandwidth": bandwidth,
        "prune_tolerance": prune_tolerance,
        "align_regions": align_regions,
    }


def _canonical(value):
    """JSON-stable form of a fold parameter."""
    if isinstance(value, tuple):
        return list(value)
    return value


def _rewrap(report):
    """A fresh report wrapper sharing *report*'s arrays.

    Callers may mutate the returned report's annotation bands
    (``report.addresses.annotate(...)``); re-wrapping on every memo
    store/hit keeps those mutations out of the memoized entry.
    Entries without an address view (the counters-only
    :class:`~repro.folding.model.PerformanceFold` shares this cache with
    full reports under identical keys) have nothing mutable to shield
    and pass through as-is.
    """
    from dataclasses import replace as _replace

    addresses = getattr(report, "addresses", None)
    if addresses is None:
        return report
    return _replace(report, addresses=addresses.with_fresh_bands())
