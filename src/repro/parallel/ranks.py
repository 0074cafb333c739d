"""Rank-set simulation: one session per simulated MPI rank.

The scale-out rank pipeline.  Running *n* ranks used to mean pickling
each rank's full :class:`~repro.pipeline.Session` + consolidated
:class:`~repro.extrae.trace.Trace` back through the process pool and
holding every rank's sample table in the parent simultaneously —
hundreds of MB of IPC and O(n_ranks) parent memory.  Now each worker
**spills** its finished trace as a v2 ``compression="none"`` container
(the zero-copy format of :mod:`repro.extrae.storage`) into a run-scoped
spill directory and returns a few-hundred-byte :class:`RankSummary`;
the parent memory-maps traces lazily on first access
(:attr:`RankResult.trace`), so peak parent memory is O(one rank) no
matter how many ranks ran.

Scheduling is streaming: :meth:`RankSet.stream` yields ranks as they
complete (or in rank order), supports ``max_workers < n_ranks``
oversubscription and a ``progress`` callback.  The pool itself is
:func:`repro.parallel.pool.pool_map`, with its one failure policy: an
unpicklable factory or an unspawnable pool runs every rank serially
in-process, a dead worker reruns only its ranks in-process, and an
exception raised by the workload propagates.  Every path runs the same
:func:`_run_rank` with the same derived per-rank seed, and a spilled
trace round-trips with its content digest unchanged, so the results are
bit-identical.  Whenever a fallback happens, the reason lands on
:attr:`RankSet.last_fallback_reason` and in the ``repro.parallel`` log.
"""

from __future__ import annotations

import atexit
import logging
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.extrae.trace import Trace
from repro.parallel.pool import pool_map, worker_count
from repro.pipeline import Session, SessionConfig
from repro.workloads.base import Workload

__all__ = ["RankResult", "RankSet", "RankSummary", "derive_rank_config"]

logger = logging.getLogger("repro.parallel")

#: Filename of one rank's spilled trace inside the spill directory.
SPILL_PATTERN = "rank{rank:05d}.bsctrace"


def derive_rank_config(config: SessionConfig, rank: int) -> SessionConfig:
    """The per-rank session configuration (seed-derived ASLR etc.).

    One definition shared by the full-set and interior-rank paths, so a
    rank simulated alone is bit-identical to the same rank inside the
    full stack.
    """
    return config.with_seed(config.seed * 1009 + rank + 1)


@dataclass(frozen=True)
class RankSummary:
    """The small picklable record a worker returns for one rank.

    This — not the live session or trace — is what crosses the process
    boundary: a few hundred bytes regardless of trace size.
    """

    rank: int
    n_ranks: int
    #: the rank's derived session configuration (carries the seed)
    config: SessionConfig
    n_samples: int
    n_events: int
    n_objects: int
    duration_ns: float
    #: content digest of the finished trace (hex SHA-256)
    digest: str
    #: spill file holding the trace, or ``None`` for in-memory results
    path: str | None

    @property
    def seed(self) -> int:
        return self.config.seed


class RankResult:
    """One rank's result: summary plus a lazily materialized trace.

    In the pooled path the trace lives in the spill file until first
    access; ``result.trace`` then memory-maps it (v2 ``none``
    container), and repeated access returns the cached object.  In the
    serial in-memory path the trace is attached directly.
    """

    def __init__(self, summary: RankSummary, trace: Trace | None = None) -> None:
        self.summary = summary
        self._trace = trace

    @property
    def rank(self) -> int:
        return self.summary.rank

    @property
    def trace(self) -> Trace:
        """The rank's finalized trace (loaded from spill on demand)."""
        if self._trace is None:
            if self.summary.path is None:
                raise RuntimeError(
                    f"rank {self.rank} has neither an in-memory trace nor "
                    f"a spill path"
                )
            self._trace = Trace.load(self.summary.path)
        return self._trace

    @property
    def trace_loaded(self) -> bool:
        """Whether the trace has been materialized in this process."""
        return self._trace is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.summary.path or "in-memory"
        return (
            f"RankResult(rank={self.rank}, n_samples={self.summary.n_samples}, "
            f"trace={where})"
        )


def _run_rank(
    job: tuple[int, SessionConfig, Callable[[int, int], Workload], str | None],
    rank: int,
) -> RankResult:
    """Build and run one rank's session (top-level for picklability).

    *job* is ``(n_ranks, config, workload_factory, spill_dir)``, shared
    by every rank of a run.  With a spill directory the finished trace
    is saved as a v2 uncompressed container and the result carries only
    the summary; without one the trace stays attached in memory.
    """
    n_ranks, config, workload_factory, spill_dir = job
    derived = derive_rank_config(config, rank)
    session = Session(derived)
    workload = workload_factory(rank, n_ranks)
    trace = session.run(workload)
    trace.metadata["rank"] = rank
    trace.metadata["n_ranks"] = n_ranks
    path: str | None = None
    if spill_dir is not None:
        path = str(Path(spill_dir) / SPILL_PATTERN.format(rank=rank))
        trace.save(path, compression="none")
    summary = RankSummary(
        rank=rank,
        n_ranks=n_ranks,
        config=derived,
        n_samples=trace.n_samples,
        n_events=len(trace.events),
        n_objects=len(trace.objects),
        duration_ns=trace.duration_ns(),
        digest=trace.digest(),
        path=path,
    )
    return RankResult(summary, trace=None if path is not None else trace)


class RankSet:
    """A 1-D stack of simulated ranks running the same local workload.

    Parameters
    ----------
    n_ranks:
        Number of ranks in the z-stack.
    config:
        Base session configuration; each rank derives its own seed from
        it (so ASLR differs per rank, like real processes).
    max_workers:
        Worker processes for :meth:`run`/:meth:`stream`.  ``None``
        picks ``min(n_ranks, cpu_count)``; ``1`` forces the serial
        path; values below ``n_ranks`` oversubscribe (ranks queue and
        run as workers free up).

    Attributes
    ----------
    last_fallback_reason:
        Why the most recent :meth:`run`/:meth:`stream` left the pool
        path (``None`` when the pool ran to completion or was never
        attempted because ``max_workers`` resolved to 1).
    spill_dir:
        The run-scoped spill directory of the most recent pooled run
        (``None`` for purely in-memory runs).
    """

    def __init__(
        self,
        n_ranks: int,
        config: SessionConfig | None = None,
        max_workers: int | None = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError(f"need at least one rank, got {n_ranks}")
        worker_count(max_workers, n_ranks)  # validates max_workers
        self.n_ranks = n_ranks
        self.config = config or SessionConfig()
        self.max_workers = max_workers
        self.last_fallback_reason: str | None = None
        self.spill_dir: Path | None = None
        self._owns_spill = False

    # -- spill lifecycle ----------------------------------------------------
    def _prepare_spill(self, spill_dir: str | Path | None) -> str:
        """Create the run-scoped spill directory.

        Always a fresh subdirectory (under *spill_dir* when given, the
        system temp dir otherwise) so :meth:`cleanup_spill` can remove
        it without touching anything the user put next to it.
        Auto-created temp directories are additionally removed at
        interpreter exit in case the caller never cleans up.
        """
        if spill_dir is not None:
            Path(spill_dir).mkdir(parents=True, exist_ok=True)
        path = tempfile.mkdtemp(
            prefix="repro-ranks-",
            dir=str(spill_dir) if spill_dir is not None else None,
        )
        if spill_dir is None:
            atexit.register(shutil.rmtree, path, ignore_errors=True)
        self.spill_dir = Path(path)
        self._owns_spill = True
        return path

    def cleanup_spill(self) -> bool:
        """Remove the run-scoped spill directory of the last run.

        Returns whether anything was removed.  Traces already
        materialized stay usable (they are memory-mapped copies only
        until touched — materialize or re-save first if you need them
        past cleanup); unmaterialized ones will no longer load.
        """
        if self.spill_dir is None or not self._owns_spill:
            return False
        removed = self.spill_dir.exists()
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        self.spill_dir = None
        self._owns_spill = False
        return removed

    def _fallback(self, reason: str) -> None:
        self.last_fallback_reason = reason
        logger.info("rank pool fallback: %s", reason)

    # -- execution ----------------------------------------------------------
    def stream(
        self,
        workload_factory: Callable[[int, int], Workload],
        *,
        spill_dir: str | Path | None = None,
        ordered: bool = False,
        progress: Callable[[int, int, RankSummary], None] | None = None,
    ) -> Iterator[RankResult]:
        """Run every rank, yielding results as a stream.

        With more than one worker, ranks execute in a process pool
        (:func:`~repro.parallel.pool.pool_map`), each worker spills its
        trace to the run-scoped directory, and only
        :class:`RankSummary` records cross the pipe — the parent holds
        at most the one rank's samples it is currently looking at.
        ``ordered=False`` (default) yields in completion order;
        ``ordered=True`` buffers summaries (not traces — buffering is
        cheap) to yield in rank order.

        A rank whose pool worker dies (``BrokenProcessPool``) is rerun
        in-process; an unpicklable factory or an unspawnable pool runs
        every rank in-process.  A run that attempts the pool spills
        even when it falls back; a serial run spills only when
        *spill_dir* is given explicitly.

        ``progress(done, total, summary)`` is called as each rank
        finishes, regardless of path.
        """
        self.last_fallback_reason = None
        total = self.n_ranks
        spill = None
        if spill_dir is not None or worker_count(self.max_workers, total) > 1:
            spill = self._prepare_spill(spill_dir)
        results = pool_map(
            _run_rank,
            (total, self.config, workload_factory, spill),
            range(total),
            self.max_workers,
            self._fallback,
            ordered=ordered,
        )
        for done, result in enumerate(results, 1):
            if progress is not None:
                progress(done, total, result.summary)
            yield result

    def run(
        self,
        workload_factory: Callable[[int, int], Workload],
        *,
        spill_dir: str | Path | None = None,
        progress: Callable[[int, int, RankSummary], None] | None = None,
    ) -> list[RankResult]:
        """Run ``workload_factory(rank, n_ranks)`` on every rank.

        Results come back in rank order and are bit-identical between
        the pooled and serial paths (asserted by the test suite on
        trace digests).  Traces of pooled runs are lazy — accessing
        ``result.trace`` memory-maps the rank's spill file; iterate
        :meth:`stream` instead if you want to bound parent memory to
        one rank at a time.
        """
        return list(
            self.stream(
                workload_factory, spill_dir=spill_dir, ordered=True,
                progress=progress,
            )
        )

    def run_interior_rank(
        self, workload_factory: Callable[[int, int], Workload]
    ) -> RankResult:
        """Run only a representative interior rank (both halos present)
        — what the paper's single-task folded analysis looks at."""
        return _run_rank(
            (self.n_ranks, self.config, workload_factory, None),
            self.n_ranks // 2,
        )
