"""Cross-rank aggregation: the cluster view over a rank-set run.

The paper folds *one representative task* of the 24-core HPCG run.
This module adds what the single-task view cannot show — how the other
23 behave relative to it:

* :func:`fold_ranks` — fold **every** rank's trace through the PR-3
  fast path (one :class:`~repro.folding.plan.FoldPlan` per rank, the
  content-addressed :class:`~repro.folding.cache.FoldCache` honored),
  pooled ``fold_sweep``-style over the spill files so each worker loads
  its rank's trace itself and only a compact :class:`RankFold` crosses
  back — the parent never holds any rank's sample table;
* :func:`build_cluster_report` — merge the per-rank folded counter
  curves into an instance-weighted cluster curve
  (:func:`repro.folding.model.merge_counters`) and derive per-rank
  imbalance metrics: sample/latency/bandwidth spread and per-region
  min/median/max time across ranks;
* :class:`ClusterReport` — the cluster-level Figure-1 variant: the
  per-rank table, the imbalance tables and the merged MIPS/IPC
  headline, rendered next to the representative rank the paper shows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.extrae.trace import Trace
from repro.folding.model import FoldedCounters, merge_counters
from repro.folding.report import fold_trace
from repro.util.tables import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.parallel.ranks import RankResult

logger = logging.getLogger("repro.parallel")

__all__ = [
    "ClusterReport",
    "Imbalance",
    "RankFold",
    "RankStats",
    "build_cluster_report",
    "fold_ranks",
    "rank_imbalance",
]


@dataclass(frozen=True)
class RankStats:
    """Scalar health metrics of one rank's trace (computed worker-side)."""

    n_samples: int
    duration_ns: float
    latency_mean: float
    latency_p95: float
    #: estimated DRAM traffic (last cumulative ``dram_lines`` reading × 64B)
    dram_bytes: float
    #: dram_bytes / duration, in MB/s
    bandwidth_MBps: float
    #: region name -> total time spent inside the region (ns)
    region_time_ns: dict[str, float] = field(default_factory=dict)
    #: region name -> samples taken inside the region
    region_samples: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RankFold:
    """One rank's folded result, distilled for cross-rank work.

    Carries the folded counter curves (grid-sized arrays) and scalar
    statistics — never the sample table — so shipping it from a pool
    worker costs KBs, not the trace's MBs.
    """

    rank: int
    seed: int
    digest: str
    n_instances: int
    mean_instance_ns: float
    n_folded_samples: int
    counters: FoldedCounters
    stats: RankStats


@dataclass(frozen=True)
class Imbalance:
    """Spread of one metric across ranks."""

    metric: str
    min: float
    median: float
    max: float
    mean: float

    @property
    def imbalance_factor(self) -> float:
        """``max / mean`` — the classic MPI load-imbalance factor
        (1.0 = perfectly balanced)."""
        return self.max / self.mean if self.mean else float("nan")

    @property
    def spread(self) -> float:
        """``(max - min) / median`` — relative peak-to-peak spread."""
        return (self.max - self.min) / self.median if self.median else float("nan")


def rank_imbalance(values: Sequence[float], metric: str) -> Imbalance:
    """Min/median/max/mean of one per-rank metric."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"no per-rank values for {metric!r}")
    return Imbalance(
        metric=metric,
        min=float(arr.min()),
        median=float(np.median(arr)),
        max=float(arr.max()),
        mean=float(arr.mean()),
    )


def compute_rank_stats(trace: Trace) -> RankStats:
    """Scalar per-rank metrics straight off a trace (indexed queries)."""
    table = trace.sample_table()
    n = len(table)
    latency = table.latency
    duration = trace.duration_ns()
    dram_bytes = 0.0
    if n:
        # Counters columns are cumulative readings; the last time-sorted
        # reading approximates the run total.
        dram_bytes = float(table.column("dram_lines")[-1]) * 64.0
    index = trace.index()
    region_time: dict[str, float] = {}
    region_samples: dict[str, int] = {}
    for name in index.events.region_names:
        intervals = index.events.region_intervals(name)
        region_time[name] = float(sum(t1 - t0 for t0, t1 in intervals))
        count = 0
        for t0, t1 in intervals:
            sl = index.samples.time_slice(t0, t1)
            count += sl.stop - sl.start
        region_samples[name] = count
    return RankStats(
        n_samples=n,
        duration_ns=duration,
        latency_mean=float(latency.mean()) if n else 0.0,
        latency_p95=float(np.percentile(latency, 95)) if n else 0.0,
        dram_bytes=dram_bytes,
        bandwidth_MBps=(dram_bytes / (duration / 1e9) / 1e6) if duration else 0.0,
        region_time_ns=region_time,
        region_samples=region_samples,
    )


# -- the pooled per-rank fold map ------------------------------------------


def _fold_one(params: tuple, result: RankResult) -> RankFold:
    """Fold one rank (top-level for picklability).

    *params* is ``(grid_points, bandwidth, prune_tolerance,
    align_regions, cache_dir, rep_budget, rep_seed)``, shared by every
    rank.  A spilled result that is not yet loaded is read from its
    spill file (a zero-copy memmap) without caching the trace on the
    result, so folding every rank holds one sample table at a time; an
    in-memory result folds its attached trace.  Either way the fold goes
    through :func:`~repro.folding.report.fold_trace` — the FoldPlan
    machinery, with the content-addressed cache when ``cache_dir`` is
    given.  With ``rep_budget`` the rank folds only that many
    representative instances (the extrapolated path); the compact
    :class:`RankFold` shape is identical either way.
    """
    (grid_points, bandwidth, prune_tolerance, align_regions, cache_dir,
     rep_budget, rep_seed) = params
    trace = (
        result.trace
        if result.trace_loaded or result.summary.path is None
        else Trace.load(result.summary.path)
    )
    cache = None
    if cache_dir is not None:
        from repro.folding.cache import FoldCache

        cache = FoldCache(cache_dir)
    report = fold_trace(
        trace,
        grid_points=grid_points,
        bandwidth=bandwidth,
        prune_tolerance=prune_tolerance,
        align_regions=align_regions,
        cache=cache,
        rep_budget=rep_budget,
        rep_seed=rep_seed,
    )
    return RankFold(
        rank=result.rank,
        seed=int(trace.metadata.get("seed", 0)),
        digest=trace.digest(),
        n_instances=report.instances.n,
        mean_instance_ns=float(report.instances.mean_duration_ns),
        n_folded_samples=report.performance.n_folded,
        counters=report.counters,
        stats=compute_rank_stats(trace),
    )


def fold_ranks(
    results: Sequence[RankResult],
    grid_points: int = 201,
    bandwidth: float = 0.015,
    prune_tolerance: float | None = 0.5,
    align_regions: tuple[str, ...] | None = None,
    max_workers: int | None = None,
    cache=None,
    rep_budget: int | None = None,
    rep_seed: int = 0,
) -> list[RankFold]:
    """Fold every rank of a rank-set run (pooled over spill files).

    When all results are spilled (the pooled :class:`RankSet` path),
    ranks fold in a process pool: each worker memory-maps its rank's
    spill file and returns a compact :class:`RankFold`, so the parent's
    sample memory stays O(1) regardless of rank count.  In-memory
    results, a single worker or an unspawnable pool fold serially —
    identical output either way, since both paths run :func:`_fold_one`.

    Pass a :class:`repro.folding.cache.FoldCache` as *cache* to serve
    repeated per-rank folds content-addressed from disk (workers reopen
    the cache directory themselves).

    With *rep_budget* every rank folds only that many representative
    instances and extrapolates (:mod:`repro.folding.extrapolate`) — the
    per-rank fold cost scales with the budget instead of the instance
    count, which multiplies across the whole rank set.
    """
    from repro.parallel.pool import pool_map, worker_count

    results = list(results)
    cache_dir = str(cache.directory) if cache is not None else None
    params = (grid_points, bandwidth, prune_tolerance, align_regions,
              cache_dir, rep_budget, rep_seed)
    workers = worker_count(max_workers, len(results))
    if not all(r.summary.path is not None and not r.trace_loaded
               for r in results):
        workers = 1  # loaded traces would be pickled to the workers
    return list(
        pool_map(
            _fold_one,
            params,
            results,
            workers,
            partial(logger.info, "fold_ranks fallback: %s"),
        )
    )


# -- the cluster report -----------------------------------------------------


@dataclass
class ClusterReport:
    """The cluster-level Figure-1 variant: all ranks, folded and merged.

    ``counters`` is the instance-weighted merge of every rank's folded
    counter curves — the cluster's mean instance.  The imbalance tables
    quantify how far individual ranks stray from it.
    """

    folds: list[RankFold]
    #: instance-weighted merged counter curves
    counters: FoldedCounters
    #: merge weight per rank (defaults to each rank's instance count)
    weights: np.ndarray

    @property
    def n_ranks(self) -> int:
        return len(self.folds)

    # ------------------------------------------------------------------
    def imbalance(self) -> dict[str, Imbalance]:
        """Spread of the headline per-rank metrics."""
        pick = {
            "samples": lambda f: f.stats.n_samples,
            "duration_ns": lambda f: f.stats.duration_ns,
            "latency_mean": lambda f: f.stats.latency_mean,
            "bandwidth_MBps": lambda f: f.stats.bandwidth_MBps,
            "instance_ns": lambda f: f.mean_instance_ns,
        }
        return {
            name: rank_imbalance([fn(f) for f in self.folds], name)
            for name, fn in pick.items()
        }

    def region_imbalance(self) -> dict[str, Imbalance]:
        """Per-region min/median/max time across ranks.

        Only regions present on every rank are compared (edge ranks
        may lack halo regions)."""
        common = set(self.folds[0].stats.region_time_ns)
        for f in self.folds[1:]:
            common &= set(f.stats.region_time_ns)
        return {
            name: rank_imbalance(
                [f.stats.region_time_ns[name] for f in self.folds], name
            )
            for name in sorted(common)
        }

    # ------------------------------------------------------------------
    def rank_table(self) -> str:
        rows = [
            (
                f.rank,
                f.stats.n_samples,
                f.n_instances,
                f.stats.duration_ns / 1e6,
                f.stats.latency_mean,
                f.stats.bandwidth_MBps,
            )
            for f in self.folds
        ]
        return format_table(
            ["rank", "samples", "instances", "duration ms", "mean lat",
             "DRAM MB/s"],
            rows,
            title=f"Cluster — {self.n_ranks} ranks, per-rank folded",
        )

    def imbalance_table(self) -> str:
        rows = [
            (
                im.metric,
                im.min,
                im.median,
                im.max,
                im.imbalance_factor,
            )
            for im in self.imbalance().values()
        ]
        return format_table(
            ["metric", "min", "median", "max", "max/mean"],
            rows,
            floatfmt=",.2f",
            title="Cross-rank imbalance",
        )

    def region_table(self) -> str:
        rows = [
            (
                im.metric,
                im.min / 1e6,
                im.median / 1e6,
                im.max / 1e6,
                im.imbalance_factor,
            )
            for im in self.region_imbalance().values()
        ]
        return format_table(
            ["region", "min ms", "median ms", "max ms", "max/mean"],
            rows,
            floatfmt=",.2f",
            title="Per-region time across ranks",
        )

    def render(self) -> str:
        """The cluster summary the CLI prints next to Figure 1."""
        mips = self.counters.mips()
        ipc = self.counters.ipc()
        lines = [
            self.rank_table(),
            "",
            self.imbalance_table(),
            "",
            self.region_table(),
            "",
            f"cluster mean instance: {self.counters.duration_ns / 1e6:.3f} ms"
            f" (merged over "
            f"{sum(f.n_instances for f in self.folds)} instances)",
            f"cluster MIPS (mean/max): {float(mips.mean()):.0f} / "
            f"{float(mips.max()):.0f}",
            f"cluster IPC mean: {float(ipc.mean()):.2f}",
        ]
        return "\n".join(lines)


def build_cluster_report(
    folds: Sequence[RankFold],
    weights: Sequence[float] | None = None,
) -> ClusterReport:
    """Merge per-rank folds into the cluster report.

    Default weights are each rank's folded instance count, making the
    merged curves the mean over all instances of the whole cluster.
    """
    folds = sorted(folds, key=lambda f: f.rank)
    if not folds:
        raise ValueError("cannot build a cluster report from zero ranks")
    w = (
        np.asarray([f.n_instances for f in folds], dtype=np.float64)
        if weights is None
        else np.asarray(list(weights), dtype=np.float64)
    )
    merged = merge_counters([f.counters for f in folds], w)
    return ClusterReport(folds=list(folds), counters=merged, weights=w)
