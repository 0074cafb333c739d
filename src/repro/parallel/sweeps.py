"""Parameter sweeps over the folding fast path.

Folding a trace at many (grid, bandwidth) points — e.g. the kernel
ablation in :mod:`benchmarks` or a seed-stability study — is
embarrassingly parallel: the expensive trace-dependent work is shared
(one :class:`~repro.folding.plan.FoldPlan` per trace), and each point
is an independent fit.  :func:`fold_sweep` ships the trace to each
worker **once**, builds the plan there on the first point, and folds
that worker's share of points against it; :func:`seed_sweep` runs a
workload at several seeds and folds each resulting trace.

Both run on :func:`repro.parallel.pool.pool_map` and share its failure
policy with :class:`~repro.parallel.ranks.RankSet`: one worker, an
unpicklable input or a sandbox that cannot spawn processes runs every
point in-process; a dead worker reruns only its points in-process; an
exception raised by a fold propagates.  Every path produces
bit-identical results, and each fallback is logged on the
``repro.parallel`` logger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Sequence

from repro.extrae.trace import Trace
from repro.folding.plan import FoldPlan
from repro.folding.report import FoldedReport
from repro.parallel.pool import pool_map
from repro.pipeline import SessionConfig, run_workload
from repro.workloads.base import Workload

__all__ = ["SweepPoint", "SweepResult", "SeedResult", "fold_sweep", "seed_sweep"]

logger = logging.getLogger("repro.parallel")


@dataclass(frozen=True)
class SweepPoint:
    """One (grid_points, bandwidth) fold-parameter combination."""

    grid_points: int
    bandwidth: float


@dataclass
class SweepResult:
    """A folded report at one sweep point."""

    point: SweepPoint
    report: FoldedReport


@dataclass
class SeedResult:
    """One seed's trace and folded report."""

    seed: int
    report: FoldedReport


@dataclass
class _SweepInput:
    """What every point of a fold sweep shares: the trace and the plan
    parameters.  The plan is built on first use in each process that
    holds a copy — once per pool worker, once in-process."""

    trace: Trace
    prune_tolerance: float | None
    align_regions: tuple[str, ...] | None

    @cached_property
    def plan(self) -> FoldPlan:
        return FoldPlan.from_trace(
            self.trace,
            prune_tolerance=self.prune_tolerance,
            align_regions=self.align_regions,
        )


def _fold_point(sweep: _SweepInput, point: SweepPoint) -> FoldedReport:
    report = sweep.plan.fold(
        grid_points=point.grid_points, bandwidth=point.bandwidth
    )
    # The caller already holds the trace; don't pickle it back per point.
    return replace(report, trace=None)


def fold_sweep(
    trace: Trace,
    bandwidths: Sequence[float] = (0.015,),
    grid_points: Sequence[int] = (201,),
    prune_tolerance: float | None = 0.5,
    align_regions: tuple[str, ...] | None = None,
    max_workers: int | None = None,
) -> list[SweepResult]:
    """Fold *trace* at every (grid, bandwidth) combination.

    Points are the cross product ``grid_points × bandwidths`` in that
    nesting order, and results come back in point order regardless of
    execution order.  With more than one worker the trace is pickled
    once, crosses to each worker through the pool initializer, and
    every worker reuses one plan; with one worker (or an unpicklable
    trace, or no spawnable pool) the same points are folded serially
    against a single in-process plan — same reports either way.

    ``max_workers=None`` picks ``min(n_points, cpu_count)``; ``1``
    forces the serial path.
    """
    points = [
        SweepPoint(grid_points=g, bandwidth=b)
        for g in grid_points
        for b in bandwidths
    ]
    reports = pool_map(
        _fold_point,
        _SweepInput(trace, prune_tolerance, align_regions),
        points,
        max_workers,
        partial(logger.info, "fold_sweep fallback: %s"),
    )
    results = [SweepResult(p, r) for p, r in zip(points, list(reports))]
    for result in results:
        result.report.trace = trace  # stripped by _fold_point
    return results


def _run_seed(
    job: tuple[SessionConfig, Callable[[], Workload], int, float], seed: int
) -> SeedResult:
    """Run and fold one seed (top-level for picklability).

    *job* is ``(config, workload_factory, grid_points, bandwidth)``,
    shared by every seed of a sweep.
    """
    config, workload_factory, grid_points, bandwidth = job
    trace = run_workload(workload_factory(), config.with_seed(seed))
    plan = FoldPlan.from_trace(trace)
    return SeedResult(
        seed=seed, report=plan.fold(grid_points=grid_points, bandwidth=bandwidth)
    )


def seed_sweep(
    workload_factory: Callable[[], Workload],
    seeds: Sequence[int],
    config: SessionConfig | None = None,
    grid_points: int = 201,
    bandwidth: float = 0.015,
    max_workers: int | None = None,
) -> list[SeedResult]:
    """Run ``workload_factory()`` at every seed and fold each trace.

    The workhorse of seed-stability studies: how much do folded curves
    move under ASLR/sampling randomization alone?  Each seed is a full
    independent simulation, so seeds execute in a process pool when
    available (results in seed order, bit-identical to serial); the
    factory must be a picklable top-level callable for the pool path
    and is pickled exactly once.
    """
    return list(
        pool_map(
            _run_seed,
            (config or SessionConfig(), workload_factory, grid_points, bandwidth),
            seeds,
            max_workers,
            partial(logger.info, "seed_sweep fallback: %s"),
        )
    )
