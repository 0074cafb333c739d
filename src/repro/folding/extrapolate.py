"""Extrapolated folds: fold only representatives, reweight, bound error.

The expensive half of a fold is per-sample — projecting every kept
sample onto σ and aggregating the kernel-regression design.  With a
:class:`~repro.folding.reps.Representatives` selection the fold kernel
projects **only the medoid instances' samples**, each weighted by its
cluster size, so the per-sample cost scales with the representative
budget instead of the instance count.  Per-instance *totals* and
degenerate flags stay exact for every instance: they come from the
kernel's O(instances) boundary scan over the whole trace, so the
extrapolation only ever approximates curve *shape*, never the
bookkeeping the validator checks.

With an exhaustive selection (``rep_budget = n_instances``) every
weight is 1 and every kept row is projected in time order, so the
weighted design equals the exact one bit for bit (multiplying by 1.0
and summing unit weights are exact), and so does
:func:`~repro.folding.model.fold_digest`.  The equivalence suite and
``benchmarks/perf/bench_reps.py`` enforce this.

For ``budget < n`` the fidelity loss is **measured, not assumed**:
:func:`measure_fidelity` folds both ways and reports per-counter max
relative curve error plus totals error as a :class:`FidelityBound` —
computed on small digest-checked runs, carried as metadata on large
ones (the memory-access-vectors protocol, arXiv 2506.02344).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extrae.trace import Trace
from repro.folding.fold import build_prologue, project
from repro.folding.model import PerformanceFold, fit_counter_curves
from repro.folding.reps import (
    Representatives,
    derive_instances,
    select_representatives,
)
from repro.folding.signatures import instance_sample_rows
from repro.folding.stream import stream_fold_trace
from repro.simproc.machine import SAMPLE_COUNTERS
from repro.util.pava import make_design

__all__ = [
    "ExtrapolatedFold",
    "FidelityBound",
    "extrapolated_fold",
    "measure_fidelity",
]


@dataclass(frozen=True)
class FidelityBound:
    """Measured error of an extrapolated fold vs. the exact fold.

    The headline bound is ``curve_error``: the per-counter maximum
    pointwise distance between the extrapolated and exact *cumulative*
    curves.  Both curves live in [0, 1] by construction, so this is a
    relative error (a Kolmogorov–Smirnov-style distance over σ) — the
    statistic the ≤2% bench tripwire gates on.  ``rate_error`` is the
    same maximum over the derived rate curves, normalized by the exact
    peak rate; it is reported as a diagnostic only, because a sharp
    phase transition whose σ position jitters between instances moves
    the max pointwise *derivative* error by the full step height even
    when the folds agree everywhere else.
    """

    budget: int
    n_instances: int
    seed: int
    #: counter -> max |F_ext(σ) − F_exact(σ)| over the cumulative curves
    curve_error: dict[str, float]
    #: counter -> max |rate_ext − rate_exact| / max |rate_exact|
    rate_error: dict[str, float]
    #: counter -> |total_ext − total_exact| / |total_exact|
    total_error: dict[str, float]
    exact_digest: str
    extrapolated_digest: str

    @property
    def max_curve_error(self) -> float:
        return max(self.curve_error.values())

    @property
    def max_rate_error(self) -> float:
        return max(self.rate_error.values())

    @property
    def max_total_error(self) -> float:
        return max(self.total_error.values())

    @property
    def digest_match(self) -> bool:
        """True iff the two folds are bit-identical (exhaustive budget)."""
        return self.exact_digest == self.extrapolated_digest

    def summary(self) -> str:
        return (
            f"fidelity vs exact fold ({self.budget}/{self.n_instances} "
            f"instances, seed {self.seed}): max curve error "
            f"{self.max_curve_error * 100:.3f}%, max totals error "
            f"{self.max_total_error * 100:.3f}%"
            + (", digest-identical" if self.digest_match else "")
        )


@dataclass(kw_only=True)
class ExtrapolatedFold(PerformanceFold):
    """A performance fold extrapolated from weighted representatives.

    ``instances``/``totals``/``degenerate`` cover *all* instances — only
    the fitted curves are extrapolated; ``n_folded`` counts the
    representatives' samples.
    """

    title = "Extrapolated fold"

    representatives: Representatives
    #: measured error vs. the exact fold, when a harness computed one
    fidelity: FidelityBound | None = None

    def _details(self) -> list[str]:
        reps = self.representatives
        lines = [
            f"  representatives folded: {reps.n_clusters} "
            f"(budget {reps.budget}, seed {reps.seed})"
        ]
        if self.fidelity is not None:
            lines.append(f"  {self.fidelity.summary()}")
        return lines


def extrapolated_fold(
    trace: Trace,
    representatives: Representatives,
    *,
    grid_points: int = 201,
    bandwidth: float = 0.015,
    counters: tuple[str, ...] = SAMPLE_COUNTERS,
) -> ExtrapolatedFold:
    """Fold only *representatives*' samples, extrapolate by weight."""
    table = trace.sample_table()
    instances = representatives.instances
    prologue = build_prologue([table], instances, counters)
    sel = representatives.indices
    w = representatives.weights
    rows, _ = instance_sample_rows(
        table.time_ns, instances.starts_ns[sel], instances.ends_ns[sel]
    )
    if rows.size == 0:
        raise ValueError("representative instances contain no samples")
    proj = project(
        {name: table.column(name)[rows] for name in ("time_ns", *counters)},
        instances,
        prologue,
    )
    weight = np.zeros(instances.n, dtype=np.float64)
    weight[sel] = w
    design = make_design(proj.sigma, proj.fractions, weights=weight[proj.instance])
    wsum = w.sum()
    fitted = fit_counter_curves(
        design,
        grid_points=grid_points,
        bandwidth=bandwidth,
        counters=tuple(counters),
        totals_mean={
            name: float((prologue.totals[name][sel] * w).sum() / wsum)
            for name in counters
        },
        duration_ns=float((instances.durations_ns[sel] * w).sum() / wsum),
    )
    return ExtrapolatedFold(
        instances=instances,
        counters=fitted,
        totals=prologue.totals,
        degenerate=prologue.degenerate,
        n_folded=int(rows.size),
        representatives=representatives,
    )


def measure_fidelity(
    trace: Trace,
    budget: int,
    *,
    seed: int = 0,
    grid_points: int = 201,
    bandwidth: float = 0.015,
    prune_tolerance: float | None = 0.5,
) -> tuple[ExtrapolatedFold, FidelityBound]:
    """Fold both ways and measure the extrapolation error.

    Returns the extrapolated fold (with its :class:`FidelityBound`
    attached) and the bound itself.  Intended for small digest-checked
    runs — on production-size traces, run the extrapolation alone and
    carry a bound measured on a scaled-down twin as metadata.
    """
    instances = derive_instances(trace, None, prune_tolerance)
    reps = select_representatives(
        trace, instances=instances, budget=budget, seed=seed
    )
    ext = extrapolated_fold(
        trace, reps, grid_points=grid_points, bandwidth=bandwidth
    )
    # The exact fold: the kernel over the whole table as one chunk,
    # performance direction only.
    exact = stream_fold_trace(
        trace,
        chunk_rows=max(trace.n_samples, 1),
        grid_points=grid_points,
        bandwidth=bandwidth,
        prune_tolerance=prune_tolerance,
    )

    curve_error: dict[str, float] = {}
    rate_error: dict[str, float] = {}
    total_error: dict[str, float] = {}
    for name in exact.counters.curves:
        e = exact.counters[name]
        x = ext.counters[name]
        curve_error[name] = float(np.max(np.abs(x.cumulative - e.cumulative)))
        scale = float(np.max(np.abs(e.rate)))
        rate_error[name] = (
            float(np.max(np.abs(x.rate - e.rate))) / scale if scale > 0.0 else 0.0
        )
        total_error[name] = (
            abs(x.total_mean - e.total_mean) / abs(e.total_mean)
            if e.total_mean != 0.0
            else abs(x.total_mean)
        )

    bound = FidelityBound(
        budget=budget,
        n_instances=instances.n,
        seed=seed,
        curve_error=curve_error,
        rate_error=rate_error,
        total_error=total_error,
        exact_digest=exact.digest(),
        extrapolated_digest=ext.digest(),
    )
    ext.fidelity = bound
    return ext, bound
