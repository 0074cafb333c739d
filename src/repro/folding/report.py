"""The combined three-direction folded report.

§II of the paper: "the tool provides a report where applications are
explored in three orthogonal directions: source code, memory accesses
and performance".  :func:`fold_trace` assembles all three from a trace
in one call; :class:`FoldedReport` carries them plus export helpers
that write gnuplot-style data files, as the original BSC Folding tool
does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.extrae.trace import Trace
from repro.folding.address import FoldedAddresses
from repro.folding.detect import FoldInstances
from repro.folding.fold import FoldedSamples
from repro.folding.lines import FoldedLines
from repro.folding.model import FoldedCounters, PerformanceFold
from repro.memsim.datasource import DataSource
from repro.objects.registry import DataObjectRegistry

__all__ = [
    "FoldedReport",
    "export_addresses_dat",
    "export_counters_dat",
    "export_objects_dat",
    "fold_trace",
]


@dataclass
class FoldedReport:
    """Source code × memory accesses × performance, folded."""

    trace: Trace
    instances: FoldInstances
    samples: FoldedSamples
    counters: FoldedCounters
    addresses: FoldedAddresses
    lines: FoldedLines
    registry: DataObjectRegistry

    @property
    def performance(self) -> PerformanceFold:
        """The performance direction alone, as every fold path returns it."""
        return PerformanceFold(
            instances=self.instances,
            counters=self.counters,
            totals=self.samples.totals,
            degenerate=self.samples.degenerate,
            n_folded=self.samples.n,
        )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable report header."""
        meta = self.trace.metadata
        parts = [
            f"Folded report over {self.instances.n} instances "
            f"of {self.instances.name!r}",
            f"  mean instance duration: {self.instances.mean_duration_ns / 1e6:.3f} ms",
            f"  samples folded: {self.samples.n}",
            f"  data objects: {len(self.registry)} "
            f"({self.addresses.matched_fraction() * 100:.1f}% of samples matched)",
            f"  workload: {meta.get('workload', '?')}",
        ]
        return "\n".join(parts)

    # ------------------------------------------------------------------
    def export_gnuplot(self, directory: str | Path) -> list[Path]:
        """Write the three panels as whitespace-separated data files.

        * ``codeline.dat`` — σ, line-id, file, line
        * ``addresses.dat`` — σ, address, op, source, latency, object
        * ``counters.dat`` — σ, MIPS, IPC, per-instruction rates

        Rows are assembled column-wise: each column is formatted in one
        vectorized pass and the file written as a single join, instead
        of one ``f.write`` per row (``bench_fold.py`` tracks the delta).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []

        path = directory / "codeline.dat"
        li = self.lines
        ids = np.asarray(li.line_id, dtype=np.int64)
        table_cols = [
            np.array([str(t[j]) for t in li.line_table], dtype=object)
            for j in range(3)
        ]
        _write_columns(
            path,
            "# sigma line_id function file line",
            _fmt_float(li.sigma, 6),
            _fmt_int(li.line_id),
            *(col[ids].tolist() if li.n else [] for col in table_cols),
        )
        written.append(path)

        written.append(export_addresses_dat(self.addresses, directory))
        written.append(export_counters_dat(self.counters, directory))
        written.append(export_objects_dat(self.addresses, directory))
        return written


def export_addresses_dat(addresses: FoldedAddresses, directory: str | Path) -> Path:
    """Write the scatter points (``addresses.dat``) of an address view:
    σ, address, op, source, latency, object."""
    a = addresses
    path = Path(directory) / "addresses.dat"
    # Index -1 (unmatched) picks the trailing "-" sentinel.
    names = np.array(
        [rec.name for rec in a.registry.records] + ["-"], dtype=object
    )
    src_uniq, src_inv = np.unique(a.source, return_inverse=True)
    src_pretty = np.array(
        [DataSource(int(s)).pretty for s in src_uniq], dtype=object
    )
    _write_columns(
        path,
        "# sigma address op source latency object",
        _fmt_float(a.sigma, 6),
        _fmt_hex(a.address),
        _fmt_int(a.op),
        src_pretty[src_inv].tolist() if a.n else [],
        _fmt_float(a.latency, 1),
        names[a.object_index].tolist() if a.n else [],
    )
    return path


def export_objects_dat(addresses: FoldedAddresses, directory: str | Path) -> Path:
    """Write the registry records plus annotation bands (``objects.dat``)."""
    path = Path(directory) / "objects.dat"
    rows = [
        f"{rec.name} {rec.kind} {rec.start:#x} {rec.end:#x} {rec.bytes_user}"
        for rec in addresses.registry.records
    ]
    rows += [
        f"{band.label} band {band.lo:#x} {band.hi:#x} 0"
        for band in addresses.bands
    ]
    path.write_text("\n".join(["# name kind start end bytes_user", *rows]) + "\n")
    return path


def export_counters_dat(counters: FoldedCounters, directory: str | Path) -> Path:
    """Write the performance panel (``counters.dat``) of *counters*.

    Shared by the resident report and
    :class:`~repro.folding.model.PerformanceFold`, so every fold path
    emits byte-identical files from identical curves.
    """
    directory = Path(directory)
    path = directory / "counters.dat"
    rates = {
        name: counters.per_instruction(name)
        for name in ("branches", "l1d_misses", "l2_misses", "l3_misses")
    }
    _write_columns(
        path,
        "# sigma mips ipc " + " ".join(rates),
        _fmt_float(counters.sigma, 6),
        _fmt_float(counters.mips(), 1),
        _fmt_float(counters.ipc(), 4),
        *(_fmt_float(rates[name], 6) for name in rates),
    )
    return path


def _fmt_float(values: np.ndarray, decimals: int) -> np.ndarray:
    """Format a float column in one vectorized pass."""
    return np.char.mod(f"%.{decimals}f", np.asarray(values, dtype=np.float64))


def _fmt_int(values: np.ndarray) -> list[str]:
    return [str(v) for v in np.asarray(values).astype(np.int64).tolist()]


def _fmt_hex(values: np.ndarray) -> list[str]:
    return [hex(v) for v in np.asarray(values).astype(np.int64).tolist()]


def _write_columns(path: Path, header: str, *columns) -> None:
    """Write ``header`` plus space-joined *columns* as one text blob."""
    rows = map(" ".join, zip(*columns))
    path.write_text("\n".join([header, *rows]) + "\n")


def fold_trace(
    trace: Trace,
    instances: FoldInstances | None = None,
    registry: DataObjectRegistry | None = None,
    grid_points: int = 201,
    bandwidth: float = 0.015,
    prune_tolerance: float | None = 0.5,
    align_regions: tuple[str, ...] | None = None,
    cache=None,
    rep_budget: int | None = None,
    rep_seed: int = 0,
) -> FoldedReport:
    """One-call folding of a trace into the three-direction report.

    Equivalent to ``FoldPlan.from_trace(...).fold(...)`` — callers that
    fold the same trace at several parameter points should build the
    :class:`~repro.folding.plan.FoldPlan` themselves and reuse it.
    Streamed folds live in :func:`repro.folding.stream.stream_fold_trace`.

    Parameters
    ----------
    trace:
        A finalized trace with iteration markers (or pass explicit
        *instances*).
    instances:
        Fold boundaries; default: consecutive iteration markers.
    registry:
        Data objects; default: the trace's own object records.
    prune_tolerance:
        Relative duration tolerance for instance pruning (None
        disables pruning).
    align_regions:
        When given, project samples with a piecewise control-point
        warp built from these regions' enter events
        (:mod:`repro.folding.align`) instead of the linear per-instance
        projection — robust against intra-instance perturbation.
    cache:
        Optional :class:`repro.folding.cache.FoldCache`.  When given,
        a report previously folded from a bit-identical trace at these
        exact parameters is returned from disk; otherwise the fresh
        report is stored before returning.  Only default *instances*
        and *registry* are cacheable (explicit ones bypass the cache).
    rep_budget:
        Fold only this many representative instances and extrapolate
        (:func:`repro.folding.extrapolate.extrapolated_fold`).  Returns
        a counters-only
        :class:`~repro.folding.extrapolate.ExtrapolatedFold` — exact
        per-instance totals/degenerate flags, approximate curve shape,
        bit-identical to the exact fold when the budget covers every
        instance.  Incompatible with *align_regions* and explicit
        *registry*.
    rep_seed:
        Clustering seed for the representative selection (part of the
        cache key).
    """
    from repro.folding.plan import FoldPlan

    if rep_budget is not None:
        from repro.folding.extrapolate import ExtrapolatedFold, extrapolated_fold
        from repro.folding.reps import select_representatives

        if align_regions is not None or registry is not None:
            raise ValueError(
                "representative folds use the linear per-instance projection "
                "and carry no address view — align_regions/registry need the "
                "resident fold"
            )
        cacheable = cache is not None and instances is None
        if cacheable:
            key = cache.key(
                trace,
                kind="extrapolated",
                grid_points=grid_points,
                bandwidth=bandwidth,
                prune_tolerance=prune_tolerance,
                rep_budget=rep_budget,
                rep_seed=rep_seed,
            )
            hit = cache.get(key)
            if isinstance(hit, ExtrapolatedFold):
                return hit
        reps = select_representatives(
            trace,
            instances=instances,
            budget=rep_budget,
            seed=rep_seed,
            prune_tolerance=prune_tolerance,
        )
        ext = extrapolated_fold(
            trace, reps, grid_points=grid_points, bandwidth=bandwidth
        )
        if cacheable:
            cache.put(key, ext)
        return ext

    cacheable = cache is not None and instances is None and registry is None
    if cacheable:
        key = cache.key(
            trace,
            grid_points=grid_points,
            bandwidth=bandwidth,
            prune_tolerance=prune_tolerance,
            align_regions=align_regions,
        )
        hit = cache.get(key)
        # A counters-only streamed entry can share this key; the
        # resident path cannot serve a full report from it, so treat it
        # as a miss (the fresh full report then overwrites the entry).
        if isinstance(hit, FoldedReport):
            # Entries are stored without the (large) input trace; the
            # caller's live trace is bit-identical by key construction.
            hit.trace = trace
            return hit
    plan = FoldPlan.from_trace(
        trace,
        instances=instances,
        registry=registry,
        prune_tolerance=prune_tolerance,
        align_regions=align_regions,
    )
    report = plan.fold(grid_points=grid_points, bandwidth=bandwidth)
    if cacheable:
        cache.put(key, replace(report, trace=None))
    return report
