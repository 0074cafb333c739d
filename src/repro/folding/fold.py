"""The fold kernel: boundary scan, σ projection, resident sample view.

Every fold — resident, streamed, live or extrapolated — runs the same
three steps, each implemented once:

* **boundary scan** (:func:`build_prologue`) — one pass over
  time-ordered sample chunks resolves the cumulative counter readings
  at every instance boundary, the per-instance totals and degenerate
  flags derived from them, the kept-sample count and the σ span.  All
  of it is O(instances) state, never O(samples);
* **projection** (:func:`project`) — for one chunk, each sample's
  instance, whether it lies inside one at all, its instance-relative
  normalized time σ ∈ [0, 1) and one normalized cumulative fraction
  per counter (how much of the instance's total had accrued, clipped
  to [0, 1]);
* **design accumulation** —
  :class:`repro.util.pava.DesignAccumulator`, fed the projected σ and
  fractions chunk by chunk.

A resident fold is one chunk over the in-memory table
(:func:`fold_samples` keeps the per-sample view the address and line
directions render); :mod:`repro.folding.stream` feeds many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from repro.extrae.trace import SampleTable
from repro.folding.detect import FoldInstances
from repro.simproc.machine import SAMPLE_COUNTERS
from repro.util.pava import BIN_THRESHOLD

__all__ = [
    "FoldPrologue",
    "FoldedSamples",
    "Projection",
    "boundary_increments",
    "build_prologue",
    "chunk_column",
    "count_in_instances",
    "fold_samples",
    "project",
]


def chunk_column(chunk, name: str) -> np.ndarray:
    """Column *name* of a chunk (a mapping or a ``SampleTable``)."""
    return chunk.column(name) if hasattr(chunk, "column") else chunk[name]


def _time(chunk) -> np.ndarray:
    return np.asarray(chunk_column(chunk, "time_ns"), dtype=np.float64)


def _inside_mask(
    t: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample instance index and inside-any-instance mask.

    ``starts`` must be sorted ascending (instance intervals are
    disjoint and time-ordered by construction).
    """
    idx = np.searchsorted(starts, t, side="right") - 1
    inside = (idx >= 0) & (t < ends[np.maximum(idx, 0)])
    return idx, inside


def boundary_increments(
    c_start: np.ndarray, c_end: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-instance counter increments from boundary readings.

    Returns ``(totals, degenerate, denom)``: the raw increment clamped
    at zero, the mask of non-positive raw increments — a flat counter,
    or boundary-interpolation noise — and the fraction denominator
    (raw clamped at 1e-12).
    """
    raw = c_end - c_start
    return np.maximum(raw, 0.0), raw <= 0.0, np.maximum(raw, 1e-12)


def count_in_instances(table: SampleTable, instances: FoldInstances) -> int:
    """Number of samples of *table* that fall inside any instance.

    This is the sample mass :func:`fold_samples` must conserve: every
    in-instance sample appears in the folded output exactly once, and
    no out-of-instance sample does.  The validator
    (:mod:`repro.validate.invariants`) checks the two agree.
    """
    _, inside = _inside_mask(table.time_ns, instances.starts_ns, instances.ends_ns)
    return int(inside.sum())


# ---------------------------------------------------------------------------
# Boundary scan.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldPrologue:
    """What one boundary scan learns about a sample stream.

    The per-instance boundary readings (as the totals/degenerate/
    denominator vectors derived from them), the kept sample count and
    the σ span — the only whole-stream facts a chunkwise design
    accumulation needs up front.  Everything here is O(instances).
    """

    instances: FoldInstances
    counters: tuple[str, ...]
    #: rows inside any instance — the design's sample count
    n_kept: int
    #: (σ min, σ max) over kept samples; ``None`` when nothing is kept
    span: tuple[float, float] | None
    #: counter -> per-instance reading at the instance start
    c_start: dict[str, np.ndarray]
    #: counter -> per-instance increment, clamped at zero
    totals: dict[str, np.ndarray]
    #: counter -> per-instance mask of non-positive raw increments
    degenerate: dict[str, np.ndarray]
    #: counter -> per-instance fraction denominator
    denom: dict[str, np.ndarray]
    #: (min, max) address over kept samples — only when the scan was
    #: asked to track it (the streamed address direction's sketch span)
    addr_range: tuple[int, int] | None = None

    @property
    def binned(self) -> bool:
        """Whether the design pre-aggregates onto the fixed binning."""
        return self.n_kept > BIN_THRESHOLD


def build_prologue(
    chunks,
    instances: FoldInstances,
    counters: tuple[str, ...] = SAMPLE_COUNTERS,
    *,
    track_address: bool = False,
) -> FoldPrologue:
    """Scan time-ordered *chunks* once for boundaries and reductions.

    *chunks* yields column mappings (or ``SampleTable`` objects)
    carrying ``time_ns`` plus every counter in *counters*.  Each
    instance boundary is interpolated from a window of the previous
    chunk's last row plus the current chunk, the first time the stream
    strictly passes it.  ``np.interp`` at a point only reads the
    bracketing pair of rows (the rightmost at or before it and its
    successor), so this is bit-identical to interpolating over the
    whole series, whatever the chunking.

    The kept count and σ span need no per-row work: each instance's
    kept rows of a chunk are one contiguous run, found by two
    ``searchsorted`` calls, and σ is monotone along a run, so its
    extremes are the σ of the run's first and last rows.  With
    ``track_address`` the chunks must also carry an ``address`` column,
    and the kept-sample address min/max is recorded in
    :attr:`FoldPrologue.addr_range`.
    """
    starts = instances.starts_ns
    ends = instances.ends_ns
    # A sample belongs to the last instance starting at or before it
    # (see _inside_mask), so an instance's run stops at the next start.
    run_ends = np.minimum(ends, np.append(starts[1:], np.inf))
    n_inst = instances.n
    bounds = np.concatenate([starts, ends])
    bvals = {name: np.zeros(bounds.size, dtype=np.float64) for name in counters}
    pending = np.ones(bounds.size, dtype=bool)
    prev_t: np.ndarray | None = None
    prev_v: dict[str, np.ndarray] = {}
    n_kept = 0
    smin, smax = math.inf, -math.inf
    amin, amax = None, None

    for chunk in chunks:
        t = _time(chunk)
        if t.size == 0:
            continue
        if (t[1:] < t[:-1]).any() or (prev_t is not None and t[0] < prev_t[0]):
            raise ValueError("sample chunks must arrive in time order")
        cols = {
            name: np.asarray(chunk_column(chunk, name), dtype=np.float64)
            for name in counters
        }
        lo = np.searchsorted(t, starts, side="left")
        hi = np.maximum(np.searchsorted(t, run_ends, side="left"), lo)
        runs = np.flatnonzero(hi > lo)
        if runs.size:
            n_kept += int((hi - lo).sum())
            edges = np.concatenate([lo[runs], hi[runs] - 1])
            sigma = project({"time_ns": t[edges]}, instances).sigma
            smin = min(smin, float(sigma.min()))
            smax = max(smax, float(sigma.max()))
            if track_address:
                step = np.zeros(t.size + 1, dtype=np.int8)
                step[lo[runs]] += 1
                step[hi[runs]] -= 1
                kept = np.asarray(chunk_column(chunk, "address"))[
                    np.cumsum(step[:-1]) > 0
                ]
                lo_a, hi_a = int(kept.min()), int(kept.max())
                amin = lo_a if amin is None else min(amin, lo_a)
                amax = hi_a if amax is None else max(amax, hi_a)
        resolve = pending & (bounds < t[-1])
        if resolve.any():
            at = bounds[resolve]
            for name in counters:
                if prev_t is None:
                    bvals[name][resolve] = np.interp(at, t, cols[name])
                else:
                    bvals[name][resolve] = np.interp(
                        at,
                        np.concatenate([prev_t, t]),
                        np.concatenate([prev_v[name], cols[name]]),
                    )
            pending &= ~resolve
        prev_t = t[-1:].copy()
        prev_v = {name: cols[name][-1:].copy() for name in counters}

    if pending.any() and prev_t is not None:
        # Boundaries at or past the last sample read the last value,
        # exactly as whole-series np.interp extrapolates on the right.
        for name in counters:
            bvals[name][pending] = prev_v[name][0]
    # (With zero rows every boundary reads 0.0: nothing to interpolate.)

    c_start: dict[str, np.ndarray] = {}
    totals: dict[str, np.ndarray] = {}
    degenerate: dict[str, np.ndarray] = {}
    denom: dict[str, np.ndarray] = {}
    for name in counters:
        c_start[name] = bvals[name][:n_inst]
        totals[name], degenerate[name], denom[name] = boundary_increments(
            c_start[name], bvals[name][n_inst:]
        )
    return FoldPrologue(
        instances=instances,
        counters=tuple(counters),
        n_kept=n_kept,
        span=(smin, smax) if n_kept else None,
        c_start=c_start,
        totals=totals,
        degenerate=degenerate,
        denom=denom,
        addr_range=(amin, amax) if amin is not None else None,
    )


# ---------------------------------------------------------------------------
# Projection.
# ---------------------------------------------------------------------------


class Projection(NamedTuple):
    """One chunk projected onto the folded axis."""

    #: instance index of every kept row
    instance: np.ndarray
    #: per chunk row: inside any instance
    inside: np.ndarray
    #: normalized instance time of every kept row
    sigma: np.ndarray
    #: one cumulative-fraction row per prologue counter, in [0, 1] —
    #: an iterator computing each row as it is consumed, so a design
    #: accumulation holds one row of a chunk at a time
    fractions: Iterator[np.ndarray]


def project(
    chunk,
    instances: FoldInstances,
    prologue: FoldPrologue | None = None,
    warp=None,
) -> Projection:
    """Project one time-ordered chunk onto the folded axis of *instances*.

    Samples outside every instance (setup, finalization, pruned
    instances) are dropped.  With a *prologue* over the same instances
    the chunk must carry its counters, and every kept sample gets its
    clipped cumulative fraction per counter; without one only σ is
    projected.  *warp* (a :class:`repro.folding.align.TimeWarp`)
    replaces the linear per-instance σ with a piecewise control-point
    alignment.
    """
    t = _time(chunk)
    starts, ends = instances.starts_ns, instances.ends_ns
    idx, inside = _inside_mask(t, starts, ends)
    # A chunk wholly inside instances (most streamed chunks, the
    # representative rows) is sliced, not copied through the mask.
    keep = slice(None) if inside.all() else inside
    ik = idx[keep]
    tk = t[keep]
    if warp is None:
        sigma = (tk - starts[ik]) / (ends[ik] - starts[ik])
    else:
        if warp.n_instances != instances.n:
            raise ValueError(
                f"warp covers {warp.n_instances} instances, fold has {instances.n}"
            )
        sigma = np.empty(tk.shape, dtype=np.float64)
        for i in np.unique(ik):
            sel = ik == i
            sigma[sel] = warp.sigma(int(i), tk[sel])
    counters = prologue.counters if prologue is not None else ()
    fractions = (_fraction(chunk, name, keep, ik, prologue) for name in counters)
    return Projection(ik, inside, sigma, fractions)


def _fraction(chunk, name: str, keep, ik: np.ndarray, prologue: FoldPrologue):
    """Clipped cumulative fraction of counter *name* for the kept rows."""
    value = np.asarray(chunk_column(chunk, name), dtype=np.float64)[keep]
    # In place after the subtraction: the same bits as the out-of-place
    # expression, with one fresh O(kept) buffer.
    frac = value - prologue.c_start[name][ik]
    frac /= prologue.denom[name][ik]
    return np.clip(frac, 0.0, 1.0, out=frac)


# ---------------------------------------------------------------------------
# The resident per-sample view.
# ---------------------------------------------------------------------------


@dataclass
class FoldedSamples:
    """Samples of all instances on the common normalized axis."""

    instances: FoldInstances
    #: subset of the trace's sample table that falls inside instances
    table: SampleTable
    sigma: np.ndarray
    instance: np.ndarray
    #: counter name -> per-sample cumulative fraction in [0, 1]
    fractions: dict[str, np.ndarray] = field(default_factory=dict)
    #: counter name -> per-instance total increment (clamped at 0; see
    #: ``degenerate`` for the instances whose raw increment was not
    #: positive)
    totals: dict[str, np.ndarray] = field(default_factory=dict)
    #: counter name -> per-instance mask of degenerate (non-positive)
    #: raw increments — a flat counter, or boundary-interpolation noise
    degenerate: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.sigma.size)

    def counter_total_mean(self, name: str) -> float:
        """Mean per-instance increment of a counter."""
        return float(self.totals[name].mean())

    def select(self, mask: np.ndarray) -> "FoldedSamples":
        return FoldedSamples(
            instances=self.instances,
            table=self.table.select(mask),
            sigma=self.sigma[mask],
            instance=self.instance[mask],
            fractions={k: v[mask] for k, v in self.fractions.items()},
            totals=self.totals,
            degenerate=self.degenerate,
        )


def fold_samples(
    table: SampleTable,
    instances: FoldInstances,
    warp=None,
) -> FoldedSamples:
    """Project *table*'s samples onto the folded axis of *instances*.

    The fold kernel over one chunk — the whole table — keeping the
    per-sample view.  Samples outside every instance are dropped.

    Parameters
    ----------
    warp:
        Optional :class:`repro.folding.align.TimeWarp` replacing the
        linear per-instance projection with a piecewise control-point
        alignment.
    """
    prologue = build_prologue([table], instances)
    proj = project(table, instances, prologue, warp=warp)
    return FoldedSamples(
        instances=instances,
        table=table.select(proj.inside),
        sigma=proj.sigma,
        instance=proj.instance,
        fractions=dict(zip(prologue.counters, proj.fractions)),
        totals=prologue.totals,
        degenerate=prologue.degenerate,
    )
