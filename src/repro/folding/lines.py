"""The folded source-code view.

Every sample carries the call-stack the tracer maintained when it was
taken; its leaf frame names the source line executing at that moment.
Folding those gives the top panel of Figure 1 — which code line runs at
each normalized time — from which phases (A, B, C, D, E) are directly
readable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extrae.trace import Trace
from repro.folding.fold import FoldedSamples
from repro.vmem.callstack import CallStack

__all__ = [
    "FoldedLines",
    "LineTableBuilder",
    "fold_lines",
    "leaf_and_region",
    "region_runs",
]


def leaf_and_region(stack: CallStack) -> tuple[tuple[str, str, int], str]:
    """A call-stack's source line key and instrumented-region name.

    The *line* is the leaf frame ``(function, file, line)``; the
    *region* is the innermost instrumented frame — the second-to-leaf
    frame's function when the batch pushed a source-line leaf, except
    that a ``Compute*`` leaf names its own region (the HPCG compute
    kernels are instrumented at the function itself).  Shared by the
    resident :func:`fold_lines` and the streamed line direction
    (:mod:`repro.folding.stream_views`), so both derive identical
    tables from identical call-stacks.
    """
    leaf = stack.leaf
    key = (leaf.function, leaf.file, leaf.line)
    region = stack.frames[-2].function if stack.depth >= 2 else leaf.function
    if leaf.function != region and leaf.function.startswith("Compute"):
        region = leaf.function
    return key, region


class LineTableBuilder:
    """Incremental interner of call-stacks into line/region tables.

    Feed call-stack id arrays through :meth:`assign`; line keys and
    region names are appended to :attr:`line_table`/:attr:`region_table`
    in the order the ids are interned, and every sample is mapped onto
    the tables with one vectorized gather.  The resident fold interns
    the trace's sorted unique ids once; the streaming fold interns each
    chunk's unseen ids in first-appearance order (chunk-invariant: an
    id's first appearance in a time-ordered stream does not depend on
    the chunking).
    """

    def __init__(self, resolver) -> None:
        #: ``resolver(cs_id) -> CallStack`` (usually ``Trace.callstack``)
        self._resolver = resolver
        self.line_table: list[tuple[str, str, int]] = []
        self.region_table: list[str] = []
        self._line_lookup: dict[tuple[str, str, int], int] = {}
        self._region_lookup: dict[str, int] = {}
        self._cs_line: dict[int, int] = {}
        self._cs_region: dict[int, int] = {}

    def bind(self, resolver) -> None:
        """Late-bind the call-stack resolver (live Tracer wiring)."""
        self._resolver = resolver

    def intern(self, cs_ids) -> None:
        """Register call-stack ids (iterated in the given order)."""
        if self._resolver is None:
            raise ValueError(
                "no call-stack resolver bound — pass one at construction "
                "or via bind()"
            )
        for cs_id in cs_ids:
            cs_id = int(cs_id)
            if cs_id in self._cs_line:
                continue
            key, region = leaf_and_region(self._resolver(cs_id))
            if key not in self._line_lookup:
                self._line_lookup[key] = len(self.line_table)
                self.line_table.append(key)
            self._cs_line[cs_id] = self._line_lookup[key]
            if region not in self._region_lookup:
                self._region_lookup[region] = len(self.region_table)
                self.region_table.append(region)
            self._cs_region[cs_id] = self._region_lookup[region]

    def assign(
        self, cs_ids: np.ndarray, *, first_appearance: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Intern the unseen ids of *cs_ids* and map every sample onto
        the tables: ``(line_id, region_id)``.

        New ids are interned in sorted-id order, or with
        *first_appearance* in the order they first occur in *cs_ids*.
        One ``np.unique`` serves both the interning and the per-sample
        gather.
        """
        cs_ids = np.asarray(cs_ids)
        if first_appearance:
            uniq, first = np.unique(cs_ids, return_index=True)
            self.intern(uniq[np.argsort(first, kind="stable")])
        else:
            uniq = np.unique(cs_ids)
            self.intern(uniq)
        line_vals = np.array([self._cs_line[int(i)] for i in uniq], dtype=np.int64)
        region_vals = np.array(
            [self._cs_region[int(i)] for i in uniq], dtype=np.int64
        )
        # Per-sample position in the sorted unique ids: one gather per
        # table instead of a Python loop over samples.
        pos = np.searchsorted(uniq, cs_ids)
        return line_vals[pos], region_vals[pos]


def region_runs(
    ids: np.ndarray, weights: np.ndarray, table: list[str], min_run: int
) -> list[str]:
    """Names of the runs of equal consecutive *ids* whose summed
    *weights* reach *min_run*, consecutive duplicates collapsed."""
    ids = np.asarray(ids)
    if not ids.size:
        return []
    starts = np.flatnonzero(np.concatenate([[True], ids[1:] != ids[:-1]]))
    lengths = np.add.reduceat(np.asarray(weights, dtype=np.int64), starts)
    kept = ids[starts][lengths >= min_run]
    if kept.size:
        kept = kept[np.concatenate([[True], kept[1:] != kept[:-1]])]
    return [table[int(i)] for i in kept]


@dataclass
class FoldedLines:
    """Folded (σ, source line) points.

    ``line_table[i]`` is a ``(function, file, line)`` triple;
    ``line_id`` indexes into it.  ``region_id``/``region_table`` give
    the coarser instrumented-region identity of each sample (the
    label A/B/C/D/E annotations derive from these).
    """

    sigma: np.ndarray
    line_id: np.ndarray
    line_table: list[tuple[str, str, int]]
    region_id: np.ndarray
    region_table: list[str]

    @property
    def n(self) -> int:
        return int(self.sigma.size)

    def line_of(self, index: int) -> tuple[str, str, int]:
        return self.line_table[int(self.line_id[index])]

    def dominant_region(self, lo: float, hi: float) -> str:
        """Most common region among samples with σ in [lo, hi)."""
        mask = (self.sigma >= lo) & (self.sigma < hi)
        if not mask.any():
            raise ValueError(f"no samples in window [{lo}, {hi})")
        ids, counts = np.unique(self.region_id[mask], return_counts=True)
        return self.region_table[int(ids[np.argmax(counts)])]

    def region_sequence(self, min_run: int = 5) -> list[str]:
        """Regions in σ order, runs shorter than *min_run* samples
        dropped, consecutive duplicates collapsed."""
        ids = self.region_id[np.argsort(self.sigma, kind="stable")]
        return region_runs(ids, np.ones(ids.size, np.int64), self.region_table, min_run)


def fold_lines(folded: FoldedSamples, trace: Trace) -> FoldedLines:
    """Extract the folded source-line track from the samples.

    The *region* of a sample is the innermost instrumented region
    (second-to-leaf frame when the batch added a source-line leaf); the
    *line* is the leaf frame itself.
    """
    # Intern the sorted unique ids (the historical table order) and
    # map per-sample ids with one vectorized gather — the tables are
    # built once per trace from O(unique call-stacks) Python work.
    builder = LineTableBuilder(trace.callstack)
    line_id, region_id = builder.assign(
        folded.table.callstack_id, first_appearance=False
    )
    return FoldedLines(
        sigma=folded.sigma,
        line_id=line_id,
        line_table=builder.line_table,
        region_id=region_id,
        region_table=builder.region_table,
    )
