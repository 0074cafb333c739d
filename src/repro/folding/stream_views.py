"""The streamed line direction and the combined streamed report.

The address direction has one accumulator for every fold path
(:class:`~repro.folding.address.AddressStream`); the line direction
keeps two products.  The resident :class:`~repro.folding.lines.FoldedLines`
holds one (σ, line, region) point per kept sample, while
:class:`StreamedLines` collapses them into fixed (line × σ-bin) and
(region × σ-bin) count matrices, so its memory does not grow with the
trace:

* per-chunk call-stack ids feed a persistent
  :class:`~repro.folding.lines.LineTableBuilder`; the matrices are
  exact per bin and digest-equal to binning the resident points
  (:func:`lines_from_folded`);
* ``dominant_region`` is exact for bin-aligned windows.  There is no
  streamed ``region_sequence``: the binned matrices cannot reproduce
  the per-sample :meth:`FoldedLines.region_sequence` (the order of
  regions sharing a σ bin is lost), so that query needs the resident
  fold.

The driver lives in :func:`repro.folding.stream.stream_fold_trace`
(``directions=("counters", "address", "lines")``); this module holds
the line accumulator and the combined :class:`StreamedReport` product.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.folding.address import FoldedAddresses, _hash_arrays
from repro.folding.lines import FoldedLines, LineTableBuilder
from repro.folding.report import (
    export_addresses_dat,
    export_counters_dat,
    export_objects_dat,
)
from repro.objects.registry import DataObjectRegistry

__all__ = [
    "LINE_SIGMA_BINS",
    "LineStream",
    "StreamedLines",
    "StreamedReport",
    "lines_from_folded",
]

#: σ resolution of the streamed line/region count matrices.  4096 bins
#: keep windows at multiples of 1/4096 (0.25, 0.5, …) exactly
#: bin-aligned, so ``dominant_region`` over such windows is exact.
LINE_SIGMA_BINS = 4096


# ---------------------------------------------------------------------------
# Line direction.
# ---------------------------------------------------------------------------


@dataclass
class StreamedLines:
    """The streamed stand-in for :class:`FoldedLines`.

    Fixed (line × σ-bin) and (region × σ-bin) count matrices over the
    same tables a resident fold would build.  Windowed queries
    (``dominant_region``) are exact whenever the window is bin-aligned
    (any multiple of ``1 / sigma_bins``).
    """

    line_table: list[tuple[str, str, int]]
    region_table: list[str]
    #: ``line_counts[l, s]`` — samples of line *l* in σ-bin *s*
    line_counts: np.ndarray
    region_counts: np.ndarray

    @property
    def sigma_bins(self) -> int:
        return int(self.region_counts.shape[1])

    @property
    def n(self) -> int:
        return int(self.region_counts.sum())

    def dominant_region(self, lo: float, hi: float) -> str:
        """Most common region among samples with σ in [lo, hi), counted
        over the bins the window touches."""
        bins = self.sigma_bins
        b0 = max(int(np.floor(lo * bins)), 0)
        b1 = min(int(np.ceil(hi * bins)), bins) if hi > lo else b0
        counts = self.region_counts[:, b0:b1].sum(axis=1)
        if not counts.any():
            raise ValueError(f"no samples in window [{lo}, {hi})")
        return self.region_table[int(np.argmax(counts))]

    def digest(self) -> str:
        """Hex SHA-256, canonicalized by sorting rows by table key.

        The resident fold interns ids in sorted-unique order and the
        streamed fold in first-appearance order; sorting the matrix
        rows by their (function, file, line) / region-name keys makes
        the digest order-independent, so the two sides compare equal
        iff the counts agree.
        """
        line_order = np.array(
            sorted(range(len(self.line_table)), key=self.line_table.__getitem__),
            dtype=np.int64,
        )
        region_order = np.array(
            sorted(
                range(len(self.region_table)), key=self.region_table.__getitem__
            ),
            dtype=np.int64,
        )
        h = _hash_arrays(
            self.line_counts[line_order] if len(line_order) else self.line_counts,
            self.region_counts[region_order]
            if len(region_order)
            else self.region_counts,
        )
        for i in line_order:
            h.update(repr(self.line_table[int(i)]).encode())
        for i in region_order:
            h.update(self.region_table[int(i)].encode())
        return h.hexdigest()


class LineStream:
    """Chunkwise accumulator for the streamed line direction."""

    def __init__(self, resolver=None) -> None:
        self.builder = LineTableBuilder(resolver)
        self._line_counts = np.zeros((0, LINE_SIGMA_BINS), dtype=np.int64)
        self._region_counts = np.zeros((0, LINE_SIGMA_BINS), dtype=np.int64)

    def bind(self, resolver) -> None:
        """Late-bind the call-stack resolver (live Tracer wiring)."""
        self.builder.bind(resolver)

    def _grown(self, counts: np.ndarray, rows: int) -> np.ndarray:
        if counts.shape[0] >= rows:
            return counts
        grown = np.zeros((rows, LINE_SIGMA_BINS), dtype=np.int64)
        grown[: counts.shape[0]] = counts
        return grown

    def add(self, sigma: np.ndarray, callstack_id: np.ndarray) -> None:
        """Fold one chunk of kept samples (stream order)."""
        sigma = np.asarray(sigma, dtype=np.float64)
        if not sigma.size:
            return
        line_id, region_id = self.builder.assign(
            np.asarray(callstack_id).astype(np.int64), first_appearance=True
        )
        self._line_counts = self._grown(
            self._line_counts, len(self.builder.line_table)
        )
        self._region_counts = self._grown(
            self._region_counts, len(self.builder.region_table)
        )
        sbin = np.minimum(
            (sigma * LINE_SIGMA_BINS).astype(np.int64), LINE_SIGMA_BINS - 1
        )
        np.add.at(self._line_counts, (line_id, sbin), 1)
        np.add.at(self._region_counts, (region_id, sbin), 1)

    def result(self) -> StreamedLines:
        return StreamedLines(
            line_table=list(self.builder.line_table),
            region_table=list(self.builder.region_table),
            line_counts=self._line_counts.copy(),
            region_counts=self._region_counts.copy(),
        )


def lines_from_folded(lines: FoldedLines) -> StreamedLines:
    """The resident reference: bin a whole resident line fold into the
    streamed matrices (same σ resolution)."""
    line_counts = np.zeros((len(lines.line_table), LINE_SIGMA_BINS), dtype=np.int64)
    region_counts = np.zeros(
        (len(lines.region_table), LINE_SIGMA_BINS), dtype=np.int64
    )
    if lines.n:
        sbin = np.minimum(
            (np.asarray(lines.sigma, dtype=np.float64) * LINE_SIGMA_BINS).astype(
                np.int64
            ),
            LINE_SIGMA_BINS - 1,
        )
        np.add.at(line_counts, (lines.line_id, sbin), 1)
        np.add.at(region_counts, (lines.region_id, sbin), 1)
    return StreamedLines(
        line_table=list(lines.line_table),
        region_table=list(lines.region_table),
        line_counts=line_counts,
        region_counts=region_counts,
    )


# ---------------------------------------------------------------------------
# The combined product.
# ---------------------------------------------------------------------------


@dataclass
class StreamedReport:
    """All streamed fold directions of one trace.

    ``performance`` is the :class:`~repro.folding.model.PerformanceFold`
    (bit-identical counter curves); ``addresses`` and
    ``lines`` are the bounded summaries of the other two panels, or
    ``None`` when their direction was not requested.
    """

    performance: object
    addresses: FoldedAddresses | None
    lines: StreamedLines | None
    directions: tuple[str, ...]

    @property
    def counters(self):
        return self.performance.counters

    @property
    def instances(self):
        return self.performance.instances

    @property
    def registry(self) -> DataObjectRegistry | None:
        return self.addresses.registry if self.addresses is not None else None

    @property
    def n_folded(self) -> int:
        return int(self.performance.n_folded)

    def digest(self) -> str:
        """Hex SHA-256 over every streamed direction."""
        from repro.folding.model import fold_digest

        h = hashlib.sha256()
        h.update(fold_digest(self.performance).encode())
        if self.addresses is not None:
            h.update(self.addresses.digest().encode())
        if self.lines is not None:
            h.update(self.lines.digest().encode())
        return h.hexdigest()

    def summary(self) -> str:
        lines = [self.performance.summary()]
        if self.addresses is not None:
            a = self.addresses
            sketch = (
                f"sketch {a.sketch.bands}x{a.sketch.sigma_bins}"
                if a.sketch is not None
                else "no sketch (live)"
            )
            lines.append(
                f"addresses: {a.n_folded} samples "
                f"({a.matched_fraction():.1%} matched), "
                f"reservoir {a.n} points, " + sketch
            )
        if self.lines is not None:
            li = self.lines
            lines.append(
                f"lines: {len(li.line_table)} lines, "
                f"{len(li.region_table)} regions over "
                f"{li.sigma_bins} sigma bins"
            )
        return "\n".join(lines)

    def export_gnuplot(self, directory: str | Path) -> list[Path]:
        """Write the streamed panels as whitespace-separated files.

        * ``counters.dat`` — identical to the resident export
        * ``addresses.dat`` — the reservoir points, resident columns
        * ``address_density.dat`` — the sketch (band lo/hi × σ-bin)
        * ``codeline_density.dat`` — per-line σ-bin counts
        * ``objects.dat`` — registry records plus annotation bands
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = [export_counters_dat(self.counters, directory)]

        if self.addresses is not None:
            a = self.addresses
            written.append(export_addresses_dat(a, directory))
            sketch = a.sketch
            if sketch is not None:
                path = directory / "address_density.dat"
                edges = sketch.band_edges()
                rows = ["# band_lo band_hi " + " ".join(
                    f"s{j}" for j in range(sketch.sigma_bins)
                )]
                for b in range(sketch.bands):
                    counts = " ".join(str(int(c)) for c in sketch.counts[b])
                    rows.append(
                        f"{int(edges[b]):#x} {int(edges[b + 1]):#x} {counts}"
                    )
                path.write_text("\n".join(rows) + "\n")
                written.append(path)
            written.append(export_objects_dat(a, directory))

        if self.lines is not None:
            li = self.lines
            path = directory / "codeline_density.dat"
            rows = ["# line_id function file line " + " ".join(
                f"s{j}" for j in range(li.sigma_bins)
            )]
            for i, (function, file, line) in enumerate(li.line_table):
                counts = " ".join(str(int(c)) for c in li.line_counts[i])
                rows.append(f"{i} {function} {file} {line} {counts}")
            path.write_text("\n".join(rows) + "\n")
            written.append(path)
        return written
