"""The folded address-space view — this paper's headline extension.

Each retained memory sample becomes a point ``(σ, address)`` carrying
its operation (load/store), data source, access latency and — once
resolved — its data object.  This is the middle panel of Figure 1:
address ramps reveal sweep direction, black (store) points reveal
which regions are written, and object annotations name the streams.

One accumulator builds the direction for every fold path.
:class:`AddressStream` takes kept samples chunk by chunk and keeps:

* **exact accounting** — :class:`AddressAccounting`: per-object,
  per-source and per-op counts plus per-object latency sums.  All sums
  are additive in stream order, so any chunking gives the same bits;
* **the point set** — :class:`AddressReservoir`.  Unbounded, it holds
  every kept sample in stream order (the resident scatter);  bounded,
  it is a deterministic A-Res reservoir of ``capacity`` points, so a
  streamed or live fold of any size renders in bounded memory;
* **a density sketch** (streamed folds only) — :class:`DensitySketch`,
  a fixed (address-band × σ-bin) integer histogram, exact at its
  resolution whatever the point budget.

:func:`fold_addresses` is the resident driver: the whole kept table fed
as one chunk to an unbounded accumulator.  The streamed and live
drivers (:mod:`repro.folding.stream`) feed many chunks to a bounded
one.  Both return the one product, :class:`FoldedAddresses`; the two
forms differ only in how many points they hold, and
:func:`measure_address_fidelity` measures what the bound costs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.folding.fold import FoldedSamples
from repro.memsim.datasource import DataSource
from repro.memsim.patterns import MemOp
from repro.objects.registry import DataObjectRegistry

__all__ = [
    "AddressAccounting",
    "AddressBand",
    "AddressFidelity",
    "AddressReservoir",
    "AddressStream",
    "DensitySketch",
    "FoldedAddresses",
    "RESERVOIR_CAPACITY",
    "SKETCH_BANDS",
    "SKETCH_SIGMA_BINS",
    "fold_addresses",
    "measure_address_fidelity",
]

#: σ resolution of the address density sketch.
SKETCH_SIGMA_BINS = 512
#: Address-band resolution of the density sketch.
SKETCH_BANDS = 256
#: Point budget of streamed and live folds — enough to render a dense
#: scatter panel.
RESERVOIR_CAPACITY = 65536

_N_SOURCE_CODES = int(max(DataSource)) + 1
_N_OP_CODES = int(max(MemOp)) + 1

# splitmix64 (same finalizer idiom as repro.simproc.spe).
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Full splitmix64 of a uint64 array (gamma step + finalizer)."""
    x = np.asarray(x, dtype=np.uint64) + _SPLITMIX_GAMMA
    x = (x ^ (x >> np.uint64(30))) * _SPLITMIX_1
    x = (x ^ (x >> np.uint64(27))) * _SPLITMIX_2
    return x ^ (x >> np.uint64(31))


def _hash_arrays(*arrays: np.ndarray) -> "hashlib._Hash":
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h


@dataclass(frozen=True)
class AddressBand:
    """A labelled address range shown alongside the scatter (object
    extents, halo annotations like the paper's ghost/bottom/top)."""

    label: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.hi <= self.lo:
            raise ValueError(f"band {self.label!r} is empty")


# ---------------------------------------------------------------------------
# Exact accounting.
# ---------------------------------------------------------------------------


@dataclass
class AddressAccounting:
    """Exact additive accounting of the folded address samples.

    Per-object rows (index = registry record index, trailing row =
    unmatched), per-source and per-op counts, and per-object latency
    sums.  Every field is a plain sum in stream order, so feeding the
    samples chunk by chunk replays the identical addition sequence as
    one chunk — the digests match bit for bit.
    """

    #: samples resolved to each object; last row collects unmatched.
    object_counts: np.ndarray
    object_loads: np.ndarray
    object_stores: np.ndarray
    object_latency: np.ndarray
    #: samples per :class:`~repro.memsim.datasource.DataSource` code.
    source_counts: np.ndarray
    #: samples per :class:`~repro.memsim.patterns.MemOp` code.
    op_counts: np.ndarray
    n: int = 0

    @classmethod
    def empty(cls, n_objects: int) -> "AddressAccounting":
        rows = n_objects + 1
        return cls(
            object_counts=np.zeros(rows, dtype=np.int64),
            object_loads=np.zeros(rows, dtype=np.int64),
            object_stores=np.zeros(rows, dtype=np.int64),
            object_latency=np.zeros(rows, dtype=np.float64),
            source_counts=np.zeros(_N_SOURCE_CODES, dtype=np.int64),
            op_counts=np.zeros(_N_OP_CODES, dtype=np.int64),
        )

    def add(
        self,
        op: np.ndarray,
        source: np.ndarray,
        latency: np.ndarray,
        object_index: np.ndarray,
    ) -> None:
        """Account one chunk of samples (order-exact accumulation)."""
        op = np.asarray(op, dtype=np.int64)
        source = np.asarray(source, dtype=np.int64)
        latency = np.asarray(latency, dtype=np.float64)
        obj = np.asarray(object_index, dtype=np.int64)
        rows = self.object_counts.size
        slot = np.where(obj >= 0, obj, rows - 1)
        # Integer counts are exact in any order; the float latency sums
        # are added one sample at a time, in stream order.
        self.object_counts += np.bincount(slot, minlength=rows)
        self.object_loads += np.bincount(
            slot[op == int(MemOp.LOAD)], minlength=rows
        )
        self.object_stores += np.bincount(
            slot[op == int(MemOp.STORE)], minlength=rows
        )
        np.add.at(self.object_latency, slot, latency)
        self.source_counts += np.bincount(source, minlength=_N_SOURCE_CODES)
        self.op_counts += np.bincount(op, minlength=_N_OP_CODES)
        self.n += int(op.size)

    def matched_fraction(self) -> float:
        """Exact fraction of samples resolved to a registered object."""
        if not self.n:
            return 0.0
        return float((self.n - self.object_counts[-1]) / self.n)

    def digest(self) -> str:
        """Hex SHA-256 over every accumulator (and the sample count)."""
        h = _hash_arrays(
            self.object_counts,
            self.object_loads,
            self.object_stores,
            self.object_latency,
            self.source_counts,
            self.op_counts,
        )
        h.update(np.int64(self.n).tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# The point set and the density sketch.
# ---------------------------------------------------------------------------

_COLUMN_DTYPES = {
    "sigma": np.float64,
    "address": np.uint64,
    "op": np.int64,
    "source": np.int64,
    "latency": np.float64,
    "object_index": np.int64,
}


def _concat(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Column-wise concatenation; a single part is returned as is."""
    if len(parts) == 1:
        return dict(parts[0])
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


class AddressReservoir:
    """The point set of the scatter: every kept sample, or a
    deterministic reservoir of ``capacity`` of them.

    ``capacity=None`` keeps every sample in stream order; columns fed
    in one chunk are held as given (no copy when their dtypes already
    match), and no index is stored — point *i* is kept sample *i*.
    A finite capacity runs Efraimidis–Spirakis A-Res with
    unit weights and the randomness replaced by a splitmix64 hash of
    the sample's global kept index: sample *i* gets ``u_i = ((h_i >>
    11) + 1) · 2⁻⁵³ ∈ (0, 1]`` and key ``ln(u_i)``, and the reservoir
    holds the ``capacity`` samples with the largest keys — a uniform
    sample, faithful to point density.  The key depends only on the
    global index, so the surviving set is the global top-``capacity``
    however the stream was chunked.
    """

    def __init__(self, capacity: int | None = RESERVOIR_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self._parts: list[dict[str, np.ndarray]] = []
        self._held = 0

    def add(self, start_index: int, **columns: np.ndarray) -> None:
        """Offer a chunk of kept samples (global indices start at
        *start_index*); a bounded reservoir keeps the global
        top-``capacity`` by key."""
        n = int(np.asarray(columns["sigma"]).size)
        if not n:
            return
        part = {
            name: np.asarray(columns[name]).astype(dtype, copy=False)
            for name, dtype in _COLUMN_DTYPES.items()
        }
        self._parts.append(part)
        self._held += n
        if self.capacity is None:
            return
        part["kept_index"] = np.arange(start_index, start_index + n, dtype=np.int64)
        h = _mix64(part["kept_index"].astype(np.uint64))
        part["key"] = np.log(((h >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53)
        if self._held > self.capacity:
            # Largest key first; global index breaks (improbable) ties
            # so the selection is a pure function of the indices.  The
            # columns are gathered one at a time, so only one of them
            # is ever concatenated in full.
            order = np.lexsort(
                (
                    np.concatenate([p["kept_index"] for p in self._parts]),
                    -np.concatenate([p["key"] for p in self._parts]),
                )
            )[: self.capacity]
            self._parts = [
                {
                    name: np.concatenate([p[name] for p in self._parts])[order]
                    for name in part
                }
            ]
            self._held = self.capacity

    def result(self) -> dict:
        """The held points in stream order, plus their ``kept_index``
        (``None`` when every kept sample is held)."""
        if not self._parts:
            empty = {name: np.empty(0, dtype=dt) for name, dt in _COLUMN_DTYPES.items()}
            return {**empty, "kept_index": None}
        held = _concat(self._parts)
        if self.capacity is None:
            return {**held, "kept_index": None}
        del held["key"]
        order = np.argsort(held["kept_index"], kind="stable")
        return {name: col[order] for name, col in held.items()}


@dataclass
class DensitySketch:
    """Fixed (address-band × σ-bin) integer density of the scatter.

    ``counts[b, s]`` is the exact number of kept samples whose address
    falls in band *b* of ``[lo, hi]`` and whose σ falls in bin *s* of
    ``[0, 1)``.  Integer sums are associative, so the sketch is exactly
    chunk-invariant *and* exactly equal to binning every kept sample —
    the rendering trade-off is purely the fixed bin resolution.
    """

    lo: int
    hi: int
    counts: np.ndarray

    @classmethod
    def empty(
        cls,
        lo: int,
        hi: int,
        bands: int = SKETCH_BANDS,
        sigma_bins: int = SKETCH_SIGMA_BINS,
    ) -> "DensitySketch":
        if hi < lo:
            raise ValueError("empty address span")
        return cls(
            lo=int(lo),
            hi=int(hi),
            counts=np.zeros((bands, sigma_bins), dtype=np.int64),
        )

    @property
    def bands(self) -> int:
        return int(self.counts.shape[0])

    @property
    def sigma_bins(self) -> int:
        return int(self.counts.shape[1])

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def band_of(self, address: np.ndarray) -> np.ndarray:
        """Band index of every address."""
        address = np.asarray(address).astype(np.uint64, copy=False)
        span = np.uint64(self.hi - self.lo + 1)
        # addresses stay < 2^48 and bands ≤ 2^16, so the product fits
        # comfortably in uint64 — exact integer band index.
        band = ((address - np.uint64(self.lo)) * np.uint64(self.bands)) // span
        return np.minimum(band.astype(np.int64), self.bands - 1)

    def add(self, sigma: np.ndarray, address: np.ndarray) -> None:
        sigma = np.asarray(sigma, dtype=np.float64)
        if not sigma.size:
            return
        sbin = np.minimum(
            (sigma * self.sigma_bins).astype(np.int64), self.sigma_bins - 1
        )
        np.add.at(self.counts, (self.band_of(address), sbin), 1)

    def band_edges(self) -> np.ndarray:
        """The ``bands + 1`` address edges of the sketch rows."""
        span = self.hi - self.lo + 1
        return self.lo + np.arange(self.bands + 1, dtype=np.float64) * (
            span / self.bands
        )

    def band_density(self) -> np.ndarray:
        """Fraction of samples per address band (sums to 1 when any)."""
        total = self.counts.sum()
        if not total:
            return np.zeros(self.bands, dtype=np.float64)
        return self.counts.sum(axis=1) / total

    def digest(self) -> str:
        h = _hash_arrays(self.counts)
        h.update(np.int64(self.lo).tobytes())
        h.update(np.int64(self.hi).tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# The product and its builder.
# ---------------------------------------------------------------------------


@dataclass
class FoldedAddresses:
    """The folded address scatter, its exact accounting and annotations.

    Counts and fractions come from :attr:`accounting` and are exact on
    every fold path.  The point columns hold every kept sample for a
    resident fold and a reservoir subsample for streamed and live
    folds; point queries (``in_range``, ``stores_in_range``,
    ``object_samples``, ``sweep_of``) run over the points held.
    """

    accounting: AddressAccounting
    registry: DataObjectRegistry
    #: the streamed density sketch; ``None`` for resident folds (every
    #: point is held) and live folds (the address span is unknowable
    #: without a whole-trace prologue pass)
    sketch: DensitySketch | None
    #: point columns, in stream order
    sigma: np.ndarray
    address: np.ndarray
    op: np.ndarray
    source: np.ndarray
    latency: np.ndarray
    #: resolved object index (into ``registry.records``), -1 unmatched
    object_index: np.ndarray
    #: global kept index of each point; ``None`` when every kept
    #: sample is held (point *i* is kept sample *i*)
    kept_index: np.ndarray | None
    bands: list[AddressBand] = field(default_factory=list)

    @property
    def n(self) -> int:
        """Points held."""
        return int(self.sigma.size)

    @property
    def n_folded(self) -> int:
        """Kept samples folded (accounting side)."""
        return self.accounting.n

    @property
    def loads(self) -> np.ndarray:
        return self.op == int(MemOp.LOAD)

    @property
    def stores(self) -> np.ndarray:
        return self.op == int(MemOp.STORE)

    def matched_fraction(self) -> float:
        return self.accounting.matched_fraction()

    def annotate(self, label: str, lo: int, hi: int) -> None:
        self.bands.append(AddressBand(label, lo, hi))

    def with_fresh_bands(self) -> "FoldedAddresses":
        """A view sharing every array, with its own annotation list."""
        return replace(self, bands=list(self.bands))

    def in_range(self, lo: int, hi: int) -> np.ndarray:
        """Mask of points whose address falls in ``[lo, hi)``."""
        return (self.address >= lo) & (self.address < hi)

    def stores_in_range(self, lo: int, hi: int) -> int:
        """Number of sampled stores within an address range — the
        paper's 'no stores in the lower part' check."""
        return int((self.stores & self.in_range(lo, hi)).sum())

    def object_samples(self, name: str) -> np.ndarray:
        """Mask of points resolved to the object called *name*.

        Resolved through the registry's cached name→index map
        (O(1) after the first query) instead of scanning the records.
        """
        return self.object_index == self.registry.index_of(name)

    def sweep_of(self, mask: np.ndarray) -> tuple[float, float]:
        """Linear fit ``address ≈ a + b·σ`` over the masked points;
        returns (intercept, slope).  Positive slope = forward sweep."""
        if mask.sum() < 2:
            raise ValueError("need at least two samples to fit a sweep")
        slope, intercept = np.polyfit(
            self.sigma[mask], self.address[mask].astype(np.float64), 1
        )
        return float(intercept), float(slope)

    def digest(self) -> str:
        """Hex SHA-256 over points, accounting and sketch."""
        h = _hash_arrays(
            self.sigma,
            self.address,
            self.op,
            self.source,
            self.latency,
            self.object_index,
            self.kept_index
            if self.kept_index is not None
            else np.arange(self.n, dtype=np.int64),
        )
        h.update(self.accounting.digest().encode())
        h.update(
            self.sketch.digest().encode()
            if self.sketch is not None
            else b"no-sketch"
        )
        return h.hexdigest()


class AddressStream:
    """Chunkwise accumulator of the address direction.

    *addr_range* is the kept-sample address span the density sketch
    covers (``None``: no sketch); *capacity* bounds the point set
    (``None``: hold every kept sample).
    """

    def __init__(
        self,
        registry: DataObjectRegistry,
        addr_range: tuple[int, int] | None,
        *,
        capacity: int | None = RESERVOIR_CAPACITY,
    ) -> None:
        self.registry = registry
        self.accounting = AddressAccounting.empty(len(registry))
        self.points = AddressReservoir(capacity)
        self.sketch = (
            DensitySketch.empty(*addr_range) if addr_range is not None else None
        )
        self._kept = 0

    def add(
        self,
        sigma: np.ndarray,
        address: np.ndarray,
        op: np.ndarray,
        source: np.ndarray,
        latency: np.ndarray,
    ) -> None:
        """Fold one chunk of kept samples (stream order)."""
        address = np.asarray(address).astype(np.uint64, copy=False)
        op = np.asarray(op).astype(np.int64, copy=False)
        source = np.asarray(source).astype(np.int64, copy=False)
        latency = np.asarray(latency).astype(np.float64, copy=False)
        # One bulk resolve per chunk; the registry caches its interval
        # tables, so the per-chunk cost is the lookup alone.
        object_index = self.registry.resolve_bulk(address)
        self.accounting.add(op, source, latency, object_index)
        if self.sketch is not None:
            self.sketch.add(sigma, address)
        self.points.add(
            self._kept,
            sigma=sigma,
            address=address,
            op=op,
            source=source,
            latency=latency,
            object_index=object_index,
        )
        self._kept += int(np.asarray(sigma).size)

    def result(self) -> FoldedAddresses:
        return FoldedAddresses(
            accounting=self.accounting,
            registry=self.registry,
            sketch=self.sketch,
            **self.points.result(),
        )


def fold_addresses(
    folded: FoldedSamples, registry: DataObjectRegistry
) -> FoldedAddresses:
    """The resident address view: every kept sample, resolved.

    The whole kept table fed as one chunk to an unbounded
    :class:`AddressStream` — the address column is held as a view of
    the table.
    """
    table = folded.table
    stream = AddressStream(registry, None, capacity=None)
    stream.add(folded.sigma, table.address, table.op, table.source, table.latency)
    return stream.result()


# ---------------------------------------------------------------------------
# Fidelity measurement.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AddressFidelity:
    """Measured fidelity of a bounded address view against the
    resident view of the same trace."""

    #: exact streamed matched fraction (accounting side)
    matched_fraction_streamed: float
    matched_fraction_resident: float
    #: |streamed − resident| — zero because the accounting is exact
    matched_fraction_error: float
    #: max abs per-band density error of the *sketch* — identically
    #: zero by construction (integer binning of the same samples)
    sketch_band_error: float
    #: max abs per-band density error of the *reservoir* subsample —
    #: the real (measured) approximation cost of point rendering
    reservoir_band_error: float
    #: True iff the streamed accounting digest equals the resident's
    accounting_exact: bool
    reservoir_points: int
    resident_points: int


def _band_density(sketch: DensitySketch, address: np.ndarray) -> np.ndarray:
    """Fraction of *address* points per band of *sketch*."""
    if not address.size:
        return np.zeros(sketch.bands)
    return np.bincount(sketch.band_of(address), minlength=sketch.bands) / address.size


def measure_address_fidelity(
    streamed: FoldedAddresses, resident: FoldedAddresses
) -> AddressFidelity:
    """Measure a sketched address view's fidelity bounds against the
    resident view (every kept sample held)."""
    sketch = streamed.sketch
    if sketch is None:
        raise ValueError(
            "fidelity measurement needs the density sketch — live views "
            "(no whole-trace prologue) cannot be measured this way"
        )
    resident_density = _band_density(sketch, resident.address)
    mf_s = streamed.matched_fraction()
    mf_r = resident.matched_fraction()
    return AddressFidelity(
        matched_fraction_streamed=mf_s,
        matched_fraction_resident=mf_r,
        matched_fraction_error=abs(mf_s - mf_r),
        sketch_band_error=float(
            np.abs(sketch.band_density() - resident_density).max()
        ),
        reservoir_band_error=float(
            np.abs(_band_density(sketch, streamed.address) - resident_density).max()
        ),
        accounting_exact=(
            streamed.accounting.digest() == resident.accounting.digest()
        ),
        reservoir_points=streamed.n,
        resident_points=resident.n,
    )
