"""Isotonic regression (pool-adjacent-violators) for the Folding fits.

The Folding mechanism reconstructs the *cumulative* evolution of each
hardware counter over a normalized iteration from scattered samples.
Cumulative counters are monotone by construction, so after kernel
smoothing the curve is projected onto the monotone cone with PAVA — the
same role Kriging-plus-monotonicity plays in the original BSC tool.

Two PAVA implementations live here:

* :func:`pava` — the standard O(n) stack-based weighted PAVA, kept as
  the per-element reference;
* :func:`pava_batch` — a block-merge formulation working on whole
  boundary arrays per pass (decreasing runs pool in one vectorized
  step), applied row-wise to a (counters × grid) matrix.  Both solve
  the same unique projection; they agree to floating-point noise
  (``rtol=1e-10`` in the tests).

The batched Folding fit (:class:`BinnedDesign`, :func:`fit_design`)
factors the Gaussian-kernel regression so the (grid × samples) weight
matrix is built once and applied to *all* counters as a single matmul,
instead of one full kernel pass per counter.  Every fold builds its
design through one :class:`DesignAccumulator`, whether it sees the
samples whole or chunk by chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinnedDesign",
    "DesignAccumulator",
    "fit_design",
    "isotonic_fit",
    "make_design",
    "pava",
    "pava_batch",
]


def pava(y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted isotonic (non-decreasing) regression of *y*.

    Solves ``min Σ w_i (f_i - y_i)^2  s.t.  f_0 <= f_1 <= ... <= f_{n-1}``
    with the pool-adjacent-violators algorithm.

    Parameters
    ----------
    y:
        Observations, 1-D.
    weights:
        Positive weights, same shape as *y* (default: all ones).

    Returns
    -------
    numpy.ndarray
        The non-decreasing least-squares fit, same shape as *y*.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"pava expects a 1-D array, got shape {y.shape}")
    n = y.size
    if n == 0:
        return y.copy()
    if weights is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != y.shape:
            raise ValueError("weights must match y in shape")
        if (w <= 0).any():
            raise ValueError("weights must be strictly positive")

    # Stack of blocks: (mean, weight, count). Adjacent violating blocks
    # are merged until means are non-decreasing.
    means = np.empty(n, dtype=np.float64)
    wsums = np.empty(n, dtype=np.float64)
    counts = np.empty(n, dtype=np.int64)
    top = 0
    for i in range(n):
        means[top] = y[i]
        wsums[top] = w[i]
        counts[top] = 1
        top += 1
        while top > 1 and means[top - 2] > means[top - 1]:
            wtot = wsums[top - 2] + wsums[top - 1]
            means[top - 2] = (
                means[top - 2] * wsums[top - 2] + means[top - 1] * wsums[top - 1]
            ) / wtot
            wsums[top - 2] = wtot
            counts[top - 2] += counts[top - 1]
            top -= 1
    return np.repeat(means[:top], counts[:top])


def _pava_block_row(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Block-merge PAVA on one row.

    Blocks are tracked as boundary indices into prefix sums; each pass
    drops every boundary between a violating pair at once, so maximal
    decreasing runs pool in a single vectorized step.  Adjacent
    violators always share a level set of the optimum, so simultaneous
    pooling converges to the same unique projection the stack
    algorithm finds.
    """
    n = y.size
    cw = np.concatenate(([0.0], np.cumsum(w)))
    cwy = np.concatenate(([0.0], np.cumsum(w * y)))
    bounds = np.arange(n + 1)
    while True:
        bw = cw[bounds[1:]] - cw[bounds[:-1]]
        means = (cwy[bounds[1:]] - cwy[bounds[:-1]]) / bw
        violated = means[:-1] > means[1:]
        if not violated.any():
            break
        # Boundary i+1 separates blocks i and i+1: keep the outer
        # edges, drop every interior boundary that sits on a violation.
        keep = np.concatenate(([True], ~violated, [True]))
        bounds = bounds[keep]
    return np.repeat(means, np.diff(bounds))


def pava_batch(Y: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Row-wise weighted isotonic regression of a ``(k, n)`` matrix.

    Each row is projected onto the non-decreasing cone independently —
    the batched Folding fit runs every counter's grid curve through
    this in one call.  Rows use the block-merge formulation of
    :func:`_pava_block_row`; a 1-D input is treated as a single row.

    Parameters
    ----------
    Y:
        Observations, ``(k, n)`` (or ``(n,)`` for a single row).
    weights:
        Positive weights: ``(n,)`` shared across rows, or ``(k, n)``
        per-row (default: all ones).

    Returns
    -------
    numpy.ndarray
        The row-wise non-decreasing fits, same shape as *Y*.
    """
    Y = np.asarray(Y, dtype=np.float64)
    squeeze = Y.ndim == 1
    if squeeze:
        Y = Y[None, :]
    if Y.ndim != 2:
        raise ValueError(f"pava_batch expects a 1-D or 2-D array, got shape {Y.shape}")
    k, n = Y.shape
    if weights is None:
        W = np.ones_like(Y)
    else:
        W = np.asarray(weights, dtype=np.float64)
        if W.ndim == 1:
            if W.shape[0] != n:
                raise ValueError("shared weights must match the row length")
            W = np.broadcast_to(W, Y.shape)
        elif W.shape != Y.shape:
            raise ValueError("weights must match Y in shape")
        if (W <= 0).any():
            raise ValueError("weights must be strictly positive")
    if n == 0:
        return Y[0].copy() if squeeze else Y.copy()
    out = np.empty_like(Y)
    for i in range(k):
        out[i] = _pava_block_row(Y[i], W[i])
    return out[0] if squeeze else out


# ---------------------------------------------------------------------------
# Batched kernel regression: one weight matrix, all counters.
# ---------------------------------------------------------------------------

#: above this many samples the design pre-aggregates onto a fixed fine
#: binning (the Nadaraya-Watson estimate only needs local Σw·y and Σw,
#: which binning preserves up to the bin width)
BIN_THRESHOLD = 4096
#: fixed bin count of the batched design — bandwidth-independent so one
#: binned design serves a whole bandwidth sweep; 1/4096 of the σ span
#: is at most bandwidth/8 for every bandwidth the ablations use
#: (≥ 0.002), the same bins-per-bandwidth ratio the legacy per-counter
#: fit used at its finest
DESIGN_BINS = 4096


@dataclass(frozen=True)
class BinnedDesign:
    """The trace-dependent half of the batched Folding fit.

    Captures everything the Gaussian-kernel regression needs from the
    samples — positions, weights, and one value row per target — after
    optional pre-aggregation onto a fine fixed binning.  The design
    depends only on the samples, *not* on the evaluation grid or the
    bandwidth, so a fold plan builds it once and sweeps parameters
    against it.
    """

    #: sample (or occupied-bin-center) positions, ``(m,)``
    x: np.ndarray
    #: positive weights, ``(m,)``
    w: np.ndarray
    #: per-target values, ``(k, m)`` — one row per counter
    Y: np.ndarray

    @property
    def n_targets(self) -> int:
        return int(self.Y.shape[0])

    @property
    def n_points(self) -> int:
        return int(self.x.size)


class DesignAccumulator:
    """The additive half of a :class:`BinnedDesign`, fed chunk by chunk.

    Binned (the default): per-bin Σw and per-target Σw·y over
    ``DESIGN_BINS`` fixed bins spanning *span*.  The edges depend only
    on the span, so a fold that learns the span up front (or fixes it,
    as a live fold does at [0, 1]) bins every chunk alike.  Raw
    (``binned=False``, the small-sample regime where the fit uses every
    point): the points themselves.

    Every Σw·y is accumulated with ``np.add.at``, not per-chunk
    ``bincount`` partials: float addition is not associative, and
    ``np.add.at`` adds element by element in array order, so a sample
    set fed in any number of time-ordered chunks performs the same
    per-bin additions as the set fed whole — chunking never changes a
    bit.  Unit weights are counted with ``bincount``: integer-valued
    float sums are exact in any order.
    """

    def __init__(
        self,
        n_targets: int,
        span: tuple[float, float] = (0.0, 1.0),
        binned: bool = True,
    ) -> None:
        self.n_targets = n_targets
        self.binned = binned
        #: points fed so far
        self.n = 0
        if binned:
            lo, hi = span
            self._edges = np.linspace(lo, lo + max(hi - lo, 1e-12), DESIGN_BINS + 1)
            self._w = np.zeros(DESIGN_BINS, dtype=np.float64)
            self._wy = np.zeros((n_targets, DESIGN_BINS), dtype=np.float64)
        else:
            self._parts: list[tuple] = []

    def add(self, x: np.ndarray, Y, weights: np.ndarray | None = None) -> None:
        """Feed points *x* with one value row per target in *Y*."""
        if x.size == 0:
            return
        self.n += int(x.size)
        if not self.binned:
            self._parts.append((x, weights, list(Y)))
            return
        which = np.clip(
            np.searchsorted(self._edges, x, side="right") - 1, 0, DESIGN_BINS - 1
        )
        for acc, y in zip(self._wy, Y):
            np.add.at(acc, which, y if weights is None else weights * y)
        if weights is None:
            self._w += np.bincount(which, minlength=DESIGN_BINS)
        else:
            np.add.at(self._w, which, weights)

    def design(self) -> BinnedDesign:
        """The design of every point fed so far."""
        if self.n == 0:
            raise ValueError("cannot fold counters without samples")
        if self.binned:
            occupied = self._w > 0
            centers = 0.5 * (self._edges[:-1] + self._edges[1:])
            return BinnedDesign(
                x=centers[occupied],
                w=self._w[occupied],
                Y=self._wy[:, occupied] / self._w[occupied],
            )
        x = np.concatenate([p[0] for p in self._parts])
        w = np.concatenate(
            [np.ones_like(p[0]) if p[1] is None else p[1] for p in self._parts]
        )
        Y = np.stack(
            [
                np.concatenate([p[2][i] for p in self._parts])
                for i in range(self.n_targets)
            ]
        )
        return BinnedDesign(x=x, w=w, Y=Y)


def make_design(
    x: np.ndarray,
    Y,
    weights: np.ndarray | None = None,
) -> BinnedDesign:
    """Build the shared kernel-regression design for *k* targets.

    A :class:`DesignAccumulator` fed the whole sample set as one chunk:
    binned over the samples' own span above ``BIN_THRESHOLD`` points,
    raw below.

    Parameters
    ----------
    x:
        Sample coordinates, ``(n,)``.
    Y:
        Target values, ``(k, n)`` or a sequence of *k* length-``n``
        rows — e.g. one row per counter's cumulative fractions.
    weights:
        Optional positive per-sample weights shared by all targets.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = [np.asarray(y, dtype=np.float64) for y in Y]
    if x.ndim != 1 or not rows or any(y.shape != x.shape for y in rows):
        raise ValueError(
            f"x must be 1-D and Y (k, {x.size}); got {x.shape} and "
            f"{[y.shape for y in rows]}"
        )
    if x.size == 0:
        raise ValueError("make_design needs at least one sample")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != x.shape:
            raise ValueError("weights must match x in shape")
        if (weights <= 0).any():
            raise ValueError("weights must be strictly positive")
    acc = DesignAccumulator(
        len(rows),
        span=(float(x.min()), float(x.max())),
        binned=x.size > BIN_THRESHOLD,
    )
    acc.add(x, rows, weights)
    return acc.design()


#: Gaussian support cutoff for the banded fast path, in bandwidths.
#: exp(-8.5²/2) ≈ 2e-16 — at double precision the dropped terms are
#: below the round-off of the kept sums whenever a grid point has any
#: in-band support, so the banded and dense paths agree to ~1e-10
#: relative on realistic (dense-coverage) folded data.
KERNEL_CUTOFF_SIGMAS = 8.5


def fit_design(
    design: BinnedDesign,
    x_eval: np.ndarray,
    bandwidth: float,
) -> np.ndarray:
    """Evaluate the smooth monotone fit of every design target at once.

    The Gaussian weight matrix over (grid × design points) is computed
    once; all targets share it through a single matmul, and the PAVA
    projection runs row-wise through :func:`pava_batch`.

    When both the design points and the grid are sorted (always true
    for binned designs and the folding grid), the kernel is evaluated
    banded: the grid is walked in chunks spanning about one cutoff
    radius and each chunk only sees design points within
    ``KERNEL_CUTOFF_SIGMAS`` bandwidths — at small bandwidths this is
    the difference between O(grid · m) and O(grid · band) exponentials.
    A chunk with no in-band support falls back to the full range, so
    sparsely supported grid points keep the dense estimate.

    Returns
    -------
    numpy.ndarray
        Monotone fitted values, ``(k, len(x_eval))``.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    xg = np.asarray(x_eval, dtype=np.float64)
    x, w, Y = design.x, design.w, design.Y
    k = Y.shape[0]
    m = x.size
    fits = np.empty((k, xg.size), dtype=np.float64)
    grid_weight = np.empty(xg.size, dtype=np.float64)
    inv2s2 = 1.0 / (2.0 * bandwidth * bandwidth)
    wY = w[None, :] * Y  # (k, m)
    cutoff = KERNEL_CUTOFF_SIGMAS * bandwidth
    banded = (
        m > 512
        and xg.size > 1
        and 2.0 * cutoff < float(x[-1] - x[0])
        and bool(np.all(np.diff(x) >= 0.0))
        and bool(np.all(np.diff(xg) >= 0.0))
    )
    # Memory bound either way: peak is chunk · window doubles.
    mem_chunk = max(1, int(4e6 // max(1, m)))
    step = max(cutoff, float(xg[-1] - xg[0]) / 32.0) if banded else 0.0
    lo = 0
    while lo < xg.size:
        if banded:
            hi = int(np.searchsorted(xg, xg[lo] + step, side="right"))
            hi = min(max(hi, lo + 1), lo + mem_chunk, xg.size)
            j0 = int(np.searchsorted(x, xg[lo] - cutoff))
            j1 = int(np.searchsorted(x, xg[hi - 1] + cutoff, side="right"))
            if j0 >= j1:
                j0, j1 = 0, m
        else:
            hi = min(lo + mem_chunk, xg.size)
            j0, j1 = 0, m
        d = xg[lo:hi, None] - x[None, j0:j1]
        K = np.exp(-(d * d) * inv2s2)  # (chunk, window)
        ksum = K @ w[j0:j1]
        grid_weight[lo:hi] = ksum
        numer = K @ wY[:, j0:j1].T  # (chunk, k)
        with np.errstate(invalid="ignore", divide="ignore"):
            fits[:, lo:hi] = np.where(
                ksum[None, :] > 0, numer.T / ksum[None, :], 0.0
            )
        lo = hi
    # Weight grid points by the local kernel mass so sparsely supported
    # regions do not drag the PAVA solution.
    gw = np.maximum(grid_weight, 1e-12)
    return pava_batch(fits, gw)


def isotonic_fit(
    x: np.ndarray,
    y: np.ndarray,
    x_eval: np.ndarray,
    bandwidth: float = 0.02,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Smooth, monotone (non-decreasing) fit of scattered ``(x, y)`` data.

    Two stages, mirroring the Folding counter model:

    1. Nadaraya–Watson Gaussian-kernel regression of *y* onto the
       evaluation grid *x_eval* with the given *bandwidth* (in x units).
    2. PAVA projection onto the non-decreasing cone.

    Grid points with no sample within ``4 * bandwidth`` get the kernel
    estimate computed anyway (the Gaussian never truly vanishes), so the
    result is always finite when at least one sample is present.

    Parameters
    ----------
    x, y:
        Sample coordinates; typically x is normalized time in [0, 1] and
        y a cumulative counter fraction.
    x_eval:
        Sorted grid to evaluate the fit on.
    bandwidth:
        Gaussian kernel sigma, in units of x.
    weights:
        Optional positive per-sample weights.

    Returns
    -------
    numpy.ndarray
        Monotone fitted values on *x_eval*.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xg = np.asarray(x_eval, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if x.size == 0:
        raise ValueError("isotonic_fit needs at least one sample")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if weights is None:
        w = np.ones_like(x)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != x.shape:
            raise ValueError("weights must match x in shape")

    # For large sample sets, pre-aggregate onto a fine binning first:
    # the Nadaraya-Watson estimate only needs the local weighted sums
    # Σ w·y and Σ w, which binning preserves up to the bin width.  The
    # bin width is kept well below the kernel bandwidth so the change
    # to the estimate is negligible while the cost drops from
    # O(grid · samples) to O(grid · bins).
    if x.size > 4096:
        span_lo = min(float(x.min()), float(xg.min()))
        span_hi = max(float(x.max()), float(xg.max()))
        span = max(span_hi - span_lo, 1e-12)
        nbins = int(min(max(8 * span / bandwidth, 256), 20_000))
        edges = np.linspace(span_lo, span_hi, nbins + 1)
        which = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, nbins - 1)
        wsum = np.bincount(which, weights=w, minlength=nbins)
        wysum = np.bincount(which, weights=w * y, minlength=nbins)
        occupied = wsum > 0
        centers = 0.5 * (edges[:-1] + edges[1:])
        x = centers[occupied]
        w = wsum[occupied]
        y = wysum[occupied] / wsum[occupied]

    # Kernel regression, chunked over the grid to bound peak memory at
    # len(chunk) * len(x) doubles.
    fit = np.empty(xg.shape, dtype=np.float64)
    grid_weight = np.empty(xg.shape, dtype=np.float64)
    chunk = max(1, int(4e6 // max(1, x.size)))
    inv2s2 = 1.0 / (2.0 * bandwidth * bandwidth)
    for lo in range(0, xg.size, chunk):
        hi = min(lo + chunk, xg.size)
        d = xg[lo:hi, None] - x[None, :]
        k = np.exp(-(d * d) * inv2s2) * w[None, :]
        ksum = k.sum(axis=1)
        grid_weight[lo:hi] = ksum
        with np.errstate(invalid="ignore", divide="ignore"):
            fit[lo:hi] = np.where(ksum > 0, (k * y[None, :]).sum(axis=1) / ksum, 0.0)

    # Weight grid points by the local kernel mass so sparsely supported
    # regions do not drag the PAVA solution.
    gw = np.maximum(grid_weight, 1e-12)
    return pava(fit, gw)
