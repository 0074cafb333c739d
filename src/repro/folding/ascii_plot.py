"""Terminal rendering of the folded three-panel figure.

A dependency-free (no matplotlib) renderer that draws the paper's
Figure 1 as text: a phase strip (code direction), the address scatter
split into its lower/heap and upper/mmap blocks (memory direction, with
loads as ``·`` and stores as ``#`` — the paper's black points), and the
MIPS/miss-rate curves (performance direction).
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_address_panel", "render_counter_panel", "render_figure",
           "render_phase_strip"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


def render_phase_strip(phases, width: int = 100) -> str:
    """One-character-per-column strip of the phase labels."""
    strip = [" "] * width
    for p in phases:
        if len(p.label) != 1:
            continue  # sublabels drawn below
        lo = int(p.lo * width)
        hi = max(lo + 1, int(p.hi * width))
        for i in range(lo, min(hi, width)):
            strip[i] = p.label
    sub = [" "] * width
    for p in phases:
        if len(p.label) == 1:
            continue
        lo = int(p.lo * width)
        hi = max(lo + 1, int(p.hi * width))
        mid = (lo + hi) // 2
        for i, ch in enumerate(p.label):
            if mid + i < width:
                sub[mid + i] = ch
    return "".join(strip) + "\n" + "".join(sub)


def _scatter_block(sigma, address, is_store, lo, hi, width, height) -> list[str]:
    """One scatter block over address range [lo, hi)."""
    grid = np.zeros((height, width), dtype=np.int8)  # 0 empty, 1 load, 2 store
    sel = (address >= lo) & (address < hi)
    if sel.any():
        col = np.clip((sigma[sel] * width).astype(int), 0, width - 1)
        rel = (address[sel] - lo).astype(np.float64) / max(hi - lo, 1)
        # Row 0 is the TOP of the block (highest addresses).
        r = np.clip(((1.0 - rel) * height).astype(int), 0, height - 1)
        stores = is_store[sel]
        for c, rr, st in zip(col, r, stores):
            grid[rr, c] = max(grid[rr, c], 2 if st else 1)
    rows = []
    for rr in range(height):
        chars = np.where(grid[rr] == 2, "#", np.where(grid[rr] == 1, "·", " "))
        rows.append("".join(chars))
    return rows


def render_address_panel(
    report, width: int = 100, height: int = 16
) -> str:
    """The folded address scatter, split at the heap/mmap gap.

    The largest address gap between occupied bands splits the panel
    into a lower block (the matrix on the heap) and an upper block (the
    vectors in the mmap region), like the paper's two tick-label sets.

    *report* is anything carrying an address view — a resident
    :class:`FoldedReport`, a streamed
    :class:`~repro.folding.stream_views.StreamedReport` (the panel
    then renders the reservoir points), or a bare
    :class:`~repro.folding.address.FoldedAddresses` itself.
    """
    a = getattr(report, "addresses", report)
    if a is None:
        return "(no address direction)"
    if a.n == 0:
        return "(no samples)"
    addrs = np.sort(np.unique(a.address))
    if addrs.size > 1:
        gaps = np.diff(addrs)
        split_at = int(np.argmax(gaps))
        split_addr = int(addrs[split_at]) + 1
        has_split = gaps[split_at] > 16 * (int(addrs[-1]) - int(addrs[0])) // 100
    else:
        has_split = False
    stores = a.stores
    out = []
    if has_split:
        upper_lo = int(addrs[split_at + 1])
        upper_hi = int(addrs[-1]) + 1
        lower_lo = int(addrs[0])
        lower_hi = split_addr
        out.append(f"upper block [{upper_lo:#x}, {upper_hi:#x})  (mmap: vectors)")
        out.extend(_scatter_block(a.sigma, a.address, stores,
                                  upper_lo, upper_hi, width, height // 2))
        out.append(f"lower block [{lower_lo:#x}, {lower_hi:#x})  (heap: matrix)")
        out.extend(_scatter_block(a.sigma, a.address, stores,
                                  lower_lo, lower_hi, width, height - height // 2))
    else:
        lo, hi = int(addrs[0]), int(addrs[-1]) + 1
        out.append(f"addresses [{lo:#x}, {hi:#x})")
        out.extend(_scatter_block(a.sigma, a.address, stores, lo, hi, width, height))
    out.append("· load   # store")
    return "\n".join(out)


def _curve_row(values: np.ndarray, width: int, vmax: float) -> str:
    """One row of block characters for a curve resampled to *width*."""
    idx = np.linspace(0, values.size - 1, width).astype(int)
    v = values[idx]
    levels = np.clip((v / max(vmax, 1e-12) * (len(_BLOCKS) - 1)).astype(int),
                     0, len(_BLOCKS) - 1)
    return "".join(_BLOCKS[k] for k in levels)


def render_counter_panel(report, width: int = 100) -> str:
    """MIPS plus the per-instruction miss/branch rates as sparklines.

    Accepts anything with fitted ``counters`` — a resident
    :class:`FoldedReport` or a streamed report/fold.
    """
    c = report.counters
    mips = c.mips()
    rows = [
        f"MIPS (max {mips.max():7,.0f}) {_curve_row(mips, width, mips.max())}"
    ]
    for name, label in (
        ("branches", "branches/i"),
        ("l1d_misses", "L1D miss/i"),
        ("l2_misses", "L2 miss/i "),
        ("l3_misses", "L3 miss/i "),
    ):
        rate = c.per_instruction(name)
        rows.append(
            f"{label} (max {rate.max():.4f}) {_curve_row(rate, width, rate.max())}"
        )
    return "\n".join(rows)


def render_figure(report, phases=None, width: int = 100) -> str:
    """The full three-panel text figure (resident or streamed)."""
    parts = []
    if phases is not None:
        parts.append("— code (phases) " + "—" * max(0, width - 16))
        parts.append(render_phase_strip(phases, width))
    parts.append("— addresses referenced " + "—" * max(0, width - 23))
    parts.append(render_address_panel(report, width))
    parts.append("— counters / MIPS " + "—" * max(0, width - 18))
    parts.append(render_counter_panel(report, width))
    axis = "0" + " " * (width // 2 - 2) + "σ" + " " * (width - width // 2 - 2) + "1"
    parts.append(axis)
    return "\n".join(parts)
