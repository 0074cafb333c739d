"""Shared timing helper for the perf benchmarks.

Usage::

    seconds, result = best_of(3, lambda: fold_trace(trace))
"""

from __future__ import annotations

import gc
import time

__all__ = ["best_of"]


def best_of(repeats: int, fn):
    """The best wall time of *repeats* calls of *fn*, and the last
    call's result.

    One garbage collection runs before the first call, so garbage left
    by earlier work is not billed to this measurement.  Collecting
    before every call would instead bill the freshly emptied allocator
    arenas to microsecond-scale calls such as fold-cache memo hits.
    """
    gc.collect()
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result
