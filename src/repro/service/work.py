"""Cold-fold jobs executed in the service's bounded worker pool.

One module-level entry point, :func:`fold_payload_job`, picklable into
the server's worker pool: load the container (lazily — columns
arrive as memory maps inside the worker), fold it through the exact
library paths the batch CLI uses, and return the JSON-able payload.
The worker shares the service's on-disk :class:`FoldCache` directory,
so a fold computed for one request warms every later process that
asks — including a restarted server.
"""

from __future__ import annotations

from repro.folding.cache import FoldCache
from repro.folding.report import fold_trace
from repro.service.payloads import (
    address_payload,
    counters_payload,
    lines_payload,
)

__all__ = ["FOLD_DIRECTIONS", "fold_payload_job"]

FOLD_DIRECTIONS = ("counters", "address", "lines")


def fold_payload_job(
    path: str, direction: str, params: dict, cache_dir: str | None
) -> dict:
    """Fold the container at *path* and build the *direction* payload.

    Runs in a pool worker.  ``params`` carries ``grid_points``,
    ``bandwidth`` and optionally ``stream`` (counters only — fold in
    O(chunk) memory off the file), ``rep_budget``/``rep_seed``
    (representative-instance extrapolation) and ``max_points``
    (scatter/track row bound for address/lines payloads).
    """
    from repro.extrae.trace import Trace

    cache = FoldCache(cache_dir) if cache_dir else None
    grid = int(params.get("grid_points", 201))
    bandwidth = float(params.get("bandwidth", 0.015))
    max_points = int(params.get("max_points", 0))
    rep_budget = params.get("rep_budget")

    if direction == "counters" and rep_budget:
        with Trace.load(path) as trace:
            fold = fold_trace(
                trace,
                grid_points=grid,
                bandwidth=bandwidth,
                cache=cache,
                rep_budget=int(rep_budget),
                rep_seed=int(params.get("rep_seed", 0)),
            )
            return counters_payload(fold)
    if direction == "counters" and params.get("stream"):
        from repro.folding.stream import stream_fold_trace

        fold = stream_fold_trace(
            path, grid_points=grid, bandwidth=bandwidth, cache=cache
        )
        return counters_payload(fold)

    with Trace.load(path) as trace:
        report = fold_trace(
            trace, grid_points=grid, bandwidth=bandwidth, cache=cache
        )
        if direction == "counters":
            return counters_payload(report)
        if direction == "address":
            return address_payload(report, max_points=max_points)
        if direction == "lines":
            return lines_payload(report, max_points=max_points)
    raise ValueError(f"unknown fold direction {direction!r}")
