"""One process-pool map behind every pooled path.

:class:`~repro.parallel.ranks.RankSet`,
:func:`~repro.parallel.sweeps.fold_sweep`,
:func:`~repro.parallel.sweeps.seed_sweep` and
:func:`~repro.analysis.ranks.fold_ranks` all map one function over a
list of small items (rank numbers, sweep points, seeds, spilled ranks)
against one large shared input (a workload factory, a trace, fold
parameters).  :func:`pool_map` is that map: it pickles ``(fn, shared)``
once — the picklability probe *is* the payload — and hands the bytes to
every worker through the pool initializer, so only items and results
cross the pipe per task.

The failure policy is the same for every caller:

* the payload cannot be pickled, or the pool cannot start (a sandbox
  that forbids spawning processes) — every item runs serially
  in-process;
* a worker dies (``BrokenProcessPool``: OOM kill, crash) — only the
  items it took down rerun in-process; finished results are kept;
* ``fn`` itself raises — the exception propagates; nothing is redone.

Pooled, serial and rerun items all call the same ``fn(shared, item)``,
so results are bit-identical whichever path ran them.  Each fallback is
reported to the caller's ``on_fallback(reason)``.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Iterator

__all__ = ["pool_map", "worker_count"]

# (fn, shared), unpickled once per worker process by the initializer.
_WORKER_TASK: tuple[Callable[[Any, Any], Any], Any] | None = None


def _init_worker(payload: bytes) -> None:
    global _WORKER_TASK
    _WORKER_TASK = pickle.loads(payload)


def _run_item(item):
    fn, shared = _WORKER_TASK
    return fn(shared, item)


def worker_count(max_workers: int | None, n_items: int) -> int:
    """Workers a map over *n_items* uses.

    ``max_workers=None`` picks the core count; either way the count is
    capped at *n_items* (and is at least one).  One worker means the
    serial in-process path.
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be positive, got {max_workers}")
    return max(1, min(max_workers or os.cpu_count() or 1, n_items))


def pool_map(
    fn: Callable[[Any, Any], Any],
    shared: Any,
    items: Iterable,
    max_workers: int | None,
    on_fallback: Callable[[str], None],
    *,
    ordered: bool = True,
) -> Iterator:
    """Yield ``fn(shared, item)`` for every item.

    Results come in item order (one that finishes early is held until
    its turn), or in completion order with ``ordered=False``.  *fn* must
    be a top-level function for the pool path.  ``max_workers`` is
    validated here, eagerly, before the first result is asked for.
    """
    items = list(items)
    workers = worker_count(max_workers, len(items))
    return _map(fn, shared, items, workers, on_fallback, ordered)


def _map(fn, shared, items, workers, on_fallback, ordered):
    started = None
    if workers > 1:
        started = _start(fn, shared, items, workers, on_fallback)
    if started is None:
        for item in items:
            yield fn(shared, item)
        return
    pool, futures = started
    held: dict[int, Any] = {}
    next_index = 0
    try:
        for future in as_completed(futures):
            index = futures[future]
            try:
                result = future.result()
            except BrokenProcessPool:
                on_fallback(
                    f"pool worker died running item {index}; retried in-process"
                )
                result = fn(shared, items[index])
            if not ordered:
                yield result
                continue
            held[index] = result
            while next_index in held:
                yield held.pop(next_index)
                next_index += 1
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _start(fn, shared, items, workers, on_fallback):
    """Pickle the payload, spawn the pool and submit every item.

    Returns ``(pool, {future: index})``, or ``None`` after reporting why
    the pool cannot be used.  It runs before the first result is
    yielded, so a serial redo of every item never duplicates a result.
    """
    try:
        payload = pickle.dumps((fn, shared))
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        # lambdas, local functions and closures; locks and open files
        on_fallback(f"payload is not picklable ({type(exc).__name__}: {exc})")
        return None
    pool = None
    try:
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(payload,)
        )
        return pool, {
            pool.submit(_run_item, item): i for i, item in enumerate(items)
        }
    except (OSError, RuntimeError) as exc:  # no fork, no thread, broken
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        on_fallback(f"process pool unavailable ({type(exc).__name__}: {exc})")
        return None
