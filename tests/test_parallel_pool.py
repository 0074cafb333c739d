"""The one pool map behind every pooled path, and its failure policy.

``RankSet``, ``fold_sweep``, ``seed_sweep`` and ``fold_ranks`` share
:func:`repro.parallel.pool.pool_map`.  A worker that dies on one item
costs only an in-process rerun of what it took down — the result equals
the serial run digest for digest and the reason is reported — while an
exception raised by the task itself propagates untouched.
"""

import logging
import os
from concurrent.futures.process import _RemoteTraceback

import pytest

from repro.analysis.ranks import fold_ranks
from repro.extrae.tracer import TracerConfig
from repro.folding.model import fold_digest
from repro.parallel import RankSet, fold_sweep, seed_sweep
from repro.parallel.ranks import RankResult
from repro.pipeline import SessionConfig, run_workload
from repro.workloads.stream import StreamConfig, StreamWorkload

CONFIG = SessionConfig(
    seed=6, tracer=TracerConfig(load_period=256, store_period=256)
)


def _stream_workload():
    return StreamWorkload(StreamConfig(n=1 << 12, iterations=3, blocks=2))


def _rank_factory(rank, n_ranks):
    return _stream_workload()


def _revive(parent_pid, value):
    """Unpickle *value* in the process that pickled it; anywhere else
    (a pool worker) die hard, as an OOM-killed worker would."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return value


class _DieInt(int):
    """An int that kills the pool worker it is shipped to."""

    def __reduce__(self):
        return _revive, (os.getpid(), int(self))


class _DieRankResult(RankResult):
    """A spilled rank result that kills the pool worker it is shipped to."""

    def __reduce__(self):
        return _revive, (os.getpid(), RankResult(self.summary))


class _DieOnRank:
    """Rank factory whose worker dies hard on one rank (cf. the
    all-ranks ``_DieInWorker`` of ``test_parallel_spill``)."""

    def __init__(self, rank):
        self.rank = rank
        self.parent_pid = os.getpid()

    def __call__(self, rank, n_ranks):
        if rank == self.rank and os.getpid() != self.parent_pid:
            os._exit(1)
        return _rank_factory(rank, n_ranks)


@pytest.fixture(scope="module")
def trace():
    return run_workload(_stream_workload(), CONFIG)


@pytest.fixture(scope="module")
def spilled(tmp_path_factory):
    spill = tmp_path_factory.mktemp("spill")
    return RankSet(3, CONFIG, max_workers=2).run(_rank_factory, spill_dir=spill)


def _rank_set(_trace, _spilled, workers, die):
    rank_set = RankSet(3, CONFIG, max_workers=workers)
    results = rank_set.run(_DieOnRank(1) if die else _rank_factory)
    rank_set.cleanup_spill()
    return [r.summary.digest for r in results]


def _fold_sweep(trace, _spilled, workers, die):
    grids = (51, _DieInt(101) if die else 101)
    results = fold_sweep(
        trace, bandwidths=(0.01, 0.03), grid_points=grids, max_workers=workers
    )
    return [(r.point, fold_digest(r.report)) for r in results]


def _seed_sweep(_trace, _spilled, workers, die):
    seeds = (1, _DieInt(2) if die else 2, 3)
    results = seed_sweep(
        _stream_workload, seeds, CONFIG, grid_points=51, max_workers=workers
    )
    return [(r.seed, fold_digest(r.report)) for r in results]


def _fold_ranks(_trace, spilled, workers, die):
    results = list(spilled)
    if die:
        results[1] = _DieRankResult(results[1].summary)
    folds = fold_ranks(results, grid_points=51, max_workers=workers)
    return [(f.rank, f.digest, f.counters.digest()) for f in folds]


@pytest.mark.parametrize(
    "run", [_rank_set, _fold_sweep, _seed_sweep, _fold_ranks],
    ids=["RankSet.run", "fold_sweep", "seed_sweep", "fold_ranks"],
)
def test_dead_worker_reruns_item_in_process(run, trace, spilled, caplog):
    serial = run(trace, spilled, 1, False)
    with caplog.at_level(logging.INFO, logger="repro.parallel"):
        pooled = run(trace, spilled, 2, True)
    assert pooled == serial
    assert any("died" in r.getMessage() for r in caplog.records)


def test_task_oserror_propagates_without_serial_redo(tmp_path, caplog):
    results = RankSet(2, CONFIG, max_workers=2).run(
        _rank_factory, spill_dir=tmp_path
    )
    os.remove(results[1].summary.path)
    with caplog.at_level(logging.INFO, logger="repro.parallel"):
        with pytest.raises(FileNotFoundError) as info:
            fold_ranks(results, grid_points=51, max_workers=2)
    # Raised in the worker and re-raised as is: no in-process redo.
    assert isinstance(info.value.__cause__, _RemoteTraceback)
    assert not caplog.records

