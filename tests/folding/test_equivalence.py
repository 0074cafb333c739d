"""One fold definition: every driver of the fold kernel agrees.

The resident, planned, streamed and extrapolated folds all run the same
kernel (boundary scan, projection, design accumulator), so their
performance directions must be bit-identical.
:func:`~repro.folding.model.fold_digest` — curves, kept-sample count,
instance intervals, per-instance totals and degenerate flags — is the
contract, checked here on a STREAM and an HPCG trace.  The live fold
cannot know its σ span up front; it must equal the fixed-span
accumulator fed the whole trace.
"""

import pytest

from repro.extrae.tracer import TracerConfig
from repro.folding.detect import instances_from_iterations
from repro.folding.extrapolate import extrapolated_fold
from repro.folding.fold import build_prologue, project
from repro.folding.model import PerformanceFold, fit_counter_curves, fold_digest
from repro.folding.plan import FoldPlan
from repro.folding.report import fold_trace
from repro.folding.reps import select_representatives
from repro.folding.stream import LiveFold, stream_fold_trace
from repro.pipeline import SessionConfig, run_workload
from repro.simproc.machine import SAMPLE_COUNTERS
from repro.util.pava import DesignAccumulator
from repro.workloads.stream import StreamConfig, StreamWorkload

NAMES = ("time_ns", *SAMPLE_COUNTERS)
THREE = ("counters", "address", "lines")


def _streamed(rows, directions):
    def fold(trace):
        chunk_rows = rows or trace.n_samples  # None: all rows in one chunk
        return stream_fold_trace(trace, chunk_rows=chunk_rows, directions=directions)

    return fold


def _exhaustive(trace):
    reps = select_representatives(
        trace, budget=fold_trace(trace).instances.n
    )
    assert reps.is_exhaustive
    return extrapolated_fold(trace, reps)


DRIVERS = {
    "plan": lambda trace: FoldPlan.from_trace(trace).fold(),
    **{
        f"stream-{rows or 'all'}-{mode}": _streamed(rows, dirs)
        for rows in (7, 997, None)
        for mode, dirs in (("counters", None), ("three", THREE))
    },
    "extrapolated-exhaustive": _exhaustive,
}


@pytest.fixture(scope="module", params=["stream", "hpcg"])
def case(request):
    """(trace, resident fold digest) of one workload."""
    if request.param == "stream":
        trace = run_workload(
            StreamWorkload(StreamConfig(n=1 << 14, iterations=3, blocks=2)),
            SessionConfig(
                seed=3,
                engine="analytic",
                tracer=TracerConfig(load_period=64, store_period=64),
            ),
        )
    else:
        trace = request.getfixturevalue("hpcg_trace")
    return trace, fold_digest(fold_trace(trace))


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_driver_matches_resident_fold(case, driver):
    trace, resident = case
    assert fold_digest(DRIVERS[driver](trace)) == resident


def fixed_span_fold(trace) -> PerformanceFold:
    """The kernel over the whole trace with the live fold's fixed
    [0, 1] span and unpruned instances."""
    table = trace.sample_table()
    instances = instances_from_iterations(trace)
    prologue = build_prologue([table], instances)
    proj = project(table, instances, prologue)
    acc = DesignAccumulator(len(SAMPLE_COUNTERS))
    acc.add(proj.sigma, proj.fractions)
    counters = fit_counter_curves(
        acc.design(),
        totals_mean={
            name: float(prologue.totals[name].mean()) for name in SAMPLE_COUNTERS
        },
        duration_ns=instances.mean_duration_ns,
    )
    return PerformanceFold(
        instances=instances,
        counters=counters,
        totals=prologue.totals,
        degenerate=prologue.degenerate,
        n_folded=acc.n,
    )


@pytest.mark.parametrize("chunk_rows", [64, 640])
def test_live_fold_matches_fixed_span_accumulator(case, chunk_rows):
    trace, _ = case
    instances = instances_from_iterations(trace)
    marks = [instances.intervals[0][0]] + [end for _, end in instances.intervals]
    live = LiveFold()
    pending = list(marks)
    for chunk in trace.iter_sample_chunks(NAMES, chunk_rows):
        live.observe(chunk)
        while pending and pending[0] <= chunk["time_ns"][-1]:
            live.mark_iteration(pending.pop(0))
    for mark in pending:
        live.mark_iteration(mark)
    final = live.finish(end_time_ns=marks[-1])
    assert fold_digest(final) == fold_digest(fixed_span_fold(trace))
