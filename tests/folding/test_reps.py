"""Representative selection + extrapolated folds: the fidelity contract.

The two acceptance properties of representative-instance sampling:

* ``budget = n_instances`` is **bit-identical** to the exact fold
  (digest-checked through :func:`repro.folding.stream.fold_digest`)
  across engines × workloads × sampling backends;
* ``budget < n_instances`` carries a *measured*
  :class:`~repro.folding.extrapolate.FidelityBound` whose exact
  bookkeeping (per-instance totals, degenerate flags) never degrades —
  only curve shape is approximated.

Plus the cache-keying regression: exact and extrapolated entries must
never alias.
"""

import numpy as np
import pytest

from repro.extrae.trace import Trace
from repro.folding.cache import FoldCache
from repro.folding.extrapolate import (
    ExtrapolatedFold,
    extrapolated_fold,
    measure_fidelity,
)
from repro.folding.report import FoldedReport, fold_trace
from repro.folding.reps import (
    Representatives,
    derive_instances,
    select_representatives,
)
from repro.folding.stream import fold_digest
from repro.pipeline import run_workload
from repro.simproc.machine import SAMPLE_COUNTERS
from repro.workloads import HpcgWorkload
from repro.workloads.stream import StreamConfig, StreamWorkload
from tests.conftest import sampler_session_config, small_hpcg_config

ENGINES = ("analytic", "precise", "vectorized")


def stream_trace(seed=3, engine="analytic", sampler="pebs", n=1 << 13,
                 iterations=5, period=64):
    return run_workload(
        StreamWorkload(StreamConfig(n=n, iterations=iterations, blocks=2)),
        sampler_session_config(sampler, engine=engine, seed=seed,
                               period=period),
    )


def make_hpcg_trace(seed=5, engine="analytic", sampler="pebs",
                    n_iterations=5):
    return run_workload(
        HpcgWorkload(small_hpcg_config(n_iterations=n_iterations)),
        sampler_session_config(sampler, engine=engine, seed=seed, period=256),
    )


@pytest.fixture(scope="module")
def trace():
    return stream_trace()


@pytest.fixture(scope="module")
def instances(trace):
    return derive_instances(trace)


class TestSelection:
    def test_deterministic(self, trace, instances):
        a = select_representatives(trace, instances=instances, budget=3)
        b = select_representatives(trace, instances=instances, budget=3)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_structure(self, trace, instances):
        reps = select_representatives(trace, instances=instances, budget=3)
        assert isinstance(reps, Representatives)
        assert reps.n_clusters == 3
        assert reps.n_instances == instances.n
        # medoid indices ascending, each labeled with its own cluster
        assert (np.diff(reps.indices) > 0).all()
        np.testing.assert_array_equal(
            reps.labels[reps.indices], np.arange(reps.n_clusters)
        )
        # weights partition the instance set
        assert reps.weights.sum() == instances.n
        np.testing.assert_array_equal(
            reps.weights, np.bincount(reps.labels, minlength=reps.n_clusters)
        )
        assert not reps.is_exhaustive
        assert reps.selected().n == 3

    def test_budget_clamped_to_n(self, trace, instances):
        reps = select_representatives(
            trace, instances=instances, budget=instances.n + 50
        )
        assert reps.is_exhaustive
        np.testing.assert_array_equal(reps.indices, np.arange(instances.n))
        np.testing.assert_array_equal(reps.weights, np.ones(instances.n))

    def test_budget_validation(self, trace, instances):
        with pytest.raises(ValueError, match="budget"):
            select_representatives(trace, instances=instances, budget=0)

    def test_instance_derivation_matches_fold(self, trace):
        """select_representatives and fold_trace agree on the instance set."""
        reps = select_representatives(trace, budget=3)
        report = fold_trace(trace)
        assert reps.instances.intervals == report.instances.intervals

    def test_region_selection(self, trace):
        index = trace.index()
        names = sorted(index.events.region_names)
        if not names:
            pytest.skip("trace has no instrumented regions")
        reps = select_representatives(trace, region=names[0], budget=2)
        assert reps.instances.name == names[0]


class TestExhaustiveBitIdentity:
    """budget = n_instances must reproduce the exact fold bit for bit."""

    def test_small_stream(self, trace, instances):
        exact = fold_trace(trace)
        ext = fold_trace(trace, rep_budget=instances.n)
        assert isinstance(ext, ExtrapolatedFold)
        assert ext.digest() == fold_digest(exact)
        for name in SAMPLE_COUNTERS:
            np.testing.assert_array_equal(
                ext.counters[name].cumulative,
                exact.counters[name].cumulative,
            )
            np.testing.assert_array_equal(
                ext.counters[name].rate, exact.counters[name].rate
            )
        assert ext.n_folded == exact.samples.n

    def test_binned_regime(self):
        # dense sampling pushes the kept count past BIN_THRESHOLD, so
        # the weighted design exercises the bincount aggregation too
        trace = stream_trace(seed=9, period=8, iterations=3, n=1 << 14)
        exact = fold_trace(trace)
        assert exact.samples.n > 4096
        ext = fold_trace(trace, rep_budget=exact.instances.n)
        assert ext.digest() == fold_digest(exact)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engines_stream(self, engine, sampler_backend):
        trace = stream_trace(engine=engine, sampler=sampler_backend,
                             n=1 << 11, iterations=3)
        exact = fold_trace(trace)
        ext = fold_trace(trace, rep_budget=exact.instances.n)
        assert ext.digest() == fold_digest(exact)

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engines_hpcg(self, engine, sampler_backend):
        trace = make_hpcg_trace(engine=engine, sampler=sampler_backend)
        exact = fold_trace(trace)
        ext = fold_trace(trace, rep_budget=exact.instances.n)
        assert ext.digest() == fold_digest(exact)

    def test_hpcg_fast(self, hpcg_trace):
        exact = fold_trace(hpcg_trace)
        ext = fold_trace(hpcg_trace, rep_budget=exact.instances.n)
        assert ext.digest() == fold_digest(exact)

    def test_fidelity_bound_is_zero(self, trace, instances):
        _, bound = measure_fidelity(trace, instances.n)
        assert bound.digest_match
        assert bound.max_curve_error == 0.0
        assert bound.max_rate_error == 0.0
        assert bound.max_total_error == 0.0


class TestExtrapolation:
    def test_exact_bookkeeping_at_any_budget(self, trace, instances):
        """Totals/degenerate flags stay exact — only curves extrapolate."""
        exact = fold_trace(trace)
        ext = fold_trace(trace, rep_budget=2)
        assert ext.instances.intervals == exact.instances.intervals
        for name in SAMPLE_COUNTERS:
            np.testing.assert_array_equal(
                ext.totals[name], exact.samples.totals[name]
            )
            np.testing.assert_array_equal(
                ext.degenerate[name], exact.samples.degenerate[name]
            )
        assert 0 < ext.n_folded < exact.samples.n

    def test_fidelity_bound_small_budget(self, trace, instances):
        ext, bound = measure_fidelity(trace, 2)
        assert ext.fidelity is bound
        assert not bound.digest_match
        assert bound.budget == 2 and bound.n_instances == instances.n
        assert set(bound.curve_error) == set(SAMPLE_COUNTERS)
        # STREAM iterations are homogeneous: 2 instances must reproduce
        # the cumulative curves to a loose sanity tolerance (the tight
        # <=2% gate is enforced on HPCG-class runs by the rep bench)
        assert 0.0 <= bound.max_curve_error < 0.35
        # relative totals error is only meaningful for well-populated
        # counters (a near-zero exact total makes the ratio blow up)
        assert bound.total_error["instructions"] < 0.35
        assert bound.total_error["cycles"] < 0.35
        assert "max curve error" in bound.summary()

    def test_seed_changes_selection_not_contract(self, trace):
        a = fold_trace(trace, rep_budget=2, rep_seed=0)
        b = fold_trace(trace, rep_budget=2, rep_seed=1)
        # same exact bookkeeping either way
        for name in SAMPLE_COUNTERS:
            np.testing.assert_array_equal(a.totals[name], b.totals[name])

    def test_prebuilt_representatives(self, trace, instances):
        reps = select_representatives(trace, instances=instances, budget=2)
        via_obj = extrapolated_fold(trace, reps)
        via_budget = fold_trace(trace, rep_budget=2)
        assert via_obj.digest() == via_budget.digest()

    def test_export_gnuplot(self, trace, tmp_path):
        ext = fold_trace(trace, rep_budget=2)
        written = ext.export_gnuplot(tmp_path)
        assert [p.name for p in written] == ["counters.dat"]
        header = written[0].read_text().splitlines()[0]
        assert header.startswith("# sigma mips ipc")

    def test_repfold_trace_from_path(self, trace, tmp_path):
        path = tmp_path / "t.bsctrace"
        trace.save(path)
        ext = fold_trace(Trace.load(path), rep_budget=2)
        assert isinstance(ext, ExtrapolatedFold)
        assert ext.fidelity is None
        measured, _bound = measure_fidelity(trace, 2)
        assert measured.fidelity is not None
        assert measured.digest() == ext.digest()


class TestWiringErrors:
    def test_align_incompatible(self, trace):
        with pytest.raises(ValueError, match="resident fold"):
            fold_trace(trace, rep_budget=2, align_regions=("a",))


class TestCacheKeying:
    """Exact and extrapolated entries must never alias (regression)."""

    def test_kind_discriminates_keys(self, trace, tmp_path):
        cache = FoldCache(tmp_path)
        params = dict(grid_points=201, bandwidth=0.015,
                      prune_tolerance=0.5)
        exact_key = cache.key(trace, align_regions=None, **params)
        ext_key = cache.key(trace, kind="extrapolated", rep_budget=3,
                            rep_seed=0, **params)
        assert exact_key != ext_key
        # budget and seed are both part of the key
        assert ext_key != cache.key(trace, kind="extrapolated", rep_budget=4,
                                    rep_seed=0, **params)
        assert ext_key != cache.key(trace, kind="extrapolated", rep_budget=3,
                                    rep_seed=1, **params)

    def test_entries_never_alias(self, trace, tmp_path):
        """An extrapolated store never surfaces on the exact path and
        vice versa — even at identical fit parameters."""
        cache = FoldCache(tmp_path)
        ext = fold_trace(trace, cache=cache, rep_budget=3)
        exact = fold_trace(trace, cache=cache)
        assert isinstance(exact, FoldedReport)
        assert fold_digest(exact) != ext.digest()
        # both now cached; each path gets its own entry back
        ext_hit = fold_trace(trace, cache=cache, rep_budget=3)
        exact_hit = fold_trace(trace, cache=cache)
        assert isinstance(ext_hit, ExtrapolatedFold)
        assert isinstance(exact_hit, FoldedReport)
        assert ext_hit.digest() == ext.digest()
        assert fold_digest(exact_hit) == fold_digest(exact)

    def test_extrapolated_cache_round_trip(self, trace, tmp_path):
        cache = FoldCache(tmp_path)
        cold = fold_trace(trace, cache=cache, rep_budget=2, rep_seed=5)
        hit = fold_trace(trace, cache=cache, rep_budget=2, rep_seed=5)
        assert hit.digest() == cold.digest()
        assert hit.representatives.budget == 2
        assert hit.representatives.seed == 5
        # a different budget misses
        other = fold_trace(trace, cache=cache, rep_budget=3, rep_seed=5)
        assert other.representatives.budget == 3
