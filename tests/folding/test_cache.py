"""Tests for the content-addressed folded-report cache and the trace
content digest it keys on."""

import inspect
import os
import pickle
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.cli import main_cache, main_fold
from repro.extrae.tracer import TracerConfig
from repro.folding.cache import FoldCache, fold_key_params
from repro.folding.plan import FoldPlan
from repro.folding.report import fold_trace
from repro.folding.stream import stream_fold_trace
from repro.pipeline import SessionConfig, run_workload
from repro.workloads.stream import StreamConfig, StreamWorkload

from tests.folding.test_plan import assert_reports_identical


def stream_trace(seed=3, n=1 << 13, iterations=3):
    return run_workload(
        StreamWorkload(StreamConfig(n=n, iterations=iterations, blocks=2)),
        SessionConfig(
            seed=seed,
            tracer=TracerConfig(load_period=64, store_period=64),
        ),
    )


@pytest.fixture(scope="module")
def trace():
    return stream_trace()


@pytest.fixture
def cache(tmp_path):
    return FoldCache(directory=tmp_path / "cache")


class TestTraceDigest:
    def test_stable_across_calls(self, trace):
        assert trace.digest() == trace.digest()

    def test_identical_runs_share_digest(self):
        assert stream_trace(seed=5).digest() == stream_trace(seed=5).digest()

    def test_different_seeds_differ(self):
        assert stream_trace(seed=5).digest() != stream_trace(seed=6).digest()

    def test_save_load_round_trip_preserves_digest(self, trace, tmp_path):
        from repro.extrae.trace import Trace

        path = tmp_path / "t.bsctrace"
        trace.save(path)
        assert Trace.load(path).digest() == trace.digest()

    def test_mutation_invalidates(self):
        from dataclasses import replace

        t = stream_trace(seed=9)
        before = t.digest()
        last = t.events[-1]
        t.add_event(replace(last, time_ns=last.time_ns + 1.0))
        assert t.digest() != before


class TestCacheKey:
    def test_deterministic(self, trace, cache):
        a = cache.key(trace, grid_points=201, bandwidth=0.015)
        assert a == cache.key(trace, grid_points=201, bandwidth=0.015)

    def test_params_change_key(self, trace, cache):
        base = cache.key(trace, grid_points=201, bandwidth=0.015)
        assert cache.key(trace, grid_points=101, bandwidth=0.015) != base
        assert cache.key(trace, grid_points=201, bandwidth=0.02) != base

    def test_tuple_params_canonical(self, trace, cache):
        a = cache.key(trace, align_regions=("a", "b"))
        assert a == cache.key(trace, align_regions=("a", "b"))
        assert a != cache.key(trace, align_regions=("b", "a"))


class TestKeyParams:
    """Every fold path addresses the cache through ``fold_key_params``,
    and the keys it builds are pinned: entries already on disk stay
    addressable."""

    DIGEST = "ab" * 32

    def test_report_key_pinned(self, cache):
        key = cache.key_digest(self.DIGEST, **fold_key_params(201, 0.015))
        assert key == (
            "dc7cf8eb8303b477eaa32fa8a1853a8a0e9273559854943b27f48a4d12f078f7"
        )

    def test_extrapolated_key_pinned(self, cache):
        params = fold_key_params(101, 0.02, rep_budget=4, rep_seed=3)
        assert cache.key_digest(self.DIGEST, **params) == (
            "7271a557021ba5b56ef440d86fd6034e2699b05d723d3644a2800fd7fab85729"
        )

    def test_counter_subset_key_pinned(self, cache):
        params = fold_key_params(201, 0.015)
        key = cache.key_digest(
            self.DIGEST, **params, counters=("instructions", "cycles")
        )
        assert key == (
            "88fce1aa52d5d526d9321bf69fcdfd58b8036c15adb6eb06c6372a8a3a632b37"
        )

    def test_defaults_are_the_fold_defaults(self):
        keys = inspect.signature(fold_key_params).parameters
        for fold in (fold_trace, stream_fold_trace):
            for name, param in inspect.signature(fold).parameters.items():
                if name in keys and keys[name].default is not param.empty:
                    assert param.default == keys[name].default, (fold, name)

    def test_resident_and_streamed_folds_store_under_it(self, trace, cache):
        key = cache.key(trace, **fold_key_params(101, 0.02))
        fold_trace(trace, grid_points=101, bandwidth=0.02, cache=cache)
        assert cache.get(key) is not None
        cache.clear()
        stream_fold_trace(trace, grid_points=101, bandwidth=0.02, cache=cache)
        assert cache.get(key) is not None


class TestFoldCache:
    def test_miss_returns_none(self, trace, cache):
        assert cache.get(cache.key(trace, bandwidth=0.015)) is None

    def test_round_trip(self, trace, cache):
        report = fold_trace(trace)
        key = cache.key(trace, bandwidth=0.015)
        cache.put(key, report)
        assert_reports_identical(cache.get(key), report)

    def test_disk_tier_survives_new_instance(self, trace, cache):
        key = cache.key(trace, bandwidth=0.015)
        cache.put(key, fold_trace(trace))
        fresh = FoldCache(directory=cache.directory)
        assert fresh.get(key) is not None

    def test_memo_bound(self, trace, cache):
        report = fold_trace(trace)
        for i in range(cache.memo_entries + 4):
            cache.put(cache.key(trace, i=i), report)
        assert len(cache._memo) == cache.memo_entries

    def test_memo_disabled(self, trace, tmp_path):
        c = FoldCache(directory=tmp_path, memo_entries=0)
        key = c.key(trace)
        c.put(key, fold_trace(trace))
        assert len(c._memo) == 0
        assert c.get(key) is not None  # disk tier still works

    def test_corrupt_entry_is_miss_and_deleted(self, trace, cache):
        key = cache.key(trace, bandwidth=0.015)
        path = cache.put(key, fold_trace(trace))
        path.write_bytes(b"not a pickle")
        fresh = FoldCache(directory=cache.directory)  # empty memo
        assert fresh.get(key) is None
        assert not path.exists()

    def test_prune_evicts_lru(self, trace, cache):
        report = fold_trace(trace)
        keys = [cache.key(trace, i=i) for i in range(3)]
        paths = [cache.put(k, report) for k in keys]
        size = paths[0].stat().st_size
        # Bound fits two entries: the oldest must go.
        removed = cache.prune(max_bytes=2 * size + size // 2)
        assert removed == 1
        assert not paths[0].exists() and paths[1].exists() and paths[2].exists()

    def test_put_enforces_max_bytes(self, trace, tmp_path):
        report = fold_trace(trace)
        probe = FoldCache(directory=tmp_path / "probe")
        size = probe.put(probe.key(trace), report).stat().st_size
        c = FoldCache(directory=tmp_path / "bounded", max_bytes=2 * size + 16)
        for i in range(4):
            c.put(c.key(trace, i=i), report)
        assert c.stats().n_entries == 2

    def test_clear(self, trace, cache):
        cache.put(cache.key(trace), fold_trace(trace))
        assert cache.clear() == 1
        assert cache.stats().n_entries == 0
        assert len(cache._memo) == 0
        assert cache.get(cache.key(trace)) is None

    def test_stats_summary(self, trace, cache):
        cache.put(cache.key(trace), fold_trace(trace))
        stats = cache.stats()
        assert stats.n_entries == 1 and stats.total_bytes > 0
        assert "entries: 1" in stats.summary()

    def test_rejects_bad_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            FoldCache(directory=tmp_path, max_bytes=0)
        with pytest.raises(ValueError):
            FoldCache(directory=tmp_path, memo_entries=-1)


class TestConcurrentCache:
    """Atomic publish + tolerance of concurrent readers/writers/pruners."""

    def test_crash_window_leaves_published_entry_intact(self, trace, cache):
        # A writer that dies between mkstemp and os.replace must leave
        # (a) the previously published entry readable and (b) only an
        # invisible staging file behind — readers can never see a torn
        # pickle because the entry path is only ever written by rename.
        key = cache.key(trace)
        report = fold_trace(trace)
        path = cache.put(key, report)
        published = path.read_bytes()

        real_replace = os.replace

        def crash_before_publish(src, dst):
            raise OSError("simulated writer crash inside the window")

        crashed = FoldCache(directory=cache.directory, memo_entries=0)
        with mock.patch("os.replace", crash_before_publish):
            with pytest.raises(OSError, match="simulated"):
                crashed.put(key, report)
        # mkstemp cleanup is attempted on failure; even if a stale .tmp
        # survived a harder crash, it must not masquerade as an entry.
        (cache.directory / "deadbeef.tmp").write_bytes(b"torn pick")
        assert path.read_bytes() == published
        fresh = FoldCache(directory=cache.directory, memo_entries=0)
        assert fresh.stats().n_entries == 1
        hit = fresh.get(key)
        assert hit is not None
        assert os.replace is real_replace

    def test_clear_sweeps_stale_tmp_files(self, trace, cache):
        cache.put(cache.key(trace), fold_trace(trace))
        stale = cache.directory / "orphan.tmp"
        stale.write_bytes(b"partial")
        assert cache.clear() == 1  # the tmp file is not an entry
        assert not stale.exists()

    def test_prune_sweeps_old_tmp_keeps_fresh(self, trace, cache):
        cache.put(cache.key(trace), fold_trace(trace))
        old = cache.directory / "old.tmp"
        old.write_bytes(b"x")
        os.utime(old, (time.time() - 7200, time.time() - 7200))
        fresh = cache.directory / "fresh.tmp"
        fresh.write_bytes(b"y")
        cache.prune()
        assert not old.exists()  # crashed writer, swept
        assert fresh.exists()  # possibly a live writer, spared

    def test_stats_and_prune_tolerate_concurrent_deletion(self, trace, cache):
        report = fold_trace(trace)
        paths = [cache.put(cache.key(trace, i=i), report) for i in range(3)]

        real_stat = Path.stat

        def racing_stat(self, **kwargs):
            # Another process evicts paths[0] between listing and stat.
            if self == paths[0]:
                try:
                    os.unlink(self)
                except FileNotFoundError:
                    pass
                raise FileNotFoundError(self)
            return real_stat(self, **kwargs)

        with mock.patch.object(Path, "stat", racing_stat):
            stats = cache.stats()
        assert stats.n_entries == 2
        with mock.patch.object(Path, "stat", racing_stat):
            assert cache.prune() == 0
        assert paths[1].exists() and paths[2].exists()

    def test_parallel_writers_same_key_never_torn(self, trace, cache):
        # Hammer one key from several threads while readers poll it:
        # every successful get must unpickle to a complete report.
        import threading

        report = fold_trace(trace)
        key = cache.key(trace)
        stop = threading.Event()
        errors = []

        def writer():
            w = FoldCache(directory=cache.directory, memo_entries=0)
            try:
                for _ in range(10):
                    w.put(key, report)
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        def reader():
            r = FoldCache(directory=cache.directory, memo_entries=0)
            try:
                while not stop.is_set():
                    hit = r.get(key)
                    if hit is not None:
                        assert hit.counters.sigma.size == report.counters.sigma.size
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        writers = [threading.Thread(target=writer) for _ in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        final = FoldCache(directory=cache.directory, memo_entries=0).get(key)
        assert_reports_identical(final, report)


class TestFoldTraceIntegration:
    def test_hit_is_bit_identical_and_reattaches_trace(self, trace, cache):
        cold = fold_trace(trace, cache=cache)
        memo_hit = fold_trace(trace, cache=cache)
        disk_hit = fold_trace(trace, cache=FoldCache(directory=cache.directory))
        for hit in (memo_hit, disk_hit):
            assert hit.trace is trace
            assert_reports_identical(hit, cold)

    def test_stored_entry_has_no_trace(self, trace, cache):
        report = fold_trace(trace, cache=cache)
        key = cache.key(
            trace,
            grid_points=201,
            bandwidth=0.015,
            prune_tolerance=0.5,
            align_regions=None,
        )
        path = cache._path(key)
        assert path.exists()
        with path.open("rb") as f:
            stored = pickle.load(f)
        assert stored.trace is None
        assert_reports_identical(stored, report)

    def test_hit_annotations_do_not_pollute(self, trace, cache):
        fold_trace(trace, cache=cache)
        hit = fold_trace(trace, cache=cache)
        hit.addresses.annotate("scratch", 0, 1024)
        assert fold_trace(trace, cache=cache).addresses.bands == []

    def test_different_params_are_different_entries(self, trace, cache):
        a = fold_trace(trace, cache=cache, bandwidth=0.015)
        b = fold_trace(trace, cache=cache, bandwidth=0.05)
        assert cache.stats().n_entries == 2
        assert not np.array_equal(
            a.counters.curves["instructions"].cumulative,
            b.counters.curves["instructions"].cumulative,
        )

    def test_explicit_instances_bypass_cache(self, trace, cache):
        plan = FoldPlan.from_trace(trace)
        fold_trace(trace, instances=plan.instances, cache=cache)
        assert cache.stats().n_entries == 0

    def test_analyze_hpcg_accepts_cache(self, hpcg_trace, tmp_path):
        from repro.pipeline import analyze_hpcg

        cache = FoldCache(directory=tmp_path)
        report_a, _ = analyze_hpcg(hpcg_trace, cache=cache)
        assert cache.stats().n_entries == 1
        report_b, _ = analyze_hpcg(hpcg_trace, cache=cache)
        assert_reports_identical(report_a, report_b)


class TestCacheCli:
    @pytest.fixture
    def trace_file(self, tmp_path, trace):
        path = tmp_path / "t.bsctrace"
        trace.save(path)
        return path

    def test_fold_cache_flag_populates(self, trace_file, tmp_path, capsys):
        cache_dir = tmp_path / "fc"
        assert main_fold([str(trace_file), "--cache-dir", str(cache_dir)]) == 0
        assert FoldCache(directory=cache_dir).stats().n_entries == 1
        # Second invocation hits the entry and produces the same output.
        first = capsys.readouterr().out
        assert main_fold([str(trace_file), "--cache-dir", str(cache_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_cache_info(self, tmp_path, capsys):
        assert main_cache(["info", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out

    def test_cache_clear(self, trace_file, tmp_path, capsys):
        cache_dir = tmp_path / "fc"
        main_fold([str(trace_file), "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert main_cache(["clear", "--dir", str(cache_dir)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert FoldCache(directory=cache_dir).stats().n_entries == 0

    def test_cache_prune(self, trace_file, tmp_path, capsys):
        cache_dir = tmp_path / "fc"
        main_fold([str(trace_file), "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert main_cache(
            ["prune", "--dir", str(cache_dir), "--max-bytes", "1"]
        ) == 0
        assert "evicted 1" in capsys.readouterr().out
