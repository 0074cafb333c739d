"""AnalysisServer: endpoints, caching/ETag semantics, concurrency."""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.folding.report import fold_trace
from repro.repo import TraceRepo
from repro.service import AnalysisServer, ServiceClient, ServiceError
from repro.service.payloads import (
    address_payload,
    counters_payload,
    lines_payload,
    payload_digest,
)

from tests.extrae.test_trace_fastpath import run_trace


@pytest.fixture(scope="module")
def traced():
    return run_trace("vectorized", "stream")


def _serve(traced, root):
    """Start a server over a one-trace repository in a thread; yields
    ``(server, entry)`` and stops it afterwards."""
    repo = TraceRepo(root / "repo")
    entry = repo.put(traced)
    server = AnalysisServer(repo, workers=2, trace_cache_capacity=4)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30
    while not server.port and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.port, "server did not come up"
    yield server, entry
    server.request_stop()
    thread.join(timeout=30)


@pytest.fixture(scope="module")
def served(traced, tmp_path_factory):
    """A live server over a one-trace repository (module-shared)."""
    yield from _serve(traced, tmp_path_factory.mktemp("service"))


@pytest.fixture()
def client(served):
    server, _entry = served
    with ServiceClient("127.0.0.1", server.port) as c:
        yield c


class TestDeadWorker:
    def test_cold_fold_after_a_worker_died(self, traced, tmp_path):
        """A fold worker killed mid-run (OOM killer, crash) breaks the
        pool; the next cold fold replaces it and still answers."""
        for server, entry in _serve(traced, tmp_path):
            dead = server._pool.submit(os._exit, 1)
            with pytest.raises(BrokenProcessPool):
                dead.result(timeout=60)
            with ServiceClient("127.0.0.1", server.port) as c:
                got = c.fold(entry.digest, "counters", grid=141)
            want = counters_payload(fold_trace(traced, grid_points=141))
            assert got["payload_digest"] == want["payload_digest"]
            assert server.counters["errors"] == 0


class TestBasicEndpoints:
    def test_healthz(self, client):
        assert client.healthz() == {"ok": True}

    def test_traces_listing(self, served, client):
        _server, entry = served
        listing = client.traces()
        assert listing["n_traces"] == 1
        assert listing["traces"][0]["digest"] == entry.digest

    def test_trace_meta_by_prefix(self, served, client, traced):
        _server, entry = served
        meta = client.trace(entry.digest[:8])
        assert meta["digest"] == entry.digest
        assert meta["meta"]["n_samples"] == traced.n_samples

    def test_unknown_digest_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.trace("0000beef")
        assert exc.value.status == 404

    def test_unknown_path_is_404(self, client):
        status, _headers, _body = client.get("/nope")
        assert status == 404

    def test_stats_endpoint(self, client):
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["counters"]["requests"] >= 1

    def test_payloads_are_digest_stamped(self, served, client):
        _server, entry = served
        meta = client.trace(entry.digest)
        assert meta["payload_digest"] == payload_digest(meta)


class TestIndexQueries:
    def test_window_counts_match_trace(self, served, client, traced):
        _server, entry = served
        table = traced.sample_table()
        t = np.asarray(table.column("time_ns"))
        t0, t1 = float(t.min()), float(np.median(t))
        win = client.window(entry.digest, t0, t1)
        in_window = (t >= t0) & (t < t1)
        assert win["n_samples"] == int(in_window.sum())
        assert win["n_loads"] + win["n_stores"] == win["n_samples"]

    def test_window_requires_bounds(self, served, client):
        _server, entry = served
        status, _h, _b = client.get(f"/v1/traces/{entry.digest}/window?t0=1")
        assert status == 400

    def test_regions_listing(self, served, client, traced):
        _server, entry = served
        regions = client.regions(entry.digest)
        names = {r["name"] for r in regions["regions"]}
        assert names  # the stream workload marks its kernels
        detail = client.region(entry.digest, sorted(names)[0])
        assert detail["intervals"]
        assert all(iv["t1_ns"] >= iv["t0_ns"] for iv in detail["intervals"])

    def test_unknown_region_is_404(self, served, client):
        _server, entry = served
        with pytest.raises(ServiceError) as exc:
            client.region(entry.digest, "NoSuchRegion")
        assert exc.value.status == 404


class TestFoldEndpoint:
    def test_counters_payload_matches_direct_fold(self, served, client, traced):
        _server, entry = served
        got = client.fold(entry.digest, "counters")
        want = counters_payload(fold_trace(traced))
        assert got["payload_digest"] == want["payload_digest"]

    def test_address_and_lines_match_direct_fold(self, served, client, traced):
        _server, entry = served
        report = fold_trace(traced)
        assert client.fold(entry.digest, "address")["payload_digest"] == \
            address_payload(report)["payload_digest"]
        assert client.fold(entry.digest, "lines")["payload_digest"] == \
            lines_payload(report)["payload_digest"]

    def test_streamed_counters_share_the_resident_digest(
        self, served, client
    ):
        _server, entry = served
        resident = client.fold(entry.digest, "counters")
        streamed = client.fold(entry.digest, "counters", stream=True)
        assert streamed["payload_digest"] == resident["payload_digest"]

    def test_reps_fold(self, served, client, traced):
        _server, entry = served
        payload = client.fold(entry.digest, "counters", reps=2)
        assert 0 < payload["n_folded"] <= traced.n_samples
        assert payload["n_instances"] > 0

    def test_bad_direction_is_400(self, served, client):
        _server, entry = served
        with pytest.raises(ServiceError) as exc:
            client.fold(entry.digest, "sideways")
        assert exc.value.status == 400

    def test_reps_outside_counters_is_400(self, served, client):
        _server, entry = served
        with pytest.raises(ServiceError) as exc:
            client.fold(entry.digest, "address", reps=2)
        assert exc.value.status == 400

    def test_etag_revalidation_yields_304(self, served):
        server, entry = served
        with ServiceClient("127.0.0.1", server.port) as c:
            first = c.fold(entry.digest, "counters", grid=151)
            before = server.counters["not_modified"]
            second = c.fold(entry.digest, "counters", grid=151)
            assert second == first
            assert c.n_304 == 1
            assert server.counters["not_modified"] == before + 1

    def test_response_cache_serves_repeat_bodies(self, served):
        server, entry = served
        with ServiceClient("127.0.0.1", server.port) as c:
            c.fold(entry.digest, "counters", grid=171)
            before = server.counters["response_cache_hits"]
            c.fold(entry.digest, "counters", grid=171, revalidate=False)
            assert server.counters["response_cache_hits"] == before + 1

    def test_concurrent_identical_folds_coalesce(self, served):
        server, entry = served
        before_cold = server.counters["folds_cold"]

        def fetch(_):
            with ServiceClient("127.0.0.1", server.port) as c:
                return c.fold(entry.digest, "counters", grid=123)

        with ThreadPoolExecutor(max_workers=6) as pool:
            payloads = list(pool.map(fetch, range(6)))
        digests = {p["payload_digest"] for p in payloads}
        assert len(digests) == 1
        # one fold computed; everyone else coalesced onto it or hit a cache
        assert server.counters["folds_cold"] == before_cold + 1

    def test_warm_cache_answers_without_the_pool(self, served):
        server, entry = served
        with ServiceClient("127.0.0.1", server.port) as c:
            c.fold(entry.digest, "counters", grid=133)  # cold: warms FoldCache
            cold = server.counters["folds_cold"]
            # different direction, same fold parameters: the cached
            # resident report serves it in-loop
            c.fold(entry.digest, "address", grid=133)
            assert server.counters["folds_cold"] == cold
            assert server.counters["folds_warm_cache"] >= 1
