"""SharedTraceCache: one mmap per digest, refcounted LRU eviction."""

import pytest

from repro.service.tables import SharedTraceCache

from tests.extrae.test_trace_fastpath import run_trace


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """Three distinct on-disk v2 containers, keyed by digest."""
    tmp = tmp_path_factory.mktemp("tables")
    out = {}
    for seed in (3, 4, 5):
        trace = run_trace("vectorized", "stream", seed=seed)
        digest = trace.digest()
        path = tmp / f"{digest[:12]}.bsctrace"
        trace.save(path, compression="none")
        out[digest] = path
    return out


def _closed(trace) -> bool:
    """Whether a lazily loaded trace's reader has been closed."""
    try:
        trace.sample_table().column("address")
    except ValueError:
        return True
    return False


class TestLeases:
    def test_same_digest_shares_one_open_trace(self, containers):
        cache = SharedTraceCache(capacity=4)
        (digest, path), *_ = containers.items()
        with cache.lease(digest, path) as a, cache.lease(digest, path) as b:
            assert a.trace is b.trace
            assert a.index is b.index
        assert cache.opens == 1
        assert cache.hits == 1
        assert len(cache) == 1  # stays open (warm) after release

    def test_lease_pins_against_eviction(self, containers):
        cache = SharedTraceCache(capacity=1)
        items = list(containers.items())
        d0, p0 = items[0]
        d1, p1 = items[1]
        lease = cache.lease(d0, p0)
        with cache.lease(d1, p1) as other:
            # over capacity, but the pinned entry must not be closed
            assert not _closed(lease.trace)
            assert not _closed(other.trace)
        lease.__exit__(None, None, None)

    def test_eviction_closes_unleased_traces(self, containers):
        cache = SharedTraceCache(capacity=1)
        items = list(containers.items())
        first = None
        for digest, path in items:
            with cache.lease(digest, path) as lease:
                if first is None:
                    first = lease.trace
        assert len(cache) == 1
        assert _closed(first)

    def test_invalidate_defers_close_to_last_lease(self, containers):
        cache = SharedTraceCache(capacity=4)
        (digest, path), *_ = containers.items()
        lease = cache.lease(digest, path)
        trace = lease.trace
        assert cache.invalidate(digest)
        # still leased: must stay readable
        assert not _closed(trace)
        lease.__exit__(None, None, None)
        # last lease released: now it closes
        assert _closed(trace)
        assert not cache.invalidate(digest)

    def test_close_shuts_everything(self, containers):
        cache = SharedTraceCache(capacity=4)
        opened = []
        for digest, path in containers.items():
            with cache.lease(digest, path) as lease:
                opened.append(lease.trace)
        cache.close()
        assert len(cache) == 0
        assert all(_closed(t) for t in opened)

    def test_stats(self, containers):
        cache = SharedTraceCache(capacity=2)
        (digest, path), *_ = containers.items()
        with cache.lease(digest, path):
            stats = cache.stats()
            assert stats["pinned"] == 1
            assert stats["n_open"] == 1
        cache.close()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SharedTraceCache(capacity=0)
