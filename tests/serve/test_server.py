"""IndexServer: bit-identity, caching, validation, stats, lifecycle."""

import threading
import time

import numpy as np
import pytest

from repro.search.bruteforce import BruteForceIndex
from repro.serve import (
    BatchPolicy,
    FaultPlan,
    FaultyLoader,
    IndexServer,
    InjectedFault,
    ServerClosedError,
)

_FAST = BatchPolicy(max_batch=8)
# Coalescing and cancellation tests hold requests in the batcher by
# keeping the in-process backend busy (the ``busy_loader`` fixture), so
# they control exactly when queued work runs.
_HOLD = BatchPolicy(max_batch=10_000)


@pytest.fixture(scope="module")
def corpus():
    return np.random.default_rng(11).normal(size=(100, 4))


@pytest.fixture(scope="module")
def index(corpus):
    return BruteForceIndex(corpus)


@pytest.fixture(scope="module")
def snapshot(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("server") / "bruteforce.npz"
    index.save(str(path))
    return str(path)


def wait_for(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def assert_result_matches(got, expected):
    assert tuple(got.indices.tolist()) == tuple(expected.indices.tolist())
    assert tuple(got.distances.tolist()) == tuple(expected.distances.tolist())
    assert got.stats == expected.stats


class TestBitIdentity:
    def test_individually_submitted_queries(self, index, snapshot, rng):
        queries = rng.normal(size=(25, 4))
        with IndexServer(snapshot, n_workers=0, policy=_FAST) as server:
            futures = [server.submit(q, k=3) for q in queries]
            for q, future in zip(queries, futures):
                assert_result_matches(
                    future.result(timeout=30), index.query(q, k=3)
                )

    def test_mixed_k_traffic(self, index, snapshot, rng):
        queries = rng.normal(size=(18, 4))
        ks = [1 + (i % 4) for i in range(18)]
        with IndexServer(snapshot, n_workers=0, policy=_FAST) as server:
            futures = [
                server.submit(q, k=k) for q, k in zip(queries, ks)
            ]
            for q, k, future in zip(queries, ks, futures):
                assert_result_matches(
                    future.result(timeout=30), index.query(q, k=k)
                )

    def test_pooled_serving_matches(self, index, snapshot, rng):
        queries = rng.normal(size=(12, 4))
        with IndexServer(snapshot, n_workers=2, policy=_FAST) as server:
            futures = [server.submit(q, k=2) for q in queries]
            for q, future in zip(queries, futures):
                assert_result_matches(
                    future.result(timeout=30), index.query(q, k=2)
                )

    def test_explicit_batch_bypasses_batcher(self, index, snapshot, rng):
        queries = rng.normal(size=(7, 4))
        with IndexServer(snapshot, n_workers=0) as server:
            batch = server.query_batch(queries, k=3)
        expected = index.query_batch(queries, k=3)
        for got, want in zip(batch, expected):
            assert_result_matches(got, want)

    def test_empty_explicit_batch(self, snapshot):
        with IndexServer(snapshot, n_workers=0) as server:
            batch = server.query_batch(np.empty((0, 4)), k=2)
        assert len(batch) == 0

    def test_explicit_batch_honors_deadline(self, index, snapshot, rng):
        """query_batch carries the same deadline contract as query."""
        from repro.serve.errors import DeadlineExceeded

        queries = rng.normal(size=(4, 4))
        with IndexServer(snapshot, n_workers=0) as server:
            # A generous deadline answers normally ...
            batch = server.query_batch(queries, k=2, deadline_ms=60_000)
            expected = index.query_batch(queries, k=2)
            for got, want in zip(batch, expected):
                assert_result_matches(got, want)
            # ... an impossible one raises instead of answering late
            # (in-process compute cannot be preempted, so the check
            # lands on completion) and is counted in the ledger.
            with pytest.raises(DeadlineExceeded):
                server.query_batch(queries, k=2, deadline_ms=1e-6)
            assert server.stats().n_deadline_exceeded >= 1
            # Invalid deadlines are rejected like submit rejects them.
            with pytest.raises(ValueError, match="deadline_ms"):
                server.query_batch(queries, k=2, deadline_ms=0)


class TestCache:
    def test_repeats_hit_and_stay_identical(self, index, snapshot, rng):
        queries = rng.normal(size=(6, 4))
        with IndexServer(
            snapshot, n_workers=0, policy=_FAST, cache_capacity=32
        ) as server:
            first = [server.query(q, k=2) for q in queries]
            second = [server.query(q, k=2) for q in queries]
            report = server.stats()
        assert report.cache_hits == 6
        assert report.cache_misses == 6
        for q, one, two in zip(queries, first, second):
            assert_result_matches(one, index.query(q, k=2))
            assert_result_matches(two, one)

    def test_eviction_counters_surface_in_report(self, snapshot, rng):
        queries = rng.normal(size=(10, 4))
        with IndexServer(
            snapshot, n_workers=0, policy=_FAST, cache_capacity=4
        ) as server:
            for q in queries:
                server.query(q, k=1)
            report = server.stats()
        assert report.cache_misses == 10
        assert report.cache_evictions == 6

    def test_same_query_different_k_misses(self, snapshot, rng):
        query = rng.normal(size=4)
        with IndexServer(
            snapshot, n_workers=0, policy=_FAST, cache_capacity=8
        ) as server:
            server.query(query, k=1)
            server.query(query, k=2)
            report = server.stats()
        assert report.cache_hits == 0
        assert report.cache_misses == 2


class TestCacheStampede:
    def test_identical_misses_coalesce_to_one_batch_row(
        self, index, snapshot, rng, busy_loader
    ):
        # Regression: concurrent identical misses used to each enqueue
        # their own batch row (a cache stampede).  The second submission
        # must follow the first's in-flight future instead.
        query = rng.normal(size=4)
        loader = busy_loader()
        with IndexServer(
            snapshot, n_workers=0, policy=_HOLD, cache_capacity=8,
            index_loader=loader,
        ) as server:
            busy = loader.occupy(server)
            leader = server.submit(query, k=3)
            follower = server.submit(query, k=3)
            assert not leader.done() and not follower.done()
            loader.release()
            server.close()  # the single pending batch row is flushed
            expected = index.query(query, k=3)
            assert_result_matches(leader.result(timeout=30), expected)
            assert_result_matches(follower.result(timeout=30), expected)
            busy.result(timeout=30)
            report = server.stats()
        assert report.n_requests == 3
        # One row for the batch that kept the backend busy, one for the
        # leader and its follower.
        assert sum(
            size * count
            for size, count in report.batch_size_histogram.items()
        ) == 2

    def test_two_thread_stampede_flushes_once(self, index, snapshot, rng):
        query = rng.normal(size=4)
        policy = BatchPolicy(max_batch=64)
        results = [None, None]
        barrier = threading.Barrier(2)
        with IndexServer(
            snapshot, n_workers=0, policy=policy, cache_capacity=8
        ) as server:

            def worker(slot):
                barrier.wait()
                results[slot] = server.query(query, k=2)

            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            report = server.stats()
        # Whatever the interleaving — coalesced onto one in-flight
        # future, or the late thread hitting the cache — exactly one
        # batch row executes and both callers are answered identically.
        assert report.n_requests == 2
        assert sum(
            size * count
            for size, count in report.batch_size_histogram.items()
        ) == 1
        expected = index.query(query, k=2)
        assert_result_matches(results[0], expected)
        assert_result_matches(results[1], expected)

    def test_follower_mirrors_leader_failure(
        self, snapshot, rng, busy_loader
    ):
        # A failed leader must fail its followers with the same typed
        # error — never hang them, never cache the failure.  Batch 1
        # keeps the backend busy; the leader's batch 2 raises.
        loader = busy_loader(FaultyLoader(FaultPlan(raise_on=(2,))))
        query = rng.normal(size=4)
        with IndexServer(
            snapshot, n_workers=0, policy=_HOLD, cache_capacity=8,
            index_loader=loader,
        ) as server:
            loader.occupy(server)
            leader = server.submit(query, k=2)
            follower = server.submit(query, k=2)
            loader.release()
            server.close()
            with pytest.raises(InjectedFault):
                leader.result(timeout=30)
            with pytest.raises(InjectedFault):
                follower.result(timeout=30)
            report = server.stats()
        assert report.n_failed == 2
        assert report.cache_hits == 0


class TestValidation:
    def test_bad_query_raises_synchronously(self, snapshot):
        with IndexServer(snapshot, n_workers=0) as server:
            with pytest.raises(ValueError):
                server.submit(np.zeros(9), k=1)

    def test_nan_query_raises(self, snapshot):
        with IndexServer(snapshot, n_workers=0) as server:
            with pytest.raises(ValueError, match="finite"):
                server.submit(np.full(4, np.nan), k=1)

    def test_out_of_range_k_raises(self, snapshot):
        with IndexServer(snapshot, n_workers=0) as server:
            with pytest.raises(ValueError):
                server.submit(np.zeros(4), k=0)
            with pytest.raises(ValueError):
                server.submit(np.zeros(4), k=101)

    def test_constructor_rejects_bad_arguments(self, snapshot):
        with pytest.raises(ValueError, match="n_workers"):
            IndexServer(snapshot, n_workers=-1)
        with pytest.raises(ValueError, match="cache_capacity"):
            IndexServer(snapshot, cache_capacity=-1)
        with pytest.raises(ValueError, match="default_deadline_ms"):
            IndexServer(snapshot, default_deadline_ms=0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            IndexServer(snapshot, n_workers=1, heartbeat_timeout=-1.0)

    def test_nonpositive_deadline_ms_raises(self, snapshot):
        with IndexServer(snapshot, n_workers=0) as server:
            with pytest.raises(ValueError, match="deadline_ms"):
                server.submit(np.zeros(4), k=1, deadline_ms=-5.0)


class TestFailureAccounting:
    def test_injected_error_is_counted_not_cached_not_fatal(
        self, index, snapshot, rng
    ):
        # The first in-process batch raises; the failure must surface
        # typed in the caller's future, be counted as n_failed, skip the
        # cache put, and leave the server fully serviceable.
        loader = FaultyLoader(FaultPlan(raise_on=(1,)))
        query = rng.normal(size=4)
        with IndexServer(
            snapshot, n_workers=0, policy=_FAST, cache_capacity=8,
            index_loader=loader,
        ) as server:
            future = server.submit(query, k=2)
            with pytest.raises(InjectedFault):
                future.result(timeout=30)
            retried = server.query(query, k=2)
            report = server.stats()
        assert report.n_failed == 1
        assert report.n_requests == 1
        # The failed attempt put nothing in the cache: the retry was a
        # miss, not a hit replaying a poisoned entry.
        assert report.cache_hits == 0
        assert report.cache_misses == 2
        assert_result_matches(retried, index.query(query, k=2))


class TestStats:
    def test_report_accounts_every_request(self, snapshot, rng):
        queries = rng.normal(size=(20, 4))
        with IndexServer(snapshot, n_workers=0, policy=_FAST) as server:
            futures = [server.submit(q, k=2) for q in queries]
            for future in futures:
                future.result(timeout=30)
            report = server.stats()
        assert report.n_requests == 20
        assert sum(
            size * count
            for size, count in report.batch_size_histogram.items()
        ) == 20
        assert max(report.batch_size_histogram) <= _FAST.max_batch
        assert 0.0 <= report.latency_p50_ms <= report.latency_p95_ms
        assert report.latency_p95_ms <= report.latency_p99_ms
        assert report.query_stats.points_scanned == 20 * 100
        assert report.throughput_qps > 0

    def test_cancelled_requests_balance_the_ledger(
        self, snapshot, rng, busy_loader
    ):
        # Regression: _finish_request used to return early on cancelled
        # futures without counting them, so submissions silently vanished
        # from the report and the ledger stopped balancing.
        queries = rng.normal(size=(6, 4))
        loader = busy_loader()
        with IndexServer(
            snapshot, n_workers=0, policy=_HOLD, index_loader=loader
        ) as server:
            futures = [loader.occupy(server)]
            futures += [server.submit(q, k=1) for q in queries]
            assert futures[1].cancel()
            assert futures[4].cancel()
            loader.release()
            server.close()  # flushes the survivors
            for n, future in enumerate(futures):
                if n not in (1, 4):
                    future.result(timeout=30)
            report = server.stats()
        assert report.n_cancelled == 2
        assert report.n_requests == 5
        accounted = (
            report.n_requests
            + report.n_failed
            + report.n_shed
            + report.n_deadline_exceeded
            + report.n_cancelled
        )
        assert accounted == len(futures), report

    def test_reset_clears_samples(self, snapshot, rng):
        with IndexServer(snapshot, n_workers=0, policy=_FAST) as server:
            server.query(rng.normal(size=4), k=1)
            server.reset_stats()
            report = server.stats()
        assert report.n_requests == 0
        assert report.n_batches == 0


class TestLifecycle:
    def test_metadata(self, snapshot):
        with IndexServer(snapshot, n_workers=0) as server:
            assert server.kind == "bruteforce"
            assert server.n_points == 100
            assert server.dimensionality == 4
            assert len(server.fingerprint) == 64

    def test_submit_after_close_raises(self, snapshot, rng):
        server = IndexServer(snapshot, n_workers=0)
        server.close()
        # Typed, and still a RuntimeError for pre-hardening callers.
        with pytest.raises(ServerClosedError, match="closed"):
            server.submit(rng.normal(size=4), k=1)
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(rng.normal(size=4), k=1)
        with pytest.raises(ServerClosedError, match="closed"):
            server.query_batch(rng.normal(size=(2, 4)), k=1)
        with pytest.raises(ServerClosedError, match="closed"):
            server.query(rng.normal(size=4), k=1)

    def test_close_is_idempotent(self, snapshot):
        server = IndexServer(snapshot, n_workers=0)
        server.close()
        server.close()

    def test_close_flushes_requests_queued_behind_a_busy_worker(
        self, index, snapshot, rng
    ):
        # The only worker is busy, so the later requests wait in the
        # batcher; close() still flushes them and drains the pool.
        loader = FaultyLoader(FaultPlan(delay_on=((1, 0.3),)))
        queries = rng.normal(size=(4, 4))
        with IndexServer(
            snapshot, n_workers=1, policy=_FAST, index_loader=loader
        ) as server:
            batcher = server._batcher
            futures = [server.submit(queries[0], k=2)]
            assert wait_for(lambda: batcher.n_pending == 0)
            futures += [server.submit(q, k=2) for q in queries[1:]]
            assert batcher.n_pending == 3
            server.close()
            assert batcher.n_pending == 0
        for query, future in zip(queries, futures):
            assert_result_matches(
                future.result(timeout=30), index.query(query, k=2)
            )
