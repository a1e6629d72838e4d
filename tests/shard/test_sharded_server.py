"""ShardedIndexServer: identity, failure policy, admission, one pipeline."""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.search import BruteForceIndex, KdTreeIndex
from repro.search.snapshot import load_index
from repro.serve import (
    BatchPolicy,
    DeadlineExceeded,
    FaultPlan,
    FaultyIndex,
    InjectedFault,
    ServerClosedError,
    ServerOverloaded,
    ShardError,
)
from repro.shard import ShardedIndexServer, build_shards

# Admission/deadline/cancellation tests hold requests in the batcher by
# keeping the in-process shards busy (the ``busy_loader`` fixture), so
# they control exactly when queued work runs.
_HOLD = BatchPolicy(max_batch=10_000)
_FAST = BatchPolicy(max_batch=8)


@pytest.fixture(scope="module")
def manifest(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("shards")
    return build_shards(corpus, str(out), 3, kind="bruteforce")


def _dead_shard_loader(dead_path):
    """An ``index_loader`` under which one shard fails every batch."""
    plan = FaultPlan(raise_on=tuple(range(1, 1000)))

    def load(snapshot_path, mmap_points):
        index = load_index(snapshot_path, mmap_points=mmap_points)
        return FaultyIndex(index, plan) if snapshot_path == dead_path else index

    return load


def _threads(name):
    return sum(thread.name == name for thread in threading.enumerate())


class TestIdentity:
    def test_submit_matches_unsharded(self, corpus, manifest):
        reference = BruteForceIndex(corpus)
        generator = np.random.default_rng(5)
        queries = list(generator.normal(size=(12, corpus.shape[1])))
        queries += [corpus[2], corpus[11]]  # duplicated rows: exact ties
        with ShardedIndexServer(manifest, n_workers=0, policy=_FAST) as server:
            assert server.n_points == corpus.shape[0]
            assert server.n_shards == 3
            assert server.kind == "bruteforce"
            futures = [server.submit(q, k=5) for q in queries]
            for query, future in zip(queries, futures):
                expected = reference.query(query, k=5)
                got = future.result(timeout=30)
                assert got.indices.tolist() == expected.indices.tolist()
                assert got.distances.tolist() == expected.distances.tolist()
                assert got.stats == expected.stats
            report = server.stats()
        assert report.n_requests == len(queries)
        # The coordinator's own batches carry every request once, and
        # their stats sum the scans of every shard.
        assert report.n_batches >= 1
        assert sum(
            size * count
            for size, count in report.batch_size_histogram.items()
        ) == len(queries)
        assert report.query_stats.points_scanned == (
            len(queries) * corpus.shape[0]
        )

    def test_query_batch_matches_unsharded(self, corpus, tmp_path):
        reference = KdTreeIndex(corpus)
        man = build_shards(
            corpus, str(tmp_path), 4, kind="kdtree", method="projected"
        )
        queries = np.vstack([corpus[2], corpus[50] * 1.01, corpus[7] - 0.2])
        with ShardedIndexServer(man, n_workers=0) as server:
            merged = server.query_batch(queries, k=6)
            expected = reference.query_batch(queries, k=6)
            assert merged.indices.tolist() == expected.indices.tolist()
            assert merged.distances.tolist() == expected.distances.tolist()

    def test_k_clamped_to_shard_size(self, corpus, tmp_path):
        # k may exceed every shard's local size; the per-shard fan-out
        # must clamp it while the merged answer still honors global k.
        man = build_shards(corpus, str(tmp_path), 16, kind="bruteforce")
        reference = BruteForceIndex(corpus)
        k = corpus.shape[0] // 8  # > ceil(n/16), the largest shard
        with ShardedIndexServer(man, n_workers=0, policy=_FAST) as server:
            got = server.query(corpus[3], k=k)
        expected = reference.query(corpus[3], k=k)
        assert got.indices.tolist() == expected.indices.tolist()


class TestPartialFailurePolicy:
    def test_dead_shard_fails_typed_never_partial(self, corpus, manifest):
        loader = _dead_shard_loader(manifest.shards[1].snapshot_path)
        with ShardedIndexServer(
            manifest, n_workers=0, policy=_FAST, index_loader=loader
        ) as server:
            future = server.submit(corpus[0], k=4)
            with pytest.raises(ShardError) as excinfo:
                future.result(timeout=30)
            assert "shard 1" in str(excinfo.value)
            assert isinstance(excinfo.value.__cause__, InjectedFault)
            report = server.stats()
        assert report.n_failed == 1
        assert report.n_requests == 0

    def test_dead_shard_fails_query_batch(self, corpus, manifest):
        loader = _dead_shard_loader(manifest.shards[2].snapshot_path)
        with ShardedIndexServer(
            manifest, n_workers=0, index_loader=loader
        ) as server:
            with pytest.raises(ShardError, match="shard 2"):
                server.query_batch(corpus[:3], k=2)


class TestDeadlines:
    def test_deadline_releases_future(self, corpus, manifest, busy_loader):
        loader = busy_loader()
        with ShardedIndexServer(
            manifest, n_workers=0, policy=_HOLD, index_loader=loader
        ) as server:
            busy = loader.occupy(server)
            future = server.submit(corpus[0], k=2, deadline_ms=30.0)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            report = server.stats()
            assert report.n_deadline_exceeded == 1
            loader.release()
            busy.result(timeout=30)
        assert server.stats().n_deadline_exceeded == 1

    def test_default_deadline_applies(self, corpus, manifest, busy_loader):
        loader = busy_loader()
        with ShardedIndexServer(
            manifest, n_workers=0, policy=_HOLD, default_deadline_ms=25.0,
            index_loader=loader,
        ) as server:
            loader.occupy(server)
            future = server.submit(corpus[0], k=2)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            loader.release()

    def test_rejects_non_positive_deadline(self, corpus, manifest):
        with ShardedIndexServer(manifest, n_workers=0) as server:
            with pytest.raises(ValueError, match="deadline_ms"):
                server.submit(corpus[0], k=1, deadline_ms=0.0)

    def test_answered_requests_are_not_retained(self, corpus, manifest):
        # The deadline outlives the test, so only forgetting each watch
        # when its future resolves can free the answered requests.
        with ShardedIndexServer(manifest, n_workers=0, policy=_FAST) as server:
            futures = [
                server.submit(row, k=3, deadline_ms=60_000) for row in corpus
            ]
            for future in futures:
                future.result(timeout=30)
            refs = [weakref.ref(future) for future in futures]
            del futures, future
            # Each member's flusher thread still names its latest batch
            # until it flushes the next one.
            server.query(corpus[0], k=3)
            gc.collect()
            alive = sum(ref() is not None for ref in refs)
        assert alive == 0

    def test_explicit_batch_honors_deadline(self, corpus, manifest):
        """query_batch carries the same deadline contract as query."""
        reference = BruteForceIndex(corpus)
        queries = corpus[:4] + 0.1
        with ShardedIndexServer(manifest, n_workers=0) as server:
            # A generous deadline answers normally ...
            batch = server.query_batch(queries, k=2, deadline_ms=60_000)
            expected = reference.query_batch(queries, k=2)
            assert batch.indices.tolist() == expected.indices.tolist()
            assert batch.distances.tolist() == expected.distances.tolist()
            # ... an impossible one raises instead of answering late and
            # is counted once in the coordinator ledger.
            with pytest.raises(DeadlineExceeded):
                server.query_batch(queries, k=2, deadline_ms=1e-6)
            assert server.stats().n_deadline_exceeded == 1
            # Invalid deadlines are rejected like submit rejects them.
            with pytest.raises(ValueError, match="deadline_ms"):
                server.query_batch(queries, k=2, deadline_ms=0)

    def test_explicit_batch_applies_default_deadline(self, corpus, manifest):
        with ShardedIndexServer(
            manifest, n_workers=0, default_deadline_ms=1e-6
        ) as server:
            with pytest.raises(DeadlineExceeded):
                server.query_batch(corpus[:4], k=2)
            assert server.stats().n_deadline_exceeded == 1


class TestCoordinatorAdmission:
    def test_reject_new_sheds_synchronously(
        self, corpus, manifest, busy_loader
    ):
        policy = BatchPolicy(max_batch=10_000, max_pending=2)
        loader = busy_loader()
        with ShardedIndexServer(
            manifest, n_workers=0, policy=policy, index_loader=loader
        ) as server:
            loader.occupy(server)
            held = [server.submit(corpus[i], k=1) for i in range(2)]
            with pytest.raises(ServerOverloaded):
                server.submit(corpus[5], k=1)
            report = server.stats()
            assert report.n_shed == 1
            assert server.n_pending == 2
            for future in held:
                assert not future.done()
            loader.release()

    def test_drop_oldest_fails_oldest_outstanding(
        self, corpus, manifest, busy_loader
    ):
        policy = BatchPolicy(
            max_batch=10_000, max_pending=2, shed_policy="drop-oldest"
        )
        loader = busy_loader()
        with ShardedIndexServer(
            manifest, n_workers=0, policy=policy, index_loader=loader
        ) as server:
            loader.occupy(server)
            oldest = server.submit(corpus[0], k=1)
            second = server.submit(corpus[1], k=1)
            newest = server.submit(corpus[2], k=1)
            with pytest.raises(ServerOverloaded):
                oldest.result(timeout=5)
            assert not second.done()
            assert not newest.done()
            assert server.stats().n_shed == 1
            loader.release()

    def test_rejects_bad_admission_config(self, manifest):
        # Admission is configured on the policy, as for IndexServer; the
        # coordinator-only knobs are gone.
        with pytest.raises(ValueError, match="max_pending"):
            ShardedIndexServer(manifest, policy=BatchPolicy(max_pending=0))
        with pytest.raises(ValueError, match="shed_policy"):
            ShardedIndexServer(
                manifest, policy=BatchPolicy(shed_policy="random")
            )
        for removed in ("max_pending", "shed_policy", "replicas"):
            with pytest.raises(TypeError, match=removed):
                ShardedIndexServer(manifest, **{removed: 1})


class TestLedger:
    def test_every_submission_accounted_once(
        self, corpus, manifest, busy_loader
    ):
        # Mix outcomes: answered, cancelled, shed (drop-oldest), and
        # closed-server failures — the ledger must balance exactly.
        policy = BatchPolicy(
            max_batch=10_000, max_pending=8, shed_policy="drop-oldest"
        )
        loader = busy_loader()
        with ShardedIndexServer(
            manifest, n_workers=0, policy=policy, index_loader=loader
        ) as server:
            busy = loader.occupy(server)
            futures = [server.submit(corpus[i], k=1) for i in range(8)]
            assert futures[1].cancel()
            assert futures[2].cancel()
            # Cancelled futures stay queued, so each of the four
            # overflowing arrivals drops the oldest queued request: two
            # live ones are shed, and the two cancelled ones leave
            # without being counted twice.
            futures += [server.submit(corpus[i], k=1) for i in (8, 9, 10, 11)]
            futures.append(busy)
            loader.release()
            server.close()
            report = server.stats()
        submitted = len(futures)
        accounted = (
            report.n_requests
            + report.n_failed
            + report.n_shed
            + report.n_deadline_exceeded
            + report.n_cancelled
        )
        assert accounted == submitted, report
        assert report.n_cancelled == 2
        assert report.n_shed == 2

    def test_reset_stats_clears_members_too(self, corpus, manifest):
        with ShardedIndexServer(manifest, n_workers=0, policy=_FAST) as server:
            server.query(corpus[0], k=1)
            assert server.stats().n_requests == 1
            server.reset_stats()
            report = server.stats()
            assert report.n_requests == 0
            assert report.n_batches == 0
            assert report.query_stats.points_scanned == 0


class TestLifecycle:
    def test_close_fails_outstanding_and_is_idempotent(
        self, corpus, manifest, busy_loader
    ):
        loader = busy_loader()
        server = ShardedIndexServer(
            manifest, n_workers=0, policy=_HOLD, index_loader=loader
        )
        loader.occupy(server)
        future = server.submit(corpus[0], k=1)
        assert not future.done()
        loader.release()
        server.close()
        server.close()
        assert future.done()
        with pytest.raises(ServerClosedError):
            server.submit(corpus[0], k=1)
        with pytest.raises(ServerClosedError):
            server.query_batch(corpus[:2], k=1)

    def test_validation_matches_unsharded_surface(self, corpus, manifest):
        with ShardedIndexServer(manifest, n_workers=0) as server:
            with pytest.raises(ValueError, match="k must lie"):
                server.submit(corpus[0], k=0)
            with pytest.raises(ValueError, match="k must lie"):
                server.submit(corpus[0], k=corpus.shape[0] + 1)
            with pytest.raises(ValueError, match="1-d vector"):
                server.submit(corpus[:2], k=1)
            with pytest.raises(ValueError, match="finite"):
                server.submit(np.full(corpus.shape[1], np.nan), k=1)

    def test_concurrent_submitters(self, corpus, manifest):
        reference = BruteForceIndex(corpus)
        generator = np.random.default_rng(17)
        queries = generator.normal(size=(24, corpus.shape[1]))
        expected = [reference.query(q, k=3) for q in queries]
        results = [None] * len(queries)
        with ShardedIndexServer(manifest, n_workers=0, policy=_FAST) as server:

            def worker(offset):
                for i in range(offset, len(queries), 3):
                    results[i] = server.query(queries[i], k=3)

            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for got, want in zip(results, expected):
            assert got.indices.tolist() == want.indices.tolist()
            assert got.distances.tolist() == want.distances.tolist()


class TestOnePipeline:
    def test_one_batcher_and_one_reaper_per_server(self, corpus, tmp_path):
        man = build_shards(corpus, str(tmp_path), 4, kind="bruteforce")
        names = ("repro-microbatcher", "repro-deadline-reaper")
        before = [_threads(name) for name in names]
        with ShardedIndexServer(man, n_workers=0, policy=_FAST) as server:
            futures = [
                server.submit(row, k=3, deadline_ms=60_000)
                for row in corpus[:16]
            ]
            for future in futures:
                future.result(timeout=30)
            during = [_threads(name) for name in names]
        assert [d - b for d, b in zip(during, before)] == [1, 1]

    def test_pooled_shards_match_unsharded(self, corpus, manifest):
        reference = BruteForceIndex(corpus)
        generator = np.random.default_rng(13)
        queries = np.vstack(
            [generator.normal(size=(6, corpus.shape[1])), corpus[[2, 11]]]
        )
        with ShardedIndexServer(manifest, n_workers=1, policy=_FAST) as server:
            futures = [server.submit(q, k=5) for q in queries]
            for query, future in zip(queries, futures):
                expected = reference.query(query, k=5)
                got = future.result(timeout=30)
                assert got.indices.tolist() == expected.indices.tolist()
                assert got.distances.tolist() == expected.distances.tolist()
                assert got.stats == expected.stats
            batch = server.query_batch(queries, k=5)
        expected = reference.query_batch(queries, k=5)
        assert batch.indices.tolist() == expected.indices.tolist()
        assert batch.distances.tolist() == expected.distances.tolist()
        assert batch.stats == expected.stats
