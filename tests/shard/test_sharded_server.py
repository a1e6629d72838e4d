"""ShardedIndexServer: identity, routing, failure policy, admission."""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.search import BruteForceIndex, KdTreeIndex
from repro.serve import (
    BatchPolicy,
    DeadlineExceeded,
    ServerClosedError,
    ServerOverloaded,
    ShardError,
)
from repro.shard import ShardedIndexServer, build_shards

# Holds submitted requests in the member batchers indefinitely, so
# admission/deadline/cancellation tests control exactly when work runs.
_HOLD = BatchPolicy(max_batch=10_000, max_wait_ms=3_600_000.0)
_FAST = BatchPolicy(max_batch=8, max_wait_ms=1.0)


@pytest.fixture(scope="module")
def manifest(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("shards")
    return build_shards(corpus, str(out), 3, kind="bruteforce")


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
        # Member micro-batches and scans are folded into the report.
        assert report.n_batches >= server.n_shards
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


class TestReplicaRouting:
    def test_both_replicas_serve_traffic(self, corpus, manifest):
        with ShardedIndexServer(
            manifest, n_workers=0, replicas=2, policy=_FAST
        ) as server:
            generator = np.random.default_rng(9)
            for query in generator.normal(size=(16, corpus.shape[1])):
                server.query(query, k=2)
            reports = server.shard_reports()
        for shard_reports in reports:
            assert len(shard_reports) == 2
            # Least-loaded with a rotating tie-break spreads sequential
            # traffic across replicas instead of pinning one.
            assert all(r.n_requests >= 1 for r in shard_reports)

    def test_least_loaded_prefers_idle_replica(self, corpus, manifest):
        with ShardedIndexServer(
            manifest, n_workers=0, replicas=2, policy=_HOLD
        ) as server:
            member = server._shards[0]
            # Pin load on one replica; the next pick must take the other.
            member.loads[0] = 5
            choice, _ = server._pick_replica(member)
            assert choice == 1
            member.loads[0] = 0
            member.loads[1] -= 1


class TestPartialFailurePolicy:
    def test_dead_shard_fails_typed_never_partial(self, corpus, manifest):
        with ShardedIndexServer(manifest, n_workers=0, policy=_FAST) as server:
            # Kill shard 1's only replica out from under the coordinator.
            server._shards[1].replicas[0].close()
            future = server.submit(corpus[0], k=4)
            with pytest.raises(ShardError) as excinfo:
                future.result(timeout=30)
            assert "shard 1" in str(excinfo.value)
            assert isinstance(excinfo.value.__cause__, ServerClosedError)
            report = server.stats()
        assert report.n_failed == 1
        assert report.n_requests == 0

    def test_dead_shard_fails_query_batch(self, corpus, manifest):
        with ShardedIndexServer(manifest, n_workers=0) as server:
            server._shards[2].replicas[0].close()
            with pytest.raises(ShardError, match="shard 2"):
                server.query_batch(corpus[:3], k=2)

    def test_replica_survives_dead_peer(self, corpus, manifest):
        # With R=2, killing one replica degrades capacity, not answers:
        # the live replica keeps the shard serving bit-identically.
        reference = BruteForceIndex(corpus)
        with ShardedIndexServer(
            manifest, n_workers=0, replicas=2, policy=_FAST
        ) as server:
            dead = server._shards[0].replicas[0]
            dead.close()
            # Route every request away from the closed replica.
            server._shards[0].loads[0] = 10_000
            for query in (corpus[4], corpus[2]):
                got = server.query(query, k=3)
                expected = reference.query(query, k=3)
                assert got.indices.tolist() == expected.indices.tolist()


class TestDeadlines:
    def test_deadline_releases_future(self, corpus, manifest):
        with ShardedIndexServer(manifest, n_workers=0, policy=_HOLD) as server:
            future = server.submit(corpus[0], k=2, deadline_ms=30.0)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            report = server.stats()
            assert report.n_deadline_exceeded == 1
        assert server.stats().n_deadline_exceeded == 1

    def test_default_deadline_applies(self, corpus, manifest):
        with ShardedIndexServer(
            manifest, n_workers=0, policy=_HOLD, default_deadline_ms=25.0
        ) as server:
            future = server.submit(corpus[0], k=2)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)

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
    def test_reject_new_sheds_synchronously(self, corpus, manifest):
        with ShardedIndexServer(
            manifest, n_workers=0, policy=_HOLD, max_pending=2
        ) as server:
            held = [server.submit(corpus[i], k=1) for i in range(2)]
            with pytest.raises(ServerOverloaded):
                server.submit(corpus[5], k=1)
            report = server.stats()
            assert report.n_shed == 1
            assert server.n_pending == 2
            for future in held:
                assert not future.done()

    def test_drop_oldest_fails_oldest_outstanding(self, corpus, manifest):
        with ShardedIndexServer(
            manifest,
            n_workers=0,
            policy=_HOLD,
            max_pending=2,
            shed_policy="drop-oldest",
        ) as server:
            oldest = server.submit(corpus[0], k=1)
            second = server.submit(corpus[1], k=1)
            newest = server.submit(corpus[2], k=1)
            with pytest.raises(ServerOverloaded):
                oldest.result(timeout=5)
            assert not second.done()
            assert not newest.done()
            assert server.stats().n_shed == 1

    def test_rejects_bad_admission_config(self, manifest):
        with pytest.raises(ValueError, match="max_pending"):
            ShardedIndexServer(manifest, max_pending=0)
        with pytest.raises(ValueError, match="shed_policy"):
            ShardedIndexServer(manifest, shed_policy="random")
        with pytest.raises(ValueError, match="replicas"):
            ShardedIndexServer(manifest, replicas=0)


class TestLedger:
    def test_every_submission_accounted_once(self, corpus, manifest):
        # Mix outcomes: answered, cancelled, shed (drop-oldest), and
        # closed-server failures — the ledger must balance exactly.
        with ShardedIndexServer(
            manifest,
            n_workers=0,
            policy=_HOLD,
            max_pending=8,
            shed_policy="drop-oldest",
        ) as server:
            futures = [server.submit(corpus[i], k=1) for i in range(8)]
            assert futures[1].cancel()
            assert futures[2].cancel()
            # Cancelled futures leave the admission queue immediately, so
            # two more fit under the bound; the two after that overflow
            # it and shed the two oldest live requests.
            futures += [server.submit(corpus[i], k=1) for i in (8, 9, 10, 11)]
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
            assert all(
                r.n_requests == 0
                for reports in server.shard_reports()
                for r in reports
            )


class TestLifecycle:
    def test_close_fails_outstanding_and_is_idempotent(self, corpus, manifest):
        server = ShardedIndexServer(manifest, n_workers=0, policy=_HOLD)
        future = server.submit(corpus[0], k=1)
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
