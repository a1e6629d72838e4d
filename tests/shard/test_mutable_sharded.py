"""Sharded mutable serving: the global merge equals one fresh index.

:class:`MutableShardedServer` partitions the live rowset over per-shard
memtable backends by ``row_id % n_shards`` and re-selects
the global top-k by ``(distance, global id)``.  Because the members
partition the rowset exactly, the merged answer must be bit-identical
to a single index freshly built over all live rows — these tests drive
mutation streams and check that at every step, plus the routing rules
(coordinator-allocated ids, owner-routed deletes), per-member
compaction, and restart-resume with id continuation.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.search.registry import build_index
from repro.serve import DeadlineExceeded, MutationError, ServerClosedError
from repro.shard import MutableShardedServer


def _live_state(corpus_rows):
    """(rows, ids) of the live rowset in ascending global-id order."""
    ids = sorted(corpus_rows)
    rows = np.array([corpus_rows[gid] for gid in ids])
    return rows, ids


def _assert_matches_fresh(server, corpus_rows, probes, k=3):
    rows, ids = _live_state(corpus_rows)
    reference = build_index(server.kind, rows)
    k = min(k, len(ids))
    for probe in probes:
        served = server.query(probe, k)
        expected = reference.query(probe, k)
        assert [n.index for n in served.neighbors] == [
            ids[n.index] for n in expected.neighbors
        ]
        assert [n.distance for n in served.neighbors] == [
            n.distance for n in expected.neighbors
        ]


def _assert_batch_matches_fresh(server, corpus_rows, probes, k=4):
    rows, ids = _live_state(corpus_rows)
    batch = server.query_batch(probes, k)
    expected = build_index(server.kind, rows).query_batch(probes, k)
    for served, want in zip(batch.results, expected.results):
        assert [n.index for n in served.neighbors] == [
            ids[n.index] for n in want.neighbors
        ]
        assert [n.distance for n in served.neighbors] == [
            n.distance for n in want.neighbors
        ]


def _threads(name):
    return sum(thread.name == name for thread in threading.enumerate())


@pytest.fixture
def data():
    rng = np.random.default_rng(23)
    corpus = rng.standard_normal((30, 4))
    probes = rng.standard_normal((5, 4))
    return corpus, probes, rng


class TestShardedIdentity:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_identity_through_mutation(self, tmp_path, data, n_shards):
        corpus, probes, rng = data
        live = {gid: corpus[gid] for gid in range(30)}
        with MutableShardedServer(
            os.path.join(tmp_path, f"s{n_shards}"),
            corpus,
            n_shards=n_shards,
            kind="kdtree",
        ) as server:
            assert server.n_live == 30
            _assert_matches_fresh(server, live, probes)
            for step in range(20):
                if rng.random() < 0.6 or len(live) < 5:
                    row = rng.standard_normal(4)
                    gid = server.insert(row)
                    assert gid not in live  # ids never reuse
                    live[gid] = row
                else:
                    victim = int(rng.choice(sorted(live)))
                    server.delete(victim)
                    del live[victim]
                assert server.n_live == len(live)
                _assert_matches_fresh(server, live, probes)

    def test_identity_across_compact_all(self, tmp_path, data):
        corpus, probes, rng = data
        live = {gid: corpus[gid] for gid in range(30)}
        with MutableShardedServer(
            os.path.join(tmp_path, "c"), corpus, n_shards=2
        ) as server:
            for _ in range(8):
                row = rng.standard_normal(4)
                live[server.insert(row)] = row
            server.delete(4)
            del live[4]
            server.compact_all()
            assert all(
                member.memtable_ops == 0 for member in server.members
            )
            _assert_matches_fresh(server, live, probes)

    def test_query_batch_identity(self, tmp_path, data):
        corpus, probes, rng = data
        live = {gid: corpus[gid] for gid in range(30)}
        with MutableShardedServer(
            os.path.join(tmp_path, "b"), corpus, n_shards=3
        ) as server:
            for _ in range(5):
                row = rng.standard_normal(4)
                live[server.insert(row)] = row
            server.delete(0)
            del live[0]
            rows, ids = _live_state(live)
            reference = build_index("bruteforce", rows)
            batch = server.query_batch(probes, 4)
            expected = reference.query_batch(probes, 4)
            for served, want in zip(batch.results, expected.results):
                assert [n.index for n in served.neighbors] == [
                    ids[n.index] for n in want.neighbors
                ]
                assert [n.distance for n in served.neighbors] == [
                    n.distance for n in want.neighbors
                ]


class TestRoutingRules:
    def test_round_robin_ownership(self, tmp_path, data):
        corpus, _, rng = data
        with MutableShardedServer(
            os.path.join(tmp_path, "o"), corpus, n_shards=3
        ) as server:
            # Seed rows land on shard gid % 3 …
            counts = [member.n_live for member in server.members]
            assert counts == [10, 10, 10]
            assert server.owner_of(7) == 1
            # … and a new insert continues both the id sequence and
            # the round-robin placement.
            gid = server.insert(rng.standard_normal(4))
            assert gid == 30
            assert server.members[0].n_live == 11

    def test_delete_routed_to_owner(self, tmp_path, data):
        corpus, _, _ = data
        with MutableShardedServer(
            os.path.join(tmp_path, "d"), corpus, n_shards=3
        ) as server:
            server.delete(7)
            assert server.members[1].n_live == 9
            with pytest.raises(KeyError):
                server.delete(7)

    def test_more_shards_than_rows_refused(self, tmp_path):
        with pytest.raises(MutationError, match="seed row"):
            MutableShardedServer(
                os.path.join(tmp_path, "x"),
                np.ones((2, 3)),
                n_shards=5,
            )

    def test_non_exact_kind_refused(self, tmp_path, data):
        corpus, _, _ = data
        with pytest.raises(MutationError, match="exact"):
            MutableShardedServer(
                os.path.join(tmp_path, "l"), corpus, kind="lsh"
            )


def _slowed(method, seconds):
    def wrapper(*args, **kwargs):
        time.sleep(seconds)
        return method(*args, **kwargs)

    return wrapper


class TestServingContracts:
    def test_deadline_bounds_the_whole_fan_out(self, tmp_path, data):
        corpus, probes, _ = data
        with MutableShardedServer(
            os.path.join(tmp_path, "t"), corpus, n_shards=3
        ) as server:
            # Each member alone fits the 100 ms budget; three in a row
            # do not.  A member's batch entry point is its submit.
            for member in server.members:
                member.submit = _slowed(member.submit, 0.06)
            with pytest.raises(DeadlineExceeded):
                server.query(probes[0], 3, deadline_ms=100)
            with pytest.raises(DeadlineExceeded):
                server.query_batch(probes, 3, deadline_ms=100)
            answered = server.query(probes[0], 3, deadline_ms=60_000)
            assert len(answered.neighbors) == 3

    def test_closed_server_raises_server_closed(self, tmp_path, data):
        corpus, probes, rng = data
        server = MutableShardedServer(
            os.path.join(tmp_path, "c"), corpus, n_shards=2
        )
        server.close()
        with pytest.raises(ServerClosedError):
            server.insert(rng.standard_normal(4))
        with pytest.raises(ServerClosedError):
            server.delete(0)
        with pytest.raises(ServerClosedError):
            server.query(probes[0], 1)


class TestOnePipeline:
    def test_one_batcher_and_one_reaper(self, tmp_path, data):
        corpus, probes, _ = data
        names = ("repro-microbatcher", "repro-deadline-reaper")
        before = [_threads(name) for name in names]
        with MutableShardedServer(
            os.path.join(tmp_path, "one"), corpus, n_shards=3
        ) as server:
            for probe in probes:
                server.query(probe, 3, deadline_ms=60_000)
            during = [_threads(name) for name in names]
        assert [d - b for d, b in zip(during, before)] == [1, 1]

    def test_ledger_counts_every_answered_request(self, tmp_path, data):
        corpus, probes, rng = data
        with MutableShardedServer(
            os.path.join(tmp_path, "ledger"), corpus, n_shards=3
        ) as server:
            for probe in probes:
                server.query(probe, 3)
            server.insert(rng.standard_normal(4))
            server.compact_all()
            for probe in probes:
                server.query(probe, 3)
            assert server.stats().n_requests == 2 * len(probes)

    def test_pooled_query_batch_identity(self, tmp_path, data):
        corpus, probes, rng = data
        live = {gid: corpus[gid] for gid in range(30)}
        with MutableShardedServer(
            os.path.join(tmp_path, "pool"), corpus, n_shards=3,
            n_workers=1,
        ) as server:
            for _ in range(5):
                row = rng.standard_normal(4)
                live[server.insert(row)] = row
            server.delete(0)
            del live[0]
            _assert_batch_matches_fresh(server, live, probes)
            server.compact_all()
            _assert_batch_matches_fresh(server, live, probes)
        assert multiprocessing.active_children() == []


class TestMaskedMemberBases:
    @pytest.mark.parametrize("n_workers", [0, 1])
    @pytest.mark.parametrize("kind", ["bruteforce", "projscreen"])
    def test_identity_where_member_bases_run_short(
        self, tmp_path, data, kind, n_workers
    ):
        """Each member's base holds fewer live rows than ``k``.

        Brute force and projscreen members answer their bases through a
        masked scan, asked for ``k``; the merged answer must still equal
        one fresh index over every live row, before and after
        compaction and across a resume from the logs.
        """
        corpus, probes, rng = data
        root = os.path.join(tmp_path, f"{kind}-{n_workers}")
        live = {gid: corpus[gid] for gid in range(30)}
        k = 4
        with MutableShardedServer(
            root, corpus, n_shards=3, kind=kind, n_workers=n_workers
        ) as server:
            for _ in range(6):
                row = rng.standard_normal(4)
                live[server.insert(row)] = row
            # Each member keeps 1 of its 10 seed rows live.
            for victim in range(27):
                server.delete(victim)
                del live[victim]
                if victim % 9 == 0:
                    _assert_matches_fresh(server, live, probes, k)
            _assert_matches_fresh(server, live, probes, k)
            _assert_batch_matches_fresh(server, live, probes, k)
            server.compact_all()
            _assert_batch_matches_fresh(server, live, probes, k)
            for victim in (27, 30, 31):
                server.delete(victim)
                del live[victim]
            _assert_matches_fresh(server, live, probes, k)
        with MutableShardedServer(
            root, n_shards=3, kind=kind, n_workers=n_workers
        ) as server:
            assert server.n_live == len(live)
            _assert_matches_fresh(server, live, probes, k)
            _assert_batch_matches_fresh(server, live, probes, k)


class TestShardedResume:
    def test_resume_continues_global_ids(self, tmp_path, data):
        corpus, probes, rng = data
        root = os.path.join(tmp_path, "r")
        live = {gid: corpus[gid] for gid in range(30)}
        with MutableShardedServer(root, corpus, n_shards=2) as server:
            row = rng.standard_normal(4)
            gid = server.insert(row)
            assert gid == 30
            live[gid] = row
            server.delete(1)
            del live[1]
            server.compact_all()  # persist memtables before shutdown
        with MutableShardedServer(root, n_shards=2) as server:
            assert server.n_live == 30
            row = rng.standard_normal(4)
            gid = server.insert(row)
            assert gid == 31
            live[gid] = row
            _assert_matches_fresh(server, live, probes)
