"""Mutable serving: every answer bit-identical to a fresh rebuild.

The :class:`MutableIndexServer` contract is absolute — at *every*
instant of an insert/delete stream, ``query``/``query_batch`` answer
exactly like ``build_index(kind, live_rows)`` with local indices mapped
to global ids: same neighbors, same bit-identical distances, same
(distance, lower id) tie-break.  These tests drive seeded streams and
check that identity at every step, through manual and size-triggered
compactions, across the hot swap with queries in flight, after drift
rebuilds, and across a restart-resume.  The failure paths are loud:
non-exact kinds refused at construction, stale row ids refused,
double-deletes raise, and an emptied rowset refuses to compact.
"""

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.serve import MutableIndexServer, MutationError, WorkerPool
from repro.serve.errors import ServerClosedError
from repro.serve.mutation import live_reference_index
from repro.serve.server import _InlineIndex


def _assert_matches_reference(server, probes, k=3):
    """Every probe answered identically to a fresh rebuild, bit for bit."""
    reference, live_ids = live_reference_index(server)
    k = min(k, server.n_live)
    for probe in probes:
        served = server.query(probe, k)
        expected = reference.query(probe, k)
        assert [n.index for n in served.neighbors] == [
            int(live_ids[n.index]) for n in expected.neighbors
        ]
        assert [n.distance for n in served.neighbors] == [
            n.distance for n in expected.neighbors
        ]


def _assert_batch_matches_reference(server, probes, k=4):
    """``query_batch`` answered identically to a fresh rebuild."""
    reference, live_ids = live_reference_index(server)
    k = min(k, server.n_live)
    batch = server.query_batch(probes, k)
    expected = reference.query_batch(probes, k)
    for served, want in zip(batch.results, expected.results):
        assert [n.index for n in served.neighbors] == [
            int(live_ids[n.index]) for n in want.neighbors
        ]
        assert [n.distance for n in served.neighbors] == [
            n.distance for n in want.neighbors
        ]


def _threads(name):
    return sum(thread.name == name for thread in threading.enumerate())


@pytest.fixture
def data():
    rng = np.random.default_rng(11)
    corpus = rng.standard_normal((40, 5))
    probes = rng.standard_normal((6, 5))
    return corpus, probes, rng


class TestIdentityThroughMutation:
    @pytest.mark.parametrize("kind", ["bruteforce", "kdtree", "vafile"])
    def test_identity_at_every_step(self, tmp_path, data, kind):
        corpus, probes, rng = data
        with MutableIndexServer(
            os.path.join(tmp_path, kind), corpus, kind=kind
        ) as server:
            live = set(range(40))
            for step in range(30):
                op = rng.random()
                if op < 0.5 or len(live) < 5:
                    live.add(server.insert(rng.standard_normal(5)))
                else:
                    victim = int(rng.choice(sorted(live)))
                    server.delete(victim)
                    live.discard(victim)
                assert server.n_live == len(live)
                _assert_matches_reference(server, probes)

    def test_identity_across_manual_compaction(self, tmp_path, data):
        corpus, probes, rng = data
        with MutableIndexServer(
            os.path.join(tmp_path, "c"), corpus, kind="kdtree"
        ) as server:
            for _ in range(10):
                server.insert(rng.standard_normal(5))
            server.delete(3)
            server.delete(41)  # a memtable row
            assert server.generation_id == 0
            info = server.compact()
            assert info.generation_id == 1
            assert server.generation_id == 1
            assert server.memtable_ops == 0
            assert server.n_live == 40 + 10 - 2
            _assert_matches_reference(server, probes)
            # Mutations keep flowing after the swap.
            server.insert(rng.standard_normal(5))
            server.delete(0)
            _assert_matches_reference(server, probes)

    def test_queries_in_flight_across_hot_swap(self, tmp_path, data):
        """The swap never drops or mis-answers concurrent queries."""
        corpus, probes, rng = data
        with MutableIndexServer(
            os.path.join(tmp_path, "swap"), corpus, kind="bruteforce"
        ) as server:
            for _ in range(12):
                server.insert(rng.standard_normal(5))
            server.delete(5)
            reference, live_ids = live_reference_index(server)
            expected = [
                [
                    (int(live_ids[n.index]), n.distance)
                    for n in reference.query(probe, 3).neighbors
                ]
                for probe in probes
            ]
            errors, answers = [], []

            def hammer():
                try:
                    local = []
                    for _ in range(5):
                        for probe in probes:
                            result = server.query(probe, 3)
                            local.append([
                                (n.index, n.distance)
                                for n in result.neighbors
                            ])
                    answers.append(local)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=hammer) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            server.compact()
            for thread in threads:
                thread.join()
            assert not errors
            for local in answers:
                for got, want in zip(local, expected * 5):
                    assert got == want

    def test_query_batch_identity(self, tmp_path, data):
        corpus, probes, rng = data
        with MutableIndexServer(
            os.path.join(tmp_path, "b"), corpus, kind="bruteforce"
        ) as server:
            for _ in range(6):
                server.insert(rng.standard_normal(5))
            server.delete(1)
            reference, live_ids = live_reference_index(server)
            batch = server.query_batch(probes, 4)
            expected = reference.query_batch(probes, 4)
            for served, want in zip(batch.results, expected.results):
                assert [n.index for n in served.neighbors] == [
                    int(live_ids[n.index]) for n in want.neighbors
                ]
                assert [n.distance for n in served.neighbors] == [
                    n.distance for n in want.neighbors
                ]

    def test_query_batch_honors_deadline(self, tmp_path, data):
        """Satellite of the deadline contract: batches enforce it too."""
        from repro.serve.errors import DeadlineExceeded

        corpus, probes, _ = data
        with MutableIndexServer(
            os.path.join(tmp_path, "bd"), corpus, kind="bruteforce"
        ) as server:
            batch = server.query_batch(probes, 3, deadline_ms=60_000)
            assert len(batch.results) == probes.shape[0]
            with pytest.raises(DeadlineExceeded):
                server.query_batch(probes, 3, deadline_ms=1e-6)
            with pytest.raises(ValueError, match="deadline_ms"):
                server.query_batch(probes, 3, deadline_ms=-5)

    def test_size_triggered_compaction(self, tmp_path, data):
        corpus, probes, rng = data
        with MutableIndexServer(
            os.path.join(tmp_path, "auto"),
            corpus,
            kind="bruteforce",
            compact_threshold=8,
        ) as server:
            for _ in range(30):
                server.insert(rng.standard_normal(5))
                _assert_matches_reference(server, probes[:2])
            deadline = threading.Event()
            for _ in range(100):
                if server.n_compactions >= 1:
                    break
                deadline.wait(0.05)
            assert server.n_compactions >= 1
            assert server.store.active().reason == "size"
            _assert_matches_reference(server, probes)


class TestOnePipeline:
    def test_pooled_identity_across_compaction(self, tmp_path, data):
        """A worker-pool base is pinned, drained and closed across swaps."""
        corpus, probes, rng = data
        with MutableIndexServer(
            os.path.join(tmp_path, "pool"), corpus, kind="kdtree",
            n_workers=1,
        ) as server:
            for _ in range(6):
                server.insert(rng.standard_normal(5))
            server.delete(2)
            _assert_matches_reference(server, probes)
            server.compact()
            _assert_matches_reference(server, probes)
            server.delete(5)  # a base row of the new generation
            _assert_matches_reference(server, probes)
        assert multiprocessing.active_children() == []

    def test_pooled_batches_in_flight_across_hot_swap(self, tmp_path, data):
        """Batches merged on the pool's thread release the old view."""
        corpus, probes, rng = data
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MutableIndexServer(
                os.path.join(tmp_path, "swap"), corpus, n_workers=1
            ) as server:
                for _ in range(6):
                    server.insert(rng.standard_normal(5))
                server.delete(4)
                reference, live_ids = live_reference_index(server)
                expected = [
                    [
                        (int(live_ids[n.index]), n.distance)
                        for n in reference.query(probe, 3).neighbors
                    ]
                    for probe in probes
                ]
                submitted = []

                def hammer():
                    submitted.extend(
                        (row, server.submit(probes[row], 3))
                        for _ in range(5)
                        for row in range(len(probes))
                    )

                threads = [threading.Thread(target=hammer) for _ in range(4)]
                for thread in threads:
                    thread.start()
                server.compact()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                for row, future in submitted:
                    got = future.result(timeout=60)
                    assert [
                        (n.index, n.distance) for n in got.neighbors
                    ] == expected[row]
                assert len(submitted) == 4 * 5 * len(probes)
                assert server.generation_id == 1
        finally:
            sys.setswitchinterval(previous)

    def test_one_batcher_and_one_reaper_across_compaction(
        self, tmp_path, data
    ):
        corpus, probes, rng = data
        names = ("repro-microbatcher", "repro-deadline-reaper")
        before = [_threads(name) for name in names]
        with MutableIndexServer(
            os.path.join(tmp_path, "one"), corpus
        ) as server:
            server.query(probes[0], 3, deadline_ms=60_000)
            server.insert(rng.standard_normal(5))
            server.compact()
            server.query(probes[1], 3, deadline_ms=60_000)
            during = [_threads(name) for name in names]
        assert [d - b for d, b in zip(during, before)] == [1, 1]

    def test_ledger_survives_compaction(self, tmp_path, data):
        corpus, probes, rng = data
        with MutableIndexServer(
            os.path.join(tmp_path, "ledger"), corpus
        ) as server:
            for probe in probes[:5]:
                server.query(probe, 3)
            server.insert(rng.standard_normal(5))
            server.compact()
            for probe in probes[:5]:
                server.query(probe, 3)
            assert server.stats().n_requests == 10


class TestMaskedBase:
    """Deleted base rows: a masked scan for brute force and projscreen.

    Those kinds answer the base over its live rows, so the base is
    asked for ``k`` however many rows are deleted; the other exact
    kinds are asked for ``k`` plus the dead base rows.  Either way the
    answer must stay identical to a fresh rebuild, including when the
    base holds fewer live rows than ``k``.
    """

    @pytest.mark.parametrize("n_workers", [0, 1])
    @pytest.mark.parametrize("kind", ["bruteforce", "projscreen"])
    def test_identity_where_the_base_runs_short(
        self, tmp_path, data, kind, n_workers
    ):
        corpus, probes, rng = data
        root = os.path.join(tmp_path, f"{kind}-{n_workers}")
        k = 5
        with MutableIndexServer(
            root, corpus, kind=kind, n_workers=n_workers
        ) as server:
            for _ in range(6):
                server.insert(rng.standard_normal(5))
            server.delete(41)  # a memtable row
            # Leave 3 of the 40 base rows live, fewer than k.
            for victim in range(37):
                server.delete(victim)
                if victim % 12 == 0:
                    _assert_matches_reference(server, probes, k)
            assert server.n_live == 3 + 5
            _assert_matches_reference(server, probes, k)
            _assert_batch_matches_reference(server, probes, k)
            server.compact()
            _assert_matches_reference(server, probes, k)
            # The new base holds 8 rows; run it short again, plus a
            # fresh memtable row and its delete, then resume from the
            # log alone.
            for victim in (37, 38, 40, 42):
                server.delete(victim)
            gid = server.insert(rng.standard_normal(5))
            server.insert(rng.standard_normal(5))
            server.delete(gid)
            _assert_matches_reference(server, probes, k)
            _assert_batch_matches_reference(server, probes, k)
            expected = [
                [(n.index, n.distance) for n in server.query(p, k).neighbors]
                for p in probes
            ]
        with MutableIndexServer(
            root, kind=kind, n_workers=n_workers
        ) as server:
            assert server.n_live == 4 + 1
            assert server.memtable_ops == 4 + 2 + 1
            got = [
                [(n.index, n.distance) for n in server.query(p, k).neighbors]
                for p in probes
            ]
            assert got == expected
            _assert_matches_reference(server, probes, k)
            _assert_batch_matches_reference(server, probes, k)

    @pytest.mark.parametrize("n_workers", [0, 1])
    @pytest.mark.parametrize(
        "kind, widened", [("bruteforce", 0), ("projscreen", 0), ("kdtree", 10)]
    )
    def test_base_is_asked_for_k(
        self, tmp_path, data, monkeypatch, kind, widened, n_workers
    ):
        corpus, probes, rng = data
        asked = []
        backend = WorkerPool if n_workers else _InlineIndex
        submit = backend.submit

        def spy(self, queries, k, **kwargs):
            asked.append(k)
            return submit(self, queries, k, **kwargs)

        monkeypatch.setattr(backend, "submit", spy)
        with MutableIndexServer(
            os.path.join(tmp_path, kind), corpus, kind=kind,
            n_workers=n_workers,
        ) as server:
            for victim in range(10):
                server.delete(victim)
            server.delete(server.insert(rng.standard_normal(5)))
            asked.clear()
            server.query(probes[0], 3)
            server.query_batch(probes, 4)
            _assert_matches_reference(server, probes)
        # Ten dead base rows: a kind without a masked scan still widens
        # by them; the dead memtable row never reaches the base.
        assert asked[:2] == [3 + widened, 4 + widened]


class TestDrift:
    def test_drift_compaction_fires_and_stays_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        scales = np.array([2.0, 1.0, 0.2, 0.1])
        corpus = rng.standard_normal((60, 4)) * scales
        probes = rng.standard_normal((4, 4)) * scales
        with MutableIndexServer(
            os.path.join(tmp_path, "drift"),
            corpus,
            kind="projscreen",
            index_kwargs={"subspace_dim": 2},
            drift_threshold=0.85,
        ) as server:
            # Rotate the insert distribution so the frozen basis stops
            # capturing the live energy and the monitor trips.
            for _ in range(60):
                server.insert(rng.standard_normal(4) * scales[::-1])
            for _ in range(200):
                if server.n_drift_compactions >= 1:
                    break
                threading.Event().wait(0.05)
            assert server.n_drift_compactions >= 1
            _assert_matches_reference(server, probes)

    def test_drift_threshold_requires_projscreen(self, tmp_path, data):
        corpus, _, _ = data
        with pytest.raises(MutationError, match="projscreen"):
            MutableIndexServer(
                os.path.join(tmp_path, "x"),
                corpus,
                kind="kdtree",
                drift_threshold=0.9,
            )


class TestRejection:
    @pytest.mark.parametrize("kind", ["lsh", "igrid"])
    def test_non_exact_kinds_refused(self, tmp_path, data, kind):
        corpus, _, _ = data
        with pytest.raises(MutationError, match="exact"):
            MutableIndexServer(
                os.path.join(tmp_path, kind), corpus, kind=kind
            )

    def test_unknown_kind_refused(self, tmp_path, data):
        corpus, _, _ = data
        with pytest.raises(ValueError, match="unknown index kind"):
            MutableIndexServer(
                os.path.join(tmp_path, "u"), corpus, kind="btree"
            )

    def test_stale_row_id_refused(self, tmp_path, data):
        corpus, _, _ = data
        with MutableIndexServer(
            os.path.join(tmp_path, "s"), corpus
        ) as server:
            with pytest.raises(MutationError, match="not fresh"):
                server.insert(np.zeros(5), row_id=10)

    def test_delete_unknown_and_double(self, tmp_path, data):
        corpus, _, rng = data
        with MutableIndexServer(
            os.path.join(tmp_path, "d"), corpus
        ) as server:
            with pytest.raises(KeyError, match="unknown row id"):
                server.delete(999)
            server.delete(7)
            with pytest.raises(KeyError, match="already deleted"):
                server.delete(7)
            gid = server.insert(rng.standard_normal(5))
            server.delete(gid)
            with pytest.raises(KeyError, match="already deleted"):
                server.delete(gid)

    def test_compacting_empty_rowset_refused(self, tmp_path):
        corpus = np.ones((2, 3))
        with MutableIndexServer(
            os.path.join(tmp_path, "e"), corpus
        ) as server:
            server.delete(0)
            server.delete(1)
            with pytest.raises(MutationError, match="empty rowset"):
                server.compact()

    def test_closed_server_refuses_queries(self, tmp_path, data):
        corpus, _, _ = data
        server = MutableIndexServer(os.path.join(tmp_path, "z"), corpus)
        server.close()
        server.close()  # idempotent
        with pytest.raises(ServerClosedError):
            server.query(np.zeros(5), 1)
        with pytest.raises(ServerClosedError):
            server.insert(np.zeros(5))


class TestResume:
    def test_resume_continues_id_sequence(self, tmp_path, data):
        corpus, probes, rng = data
        root = os.path.join(tmp_path, "r")
        with MutableIndexServer(root, corpus, kind="kdtree") as server:
            first = server.insert(rng.standard_normal(5))
            assert first == 40
            server.delete(2)
            server.compact()
        with MutableIndexServer(root, kind="kdtree") as server:
            assert server.n_live == 40
            assert server.generation_id == 1
            # Ids never reuse: the next insert continues the sequence.
            assert server.insert(rng.standard_normal(5)) == 41
            _assert_matches_reference(server, probes)

    def test_resume_replays_uncompacted_memtable(self, tmp_path, data):
        """No compact before shutdown: the WAL alone restores the delta."""
        corpus, probes, rng = data
        root = os.path.join(tmp_path, "w")
        with MutableIndexServer(root, corpus, kind="kdtree") as server:
            for _ in range(7):
                server.insert(rng.standard_normal(5))
            server.delete(3)
            server.delete(42)
            assert server.wal_appends == 9
            expected = [
                [(n.index, n.distance) for n in
                 server.query(probe, 3).neighbors]
                for probe in probes
            ]
        with MutableIndexServer(root, kind="kdtree") as server:
            assert server.generation_id == 0
            assert server.n_live == 45
            assert server.memtable_ops == 9
            assert server.next_row_id == 47
            got = [
                [(n.index, n.distance) for n in
                 server.query(probe, 3).neighbors]
                for probe in probes
            ]
            assert got == expected
            _assert_matches_reference(server, probes)
            # The sequence continues past replayed ids, never reusing.
            assert server.insert(rng.standard_normal(5)) == 47

    def test_resume_replay_respects_size_trigger(self, tmp_path, data):
        """A replayed memtable over the threshold compacts immediately."""
        corpus, _, rng = data
        root = os.path.join(tmp_path, "t")
        with MutableIndexServer(root, corpus) as server:
            for _ in range(6):
                server.insert(rng.standard_normal(5))
        with MutableIndexServer(
            root, compact_threshold=4
        ) as server:
            deadline = threading.Event()
            for _ in range(100):
                if server.n_compactions >= 1:
                    break
                deadline.wait(0.05)
            assert server.n_compactions >= 1
            assert server.memtable_ops == 0

    def test_resume_rejects_kind_mismatch_and_reseed(self, tmp_path, data):
        corpus, _, _ = data
        root = os.path.join(tmp_path, "m")
        with MutableIndexServer(root, corpus, kind="kdtree"):
            pass
        with pytest.raises(MutationError, match="kind"):
            MutableIndexServer(root, kind="bruteforce")
        with pytest.raises(MutationError, match="already initialized"):
            MutableIndexServer(root, corpus, kind="kdtree")

    def test_fresh_root_requires_points(self, tmp_path):
        with pytest.raises(MutationError, match="points="):
            MutableIndexServer(os.path.join(tmp_path, "f"))

    def test_generations_pruned(self, tmp_path, data):
        corpus, _, rng = data
        root = os.path.join(tmp_path, "p")
        with MutableIndexServer(root, corpus) as server:
            for _ in range(4):
                server.insert(rng.standard_normal(5))
                server.compact()
            kept = [g.generation_id for g in server.store.generations()]
            assert len(kept) == 2
            assert server.generation_id == kept[-1]
