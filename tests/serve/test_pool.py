"""Worker pool: correctness over IPC, crash restart, fatal snapshots."""

import os
import signal
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.search.bruteforce import BruteForceIndex
from repro.search.snapshot import SnapshotError, load_index, write_snapshot
from repro.serve import (
    DeadlineExceeded,
    FaultPlan,
    FaultyLoader,
    WorkerError,
    WorkerPool,
)


def wait_for(predicate, timeout=10.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.fixture(scope="module")
def corpus():
    return np.random.default_rng(7).normal(size=(120, 5))


@pytest.fixture(scope="module")
def snapshot(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "bruteforce.npz"
    BruteForceIndex(corpus).save(str(path))
    return str(path)


def assert_matches_local(corpus, batch, queries, k):
    local = BruteForceIndex(corpus).query_batch(queries, k=k)
    assert len(batch) == len(local)
    for got, expected in zip(batch, local):
        assert tuple(got.indices.tolist()) == tuple(expected.indices.tolist())
        assert tuple(got.distances.tolist()) == tuple(
            expected.distances.tolist()
        )
        assert got.stats == expected.stats


class _DiesOnMask:
    """An index whose process exits when asked for a masked view."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.n_points = inner.n_points

    def query_batch(self, queries, k=1):
        return self._inner.query_batch(queries, k=k)

    def with_live(self, live):
        os._exit(3)


@dataclass(frozen=True)
class _FirstWorkerDiesOnMask:
    """Loader: the first worker to claim ``marker_path`` gets _DiesOnMask."""

    marker_path: str

    def __call__(self, snapshot_path, mmap_points):
        index = load_index(snapshot_path, mmap_points=mmap_points)
        try:
            with open(self.marker_path, "x"):
                pass
        except FileExistsError:
            return index
        return _DiesOnMask(index)


class TestSubmission:
    def test_batch_matches_local_query_batch(self, corpus, snapshot, rng):
        queries = rng.normal(size=(9, 5))
        with WorkerPool(snapshot, 1) as pool:
            batch = pool.submit(queries, 3).result(timeout=30)
        assert_matches_local(corpus, batch, queries, 3)

    def test_many_batches_across_two_workers(self, corpus, snapshot, rng):
        batches = [rng.normal(size=(4, 5)) for _ in range(10)]
        with WorkerPool(snapshot, 2) as pool:
            futures = [pool.submit(b, 2) for b in batches]
            results = [f.result(timeout=30) for f in futures]
        for queries, batch in zip(batches, results):
            assert_matches_local(corpus, batch, queries, 2)

    def test_worker_side_validation_error_surfaces(self, snapshot, rng):
        with WorkerPool(snapshot, 1) as pool:
            future = pool.submit(rng.normal(size=(3, 9)), 2)  # wrong width
            with pytest.raises(WorkerError, match="ValueError"):
                future.result(timeout=30)

    def test_masked_batch_matches_local_view(self, corpus, snapshot, rng):
        queries = rng.normal(size=(6, 5))
        live = rng.random(corpus.shape[0]) < 0.3
        with WorkerPool(snapshot, 1) as pool:
            batch = pool.submit(queries, 4, live=live).result(timeout=30)
            short = pool.submit(queries, 4, live=live[:-1])
            with pytest.raises(WorkerError, match=r"boolean \(120,\) mask"):
                short.result(timeout=30)
        local = BruteForceIndex(corpus).with_live(live).query_batch(queries, 4)
        assert np.array_equal(batch.indices, local.indices)
        assert np.array_equal(batch.distances, local.distances)

    def test_pool_is_reusable_after_worker_error(self, corpus, snapshot, rng):
        with WorkerPool(snapshot, 1) as pool:
            bad = pool.submit(rng.normal(size=(2, 9)), 1)
            with pytest.raises(WorkerError):
                bad.result(timeout=30)
            queries = rng.normal(size=(3, 5))
            good = pool.submit(queries, 1).result(timeout=30)
        assert_matches_local(corpus, good, queries, 1)


class TestCrashRecovery:
    def test_killed_worker_is_restarted(self, corpus, snapshot, rng):
        with WorkerPool(snapshot, 1) as pool:
            queries = rng.normal(size=(3, 5))
            pool.submit(queries, 2).result(timeout=30)
            (pid,) = pool.worker_pids()
            os.kill(pid, signal.SIGKILL)
            assert wait_for(lambda: pool.n_restarts >= 1)
            assert wait_for(lambda: pool.worker_pids() != [pid])
            batch = pool.submit(queries, 2).result(timeout=30)
        assert_matches_local(corpus, batch, queries, 2)


    def test_masked_batch_is_resubmitted_with_its_mask(
        self, corpus, snapshot, tmp_path, rng
    ):
        queries = rng.normal(size=(4, 5))
        live = rng.random(corpus.shape[0]) < 0.5
        loader = _FirstWorkerDiesOnMask(str(tmp_path / "claim"))
        with WorkerPool(snapshot, 1, index_loader=loader) as pool:
            batch = pool.submit(queries, 3, live=live).result(timeout=30)
            assert pool.n_resubmitted == 1
        local = BruteForceIndex(corpus).with_live(live).query_batch(queries, 3)
        assert np.array_equal(batch.indices, local.indices)
        assert np.array_equal(batch.distances, local.distances)
        assert set(batch.indices.ravel()) <= set(np.flatnonzero(live))


class TestHungWorkerRecovery:
    def test_hung_worker_is_killed_and_batch_reanswered(
        self, corpus, snapshot, tmp_path, rng
    ):
        # The first worker hangs on its first batch; the heartbeat must
        # kill it, start a replacement (clean, because the marker was
        # claimed), and resubmit the orphaned batch — whose answer must
        # match a local query_batch exactly.
        loader = FaultyLoader(
            FaultPlan(hang_on=(1,)), marker_path=str(tmp_path / "claim")
        )
        queries = rng.normal(size=(5, 5))
        with WorkerPool(
            snapshot, 1, heartbeat_timeout=0.25, index_loader=loader
        ) as pool:
            batch = pool.submit(queries, 2).result(timeout=30)
            assert pool.n_hung_kills >= 1
            assert pool.n_restarts >= 1
            assert pool.n_resubmitted >= 1
        assert_matches_local(corpus, batch, queries, 2)

    def test_hung_worker_killed_after_its_deadlines_expired(
        self, corpus, snapshot, tmp_path, rng
    ):
        # Regression: deadline expiry fails the future and drops the
        # batch from the books, but the worker is still physically
        # stuck on it.  Hang evidence must survive the expiry so the
        # heartbeat still kills the zombie — otherwise it would sit in
        # the pool absorbing (and deadline-failing) fresh traffic
        # forever, exactly when deadlines are shorter than the
        # heartbeat.
        loader = FaultyLoader(
            FaultPlan(hang_on=(1,)), marker_path=str(tmp_path / "claim")
        )
        with WorkerPool(
            snapshot, 1, heartbeat_timeout=0.3, index_loader=loader
        ) as pool:
            future = pool.submit(
                rng.normal(size=(2, 5)), 1,
                deadline=time.perf_counter() + 0.05,
            )
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            assert wait_for(lambda: pool.n_hung_kills >= 1)
            assert wait_for(lambda: pool.n_restarts >= 1)
            # The replacement (clean — marker claimed) serves normally.
            queries = rng.normal(size=(3, 5))
            batch = pool.submit(queries, 2).result(timeout=30)
        assert_matches_local(corpus, batch, queries, 2)

    def test_backlogged_healthy_worker_is_not_killed(
        self, corpus, snapshot, rng
    ):
        # Regression: one worker draining a queue of slow-but-answering
        # batches runs far longer than the heartbeat end to end.  Hang
        # detection keys on worker *silence*, not on how long ago a
        # batch was submitted, so the steady worker must never be
        # killed and every answer must arrive.
        loader = FaultyLoader(FaultPlan(delay_all=0.25))
        batches = [rng.normal(size=(2, 5)) for _ in range(6)]
        with WorkerPool(
            snapshot, 1, heartbeat_timeout=1.0, index_loader=loader
        ) as pool:
            futures = [pool.submit(b, 2) for b in batches]
            results = [f.result(timeout=30) for f in futures]
            assert pool.n_hung_kills == 0
            assert pool.n_restarts == 0
        for queries, batch in zip(batches, results):
            assert_matches_local(corpus, batch, queries, 2)

    def test_bounded_resubmission_fails_poison_batch(self, snapshot, rng):
        # No marker: EVERY worker (original and replacements) hangs on
        # its first batch, so the batch is a poison pill.  The retry
        # budget must stop the kill/restart cycle after max_resubmits
        # and fail the future loudly.
        loader = FaultyLoader(FaultPlan(hang_on=(1,)))
        with WorkerPool(
            snapshot, 1, heartbeat_timeout=0.15, index_loader=loader,
        ) as pool:
            future = pool.submit(rng.normal(size=(2, 5)), 1)
            with pytest.raises(WorkerError, match="abandoned"):
                future.result(timeout=30)
            # original worker + the one replacement both got killed
            assert pool.n_hung_kills >= 2
            assert pool.n_resubmitted == 1


class TestBatchDeadlines:
    def test_expired_batch_fails_and_pool_survives(
        self, corpus, snapshot, rng
    ):
        loader = FaultyLoader(FaultPlan(delay_all=0.5))
        with WorkerPool(snapshot, 1, index_loader=loader) as pool:
            future = pool.submit(
                rng.normal(size=(2, 5)), 1,
                deadline=time.perf_counter() + 0.05,
            )
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            # The worker's late answer is discarded, not delivered; the
            # pool keeps serving deadline-less traffic afterwards.
            queries = rng.normal(size=(3, 5))
            batch = pool.submit(queries, 1).result(timeout=30)
        assert_matches_local(corpus, batch, queries, 1)


class TestInjectedErrors:
    def test_worker_side_injected_fault_surfaces_typed(self, snapshot, rng):
        loader = FaultyLoader(FaultPlan(raise_on=(1,)))
        with WorkerPool(snapshot, 1, index_loader=loader) as pool:
            future = pool.submit(rng.normal(size=(2, 5)), 1)
            with pytest.raises(WorkerError, match="InjectedFault"):
                future.result(timeout=30)


class TestSnapshotValidation:
    def test_bad_path_fails_in_the_caller(self, tmp_path):
        with pytest.raises(SnapshotError):
            WorkerPool(str(tmp_path / "missing.npz"), 1)

    def test_unloadable_snapshot_marks_workers_fatal(self, tmp_path, rng):
        # Passes the up-front kind check but is missing the arrays the
        # loader needs, so the worker reports fatal instead of looping
        # through restarts.
        path = str(tmp_path / "hollow.npz")
        write_snapshot(
            path, "bruteforce", {"decoy": rng.normal(size=(3, 2))}
        )
        with WorkerPool(path, 1) as pool:
            def fatal():
                try:
                    pool.submit(rng.normal(size=(1, 2)), 1)
                except WorkerError:
                    return True
                return False

            assert wait_for(fatal)
            assert pool.n_restarts == 0


class TestLifecycle:
    def test_rejects_nonpositive_workers(self, snapshot):
        with pytest.raises(ValueError, match="n_workers"):
            WorkerPool(snapshot, 0)

    def test_submit_after_close_raises(self, snapshot, rng):
        pool = WorkerPool(snapshot, 1)
        pool.close()
        with pytest.raises(WorkerError, match="closed"):
            pool.submit(rng.normal(size=(1, 5)), 1)

    def test_close_is_idempotent(self, snapshot):
        pool = WorkerPool(snapshot, 1)
        pool.close()
        pool.close()

    def test_drain_waits_for_inflight_work(self, snapshot, rng):
        with WorkerPool(snapshot, 2) as pool:
            futures = [
                pool.submit(rng.normal(size=(5, 5)), 2) for _ in range(6)
            ]
            assert pool.drain(timeout=30.0)
            assert all(f.done() for f in futures)
