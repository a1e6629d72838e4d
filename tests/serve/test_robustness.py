"""End-to-end fault matrix for the hardened serving stack.

The contract under test: **every submitted future resolves** — with a
result or a typed :class:`ServingError` — under hangs, crashes,
overload, and deadline expiry; and every answer that *is* delivered is
bit-identical to sequential ``index.query``.  Degradation sheds or
fails loudly; it never answers approximately.
"""

import gc
import sys
import threading
import time
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from repro.search.bruteforce import BruteForceIndex
from repro.serve import (
    BatchPolicy,
    DeadlineExceeded,
    FaultPlan,
    FaultyLoader,
    IndexServer,
    ServerOverloaded,
    ServingError,
)
from repro.serve.server import _DeadlineReaper

_FAST = BatchPolicy(max_batch=4)


@pytest.fixture(scope="module")
def corpus():
    return np.random.default_rng(23).normal(size=(90, 4))


@pytest.fixture(scope="module")
def index(corpus):
    return BruteForceIndex(corpus)


@pytest.fixture(scope="module")
def snapshot(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("robustness") / "bruteforce.npz"
    index.save(str(path))
    return str(path)


def collect(futures, timeout=60.0):
    """Resolve every future into (results, errors).

    An unresolved future raises ``TimeoutError`` here, failing the test
    — that is the point: no future may be left hanging.  Typed serving
    errors become ``None`` placeholders and are returned for inspection.
    """
    results, errors = [], []
    for future in futures:
        try:
            results.append(future.result(timeout=timeout))
        except ServingError as error:
            results.append(None)
            errors.append(error)
    return results, errors


def wait_for(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def submit_behind_busy_worker(server, busy_query, members):
    """Start one batch on the worker, then queue ``members`` behind it.

    ``members`` are ``(query, deadline_ms)`` pairs; they wait in the
    batcher while the worker holds the first batch, so they leave
    together as its next batch.  Returns the futures, first batch first.
    """
    futures = [server.submit(busy_query, k=2)]
    assert wait_for(lambda: server._batcher.n_pending == 0)
    futures += [
        server.submit(query, k=2, deadline_ms=deadline_ms)
        for query, deadline_ms in members
    ]
    return futures


def assert_delivered_match(index, queries, ks, results):
    for query, k, got in zip(queries, ks, results):
        if got is None:
            continue
        expected = index.query(query, k=k)
        assert tuple(got.indices.tolist()) == tuple(
            expected.indices.tolist()
        )
        assert tuple(got.distances.tolist()) == tuple(
            expected.distances.tolist()
        )
        assert got.stats == expected.stats


class TestHungWorker:
    def test_recovery_is_bit_identical(self, index, snapshot, tmp_path, rng):
        # First worker hangs on its first batch; the heartbeat kills it,
        # the replacement (clean — marker claimed) re-answers everything.
        loader = FaultyLoader(
            FaultPlan(hang_on=(1,)), marker_path=str(tmp_path / "claim")
        )
        queries = rng.normal(size=(12, 4))
        with IndexServer(
            snapshot, n_workers=1, policy=_FAST, heartbeat_timeout=0.25,
            index_loader=loader,
        ) as server:
            futures = [server.submit(q, k=3) for q in queries]
            results, errors = collect(futures)
            report = server.stats()
        assert errors == []
        assert all(r is not None for r in results)
        assert_delivered_match(index, queries, [3] * 12, results)
        assert report.n_hung_kills >= 1
        assert report.n_restarts >= 1
        assert report.n_resubmitted >= 1
        assert report.n_requests == 12

    def test_one_hang_counts_one_kill(self, index, snapshot, tmp_path, rng):
        # SIGKILL lands asynchronously: until the killed worker is
        # replaced, later heartbeat passes may still see it alive and
        # silent, and must not kill and count it again.
        loader = FaultyLoader(
            FaultPlan(hang_on=(1,)), marker_path=str(tmp_path / "claim")
        )
        queries = rng.normal(size=(24, 4))
        with IndexServer(
            snapshot, n_workers=1, policy=_FAST, heartbeat_timeout=0.25,
            index_loader=loader,
        ) as server:
            futures = [server.submit(q, k=3) for q in queries]
            results, errors = collect(futures)
            report = server.stats()
        assert errors == []
        assert_delivered_match(index, queries, [3] * 24, results)
        assert report.n_hung_kills == 1
        assert report.n_restarts == 1


class TestCrashedWorker:
    def test_crash_under_deadline_still_answers(
        self, index, snapshot, tmp_path, rng
    ):
        # The worker dies hard mid-batch while every request carries a
        # generous deadline; recovery (restart + resubmit) beats the
        # deadline, so every answer arrives — and matches exactly.
        loader = FaultyLoader(
            FaultPlan(crash_on=(1,)), marker_path=str(tmp_path / "claim")
        )
        queries = rng.normal(size=(8, 4))
        with IndexServer(
            snapshot, n_workers=1, policy=_FAST, index_loader=loader
        ) as server:
            futures = [
                server.submit(q, k=2, deadline_ms=20_000) for q in queries
            ]
            results, errors = collect(futures)
            report = server.stats()
        assert errors == []
        assert_delivered_match(index, queries, [2] * 8, results)
        assert report.n_restarts >= 1
        assert report.n_requests == 8


class TestOverload:
    def test_burst_sheds_with_reject_new(self, index, snapshot, rng):
        # A slow in-process index plus a tiny admission bound: the burst
        # must overflow, the overflow raises synchronously, and every
        # *admitted* request is still answered exactly.
        loader = FaultyLoader(FaultPlan(delay_all=0.05))
        policy = BatchPolicy(
            max_batch=4, max_pending=4, shed_policy="reject-new"
        )
        queries = rng.normal(size=(40, 4))
        admitted, shed = [], 0
        with IndexServer(
            snapshot, n_workers=0, policy=policy, index_loader=loader
        ) as server:
            for q in queries:
                try:
                    admitted.append((q, server.submit(q, k=1)))
                except ServerOverloaded:
                    shed += 1
            results, errors = collect([f for _, f in admitted])
            report = server.stats()
        assert shed > 0
        assert errors == []
        assert report.n_shed == shed
        assert report.n_requests == len(admitted)
        assert report.n_requests + report.n_shed == 40
        assert_delivered_match(
            index, [q for q, _ in admitted], [1] * len(admitted), results
        )

    def test_burst_sheds_oldest_with_drop_oldest(self, index, snapshot, rng):
        # Same burst, drop-oldest: nothing raises at submit; instead the
        # oldest queued futures fail with ServerOverloaded while the
        # freshest traffic is served.
        loader = FaultyLoader(FaultPlan(delay_all=0.05))
        policy = BatchPolicy(
            max_batch=4, max_pending=4, shed_policy="drop-oldest"
        )
        queries = rng.normal(size=(40, 4))
        with IndexServer(
            snapshot, n_workers=0, policy=policy, index_loader=loader
        ) as server:
            futures = [server.submit(q, k=1) for q in queries]
            results, errors = collect(futures)
            report = server.stats()
        assert errors  # something was shed
        assert all(isinstance(e, ServerOverloaded) for e in errors)
        assert report.n_shed == len(errors)
        assert report.n_requests == 40 - len(errors)
        assert sum(r is not None for r in results) == report.n_requests
        assert_delivered_match(index, queries, [1] * 40, results)

    @pytest.mark.parametrize("shed_policy", ["reject-new", "drop-oldest"])
    def test_pooled_admission_bounds_the_backlog(
        self, index, snapshot, rng, shed_policy
    ):
        # A stream faster than the one worker: the requests that cannot
        # run yet must wait in the batcher, where max_pending bounds
        # them, instead of in the pool's unbounded queue.  The backlog
        # of admitted, unanswered requests stays within the queue bound
        # plus the batch on the worker and the one being delivered; the
        # overflow is shed, and the worker gets full batches.
        loader = FaultyLoader(FaultPlan(delay_all=0.05))
        policy = BatchPolicy(
            max_batch=4, max_pending=4, shed_policy=shed_policy
        )
        queries = rng.normal(size=(40, 4))
        admitted, backlog, rejected = [], [], 0
        with IndexServer(
            snapshot, n_workers=1, policy=policy, index_loader=loader
        ) as server:
            for q in queries:
                try:
                    admitted.append((q, server.submit(q, k=1)))
                except ServerOverloaded:
                    rejected += 1
                backlog.append(sum(not f.done() for _, f in admitted))
                time.sleep(0.002)
            results, errors = collect([f for _, f in admitted])
            report = server.stats()
        assert all(isinstance(e, ServerOverloaded) for e in errors)
        shed = rejected + len(errors)
        assert shed > 0
        assert max(backlog) <= policy.max_pending + 2 * policy.max_batch
        assert max(report.batch_size_histogram) == policy.max_batch
        assert report.n_shed == shed
        assert report.n_requests + report.n_shed == 40
        assert_delivered_match(
            index, [q for q, _ in admitted], [1] * len(admitted), results
        )


class TestDeadlines:
    def test_deadline_shorter_than_flush_wait(self, snapshot, busy_loader):
        # The backend stays busy until released; the request deadline is
        # 20 ms.  The future must fail fast with DeadlineExceeded instead
        # of waiting for a flush that cannot start.
        loader = busy_loader()
        with IndexServer(
            snapshot, n_workers=0, policy=_FAST, index_loader=loader
        ) as server:
            busy = loader.occupy(server)
            started = time.perf_counter()
            future = server.submit(np.ones(4), k=1, deadline_ms=20)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            elapsed = time.perf_counter() - started
            report = server.stats()
            loader.release()
            busy.result(timeout=30)
        assert elapsed < 5.0
        assert report.n_deadline_exceeded == 1
        assert report.n_requests == 0

    def test_mixed_batch_releases_deadlined_member_at_its_deadline(
        self, index, snapshot, rng
    ):
        # One coalesced batch, two members: one deadline-less, one with
        # a 600 ms deadline, executing on a worker that takes ~2 s.
        # No pool-side batch deadline can exist (the deadline-less
        # neighbor still needs the answer), so the reaper must release
        # the deadlined caller at ~its own deadline rather than at
        # delivery — and the neighbor must still get the exact answer.
        # A warm-up batch loads the worker; a 0.2 s batch then keeps it
        # busy while the two members queue behind it.
        loader = FaultyLoader(FaultPlan(delay_on=((2, 0.2), (3, 2.0))))
        policy = BatchPolicy(max_batch=2)
        q_warm, q_busy, q_free, q_bound = rng.normal(size=(4, 4))
        with IndexServer(
            snapshot, n_workers=1, policy=policy, index_loader=loader
        ) as server:
            server.query(q_warm, k=2)
            started = time.perf_counter()
            busy, free, bound = submit_behind_busy_worker(
                server, q_busy, [(q_free, None), (q_bound, 600)]
            )
            with pytest.raises(DeadlineExceeded):
                bound.result(timeout=30)
            waited = time.perf_counter() - started
            answer = free.result(timeout=30)
            busy.result(timeout=30)
            report = server.stats()
        assert waited < 1.5  # released at the deadline, not at delivery
        assert report.batch_size_histogram == {1: 2, 2: 1}
        expected = index.query(q_free, k=2)
        assert tuple(answer.indices.tolist()) == tuple(
            expected.indices.tolist()
        )
        assert tuple(answer.distances.tolist()) == tuple(
            expected.distances.tolist()
        )
        assert report.n_deadline_exceeded == 1
        assert report.n_requests == 3

    def test_deadlined_caller_released_while_in_process_batch_runs(
        self, snapshot, rng
    ):
        # n_workers=0: the flush executes on the batcher thread and
        # cannot be preempted, so only the reaper can honor the
        # deadline while the slow local batch is still computing.
        loader = FaultyLoader(FaultPlan(delay_all=1.5))
        with IndexServer(
            snapshot, n_workers=0, policy=_FAST, index_loader=loader
        ) as server:
            started = time.perf_counter()
            future = server.submit(rng.normal(size=4), k=1, deadline_ms=100)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            waited = time.perf_counter() - started
        assert waited < 1.0

    def test_default_deadline_applies_to_every_request(
        self, snapshot, busy_loader
    ):
        loader = busy_loader()
        with IndexServer(
            snapshot, n_workers=0, policy=_FAST, default_deadline_ms=20,
            index_loader=loader,
        ) as server:
            busy = loader.occupy(server)
            with pytest.raises(DeadlineExceeded):
                server.query(np.ones(4), k=1)
            report = server.stats()
            loader.release()
            busy.result(timeout=30)
        assert report.n_deadline_exceeded == 1

    @pytest.mark.parametrize("n_workers", [0, 1])
    def test_answered_requests_are_not_retained(
        self, snapshot, rng, n_workers
    ):
        # The deadline outlives the test, so only forgetting each watch
        # when its future resolves can free the answered requests.
        queries = rng.normal(size=(200, 4))
        with IndexServer(
            snapshot, n_workers=n_workers, policy=_FAST
        ) as server:
            futures = [
                server.submit(q, k=2, deadline_ms=60_000) for q in queries
            ]
            for future in futures:
                future.result(timeout=30)
            refs = [weakref.ref(future) for future in futures]
            del futures, future
            # The flusher thread still names its latest batch until it
            # flushes the next one.
            server.query(queries[0], k=2)
            gc.collect()
            alive = sum(ref() is not None for ref in refs)
        assert alive == 0

    def test_releases_member_at_its_deadline_after_compactions(
        self, index, snapshot, rng
    ):
        # Hundreds of resolved 60 s watches compact the reaper's heap
        # several times before a 600 ms watch rides a batch slowed to
        # 2 s; the reaper must still release it at its own deadline,
        # and its deadline-free neighbour must get the exact answer.
        # Each warm request is answered before the next is sent, so each
        # is one batch; a 0.2 s batch then keeps the worker busy while
        # the two members queue behind it.
        warm = rng.normal(size=(300, 4))
        n_warm_batches = len(warm)
        loader = FaultyLoader(FaultPlan(delay_on=(
            (n_warm_batches + 1, 0.2), (n_warm_batches + 2, 2.0),
        )))
        policy = BatchPolicy(max_batch=2)
        q_busy, q_free, q_bound = rng.normal(size=(3, 4))
        with IndexServer(
            snapshot, n_workers=1, policy=policy, index_loader=loader
        ) as server:
            for query in warm:
                server.submit(query, k=2, deadline_ms=60_000).result(
                    timeout=30
                )
            started = time.perf_counter()
            busy, free, bound = submit_behind_busy_worker(
                server, q_busy, [(q_free, None), (q_bound, 600)]
            )
            with pytest.raises(DeadlineExceeded):
                bound.result(timeout=30)
            waited = time.perf_counter() - started
            answer = free.result(timeout=30)
            busy.result(timeout=30)
            report = server.stats()
        assert waited < 1.5  # released at the deadline, not at delivery
        assert report.batch_size_histogram == {1: n_warm_batches + 1, 2: 1}
        expected = index.query(q_free, k=2)
        assert tuple(answer.indices.tolist()) == tuple(
            expected.indices.tolist()
        )
        assert tuple(answer.distances.tolist()) == tuple(
            expected.distances.tolist()
        )
        assert report.n_deadline_exceeded == 1
        assert report.n_requests == len(warm) + 2

    def test_compaction_keeps_watches_still_pending(self):
        # Four threads answer 60 s watches, each forgotten at once, so
        # the heap is compacted every few answers while five short
        # watches are still pending.  Each of those must still fail when
        # it falls due, and no answered watch may stay behind.
        reaper = _DeadlineReaper()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            pending = [Future() for _ in range(5)]
            for i, future in enumerate(pending):
                reaper.watch(future, started + 0.2 + 0.05 * i)
            refs = []

            def answer():
                for _ in range(200):
                    answered = Future()
                    reaper.watch(answered, started + 60.0)
                    answered.set_result(None)
                    refs.append(weakref.ref(answered))

            threads = [threading.Thread(target=answer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for future in pending:
                with pytest.raises(DeadlineExceeded):
                    future.result(timeout=10)
        finally:
            sys.setswitchinterval(interval)
            reaper.close()
        gc.collect()
        assert len(refs) == 800
        assert all(ref() is None for ref in refs)


class TestChaos:
    def test_every_future_resolves_and_accounting_balances(
        self, index, snapshot, tmp_path, rng
    ):
        # Mixed fault schedule on one of two workers: an injected error,
        # a delayed batch, then a hard crash (replacement is clean).
        # Whatever happens, every future must resolve, every delivered
        # answer must match, and the report must account for all 30
        # submissions.
        loader = FaultyLoader(
            FaultPlan(raise_on=(1,), delay_on=((2, 0.05),), crash_on=(3,)),
            marker_path=str(tmp_path / "claim"),
        )
        queries = rng.normal(size=(30, 4))
        ks = [1 + (i % 3) for i in range(30)]
        with IndexServer(
            snapshot, n_workers=2, policy=_FAST, heartbeat_timeout=0.5,
            index_loader=loader,
        ) as server:
            futures = [
                server.submit(q, k=k, deadline_ms=30_000)
                for q, k in zip(queries, ks)
            ]
            results, errors = collect(futures)
            report = server.stats()
        assert len(results) == 30  # collect() timed out on nothing
        assert all(isinstance(e, ServingError) for e in errors)
        assert_delivered_match(index, queries, ks, results)
        accounted = (
            report.n_requests
            + report.n_failed
            + report.n_shed
            + report.n_deadline_exceeded
        )
        assert accounted == 30
        assert report.n_failed == len(errors)
