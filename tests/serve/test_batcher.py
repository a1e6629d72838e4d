"""Micro-batcher: flushing on a free backend slot, per-k grouping, error
routing, request deadlines, and bounded admission with load shedding."""

import dataclasses
import random
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve import (
    BatchPolicy,
    DeadlineExceeded,
    MicroBatcher,
    ServerClosedError,
    ServerOverloaded,
)


def wait_for(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def resolved():
    """The answer future of a backend that answered on the calling thread."""
    answer = Future()
    answer.set_result(None)
    return answer


class Recorder:
    """A flush target that answers at once with (row, k) echoes.

    Like an in-process backend, it resolves every request future before
    returning an already resolved answer future.
    """

    def __init__(self):
        self.batches = []
        self.lock = threading.Lock()

    def __call__(self, queries, k, futures, deadlines):
        with self.lock:
            self.batches.append((queries.copy(), k))
        for row, future in zip(queries, futures):
            future.set_result((row.copy(), k))
        return resolved()


class Held(Recorder):
    """A flush target that holds every batch until the test answers it.

    Like a worker pool, it returns an unresolved answer future, so each
    batch keeps its slot (the backend stays busy) until
    :meth:`answer_next` resolves the oldest open batch's requests with
    (row, k) echoes and then its answer future.
    """

    def __init__(self):
        super().__init__()
        self.open = []

    def __call__(self, queries, k, futures, deadlines):
        answer = Future()
        with self.lock:
            self.batches.append((queries.copy(), k))
            self.open.append((queries, k, futures, answer))
        return answer

    def answer_next(self):
        assert wait_for(lambda: bool(self.open)), "no batch was flushed"
        with self.lock:
            queries, k, futures, answer = self.open.pop(0)
        for row, future in zip(queries, futures):
            if not future.done():
                future.set_result((row.copy(), k))
        answer.set_result(None)

    def occupy(self, batcher):
        """Flush one request that keeps the only slot busy; return it."""
        future = batcher.submit(np.full(1, -1.0), 99)
        assert wait_for(lambda: len(self.open) == 1)
        return future

    def rows(self, k):
        """Every row flushed with ``k``, in flush order, batch by batch."""
        return [q[:, 0].tolist() for q, kk in self.batches if kk == k]


class TestBatchPolicy:
    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.max_batch == 64
        assert policy.max_pending is None
        assert policy.shed_policy == "reject-new"

    def test_has_no_flush_timer(self):
        # Batches start when the backend has a free slot; no policy
        # field holds a group open on a timer.
        assert [f.name for f in dataclasses.fields(BatchPolicy)] == [
            "max_batch", "max_pending", "shed_policy"
        ]

    def test_rejects_nonpositive_max_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchPolicy(max_batch=0)

    def test_rejects_nonpositive_max_pending(self):
        with pytest.raises(ValueError, match="max_pending"):
            BatchPolicy(max_pending=0)

    def test_rejects_unknown_shed_policy(self):
        with pytest.raises(ValueError, match="shed_policy"):
            BatchPolicy(shed_policy="drop-newest")


class TestFlushTriggers:
    def test_full_batch_flushes_immediately(self):
        # Four requests queue behind a busy backend; the moment its slot
        # frees they leave together as one full batch.
        held = Held()
        with MicroBatcher(held, BatchPolicy(max_batch=4)) as batcher:
            held.occupy(batcher)
            futures = [
                batcher.submit(np.full(3, float(i)), 2) for i in range(4)
            ]
            assert batcher.n_pending == 4
            held.answer_next()
            held.answer_next()
            assert wait_for(lambda: all(f.done() for f in futures))
        queries, k = held.batches[1]
        assert queries.shape == (4, 3)
        assert k == 2

    def test_free_slot_flushes_partial_batch(self):
        # No timer and no company needed: an idle backend takes a lone
        # request at once.
        recorder = Recorder()
        with MicroBatcher(recorder, BatchPolicy(max_batch=1_000)) as batcher:
            future = batcher.submit(np.zeros(2), 1)
            assert wait_for(future.done)
        assert len(recorder.batches) == 1
        assert recorder.batches[0][0].shape == (1, 2)

    def test_busy_backend_coalesces_spaced_arrivals(self):
        # Arrivals 10 ms apart never meet under a short timer; while the
        # backend holds a batch they wait, and leave as one batch when
        # its answer resolves.
        held = Held()
        with MicroBatcher(held, BatchPolicy(max_batch=64)) as batcher:
            held.occupy(batcher)
            futures = []
            for i in range(5):
                futures.append(batcher.submit(np.full(1, float(i)), 1))
                time.sleep(0.01)
            assert not any(f.done() for f in futures)
            held.answer_next()
            assert wait_for(lambda: len(held.open) == 1)
            held.answer_next()
            assert wait_for(lambda: all(f.done() for f in futures))
        assert held.rows(1) == [[0.0, 1.0, 2.0, 3.0, 4.0]]

    def test_slots_bound_the_batches_in_flight(self):
        # Two slots: two batches run at once, and a third request waits
        # until one of them is answered.
        held = Held()
        policy = BatchPolicy(max_batch=64)
        with MicroBatcher(held, policy, max_in_flight=2) as batcher:
            first = batcher.submit(np.zeros(1), 1)
            assert wait_for(lambda: len(held.open) == 1)
            second = batcher.submit(np.ones(1), 1)
            assert wait_for(lambda: len(held.open) == 2)
            third = batcher.submit(np.full(1, 2.0), 1)
            time.sleep(0.05)
            assert len(held.open) == 2
            assert batcher.n_pending == 1
            held.answer_next()
            assert wait_for(lambda: len(held.open) == 2)
            held.answer_next()
            held.answer_next()
        assert [f.result()[0][0] for f in (first, second, third)] == [
            0.0, 1.0, 2.0
        ]
        assert held.rows(1) == [[0.0], [1.0], [2.0]]

    def test_rows_keep_arrival_order(self):
        held = Held()
        with MicroBatcher(held, BatchPolicy(max_batch=8)) as batcher:
            held.occupy(batcher)
            futures = [
                batcher.submit(np.full(2, float(i)), 3) for i in range(8)
            ]
            held.answer_next()
            held.answer_next()
            assert wait_for(lambda: all(f.done() for f in futures))
        assert held.rows(3) == [[float(i) for i in range(8)]]
        for i, future in enumerate(futures):
            row, _ = future.result()
            assert row[0] == float(i)

    def test_different_k_never_share_a_batch(self):
        gate = threading.Event()
        recorder = Recorder()

        def first_waits(queries, k, futures, deadlines):
            if k == 9:
                gate.wait(5.0)  # the other requests queue meanwhile
            return recorder(queries, k, futures, deadlines)

        policy = BatchPolicy(max_batch=64)
        with MicroBatcher(first_waits, policy) as batcher:
            decoy = batcher.submit(np.zeros(2), 9)
            assert wait_for(lambda: batcher.n_pending == 0)
            futures = [
                batcher.submit(np.zeros(2), 1 + (i % 3)) for i in range(9)
            ]
            gate.set()
            assert wait_for(lambda: all(f.done() for f in futures))
        assert decoy.result()[1] == 9
        assert [k for _, k in recorder.batches] == [9, 1, 2, 3]
        for queries, k in recorder.batches[1:]:
            assert queries.shape[0] == 3

    def test_oversized_group_splits_at_max_batch(self):
        gate = threading.Event()
        recorder = Recorder()

        def slow_flush(queries, k, futures, deadlines):
            gate.wait(5.0)  # let submissions pile up past max_batch
            return recorder(queries, k, futures, deadlines)

        with MicroBatcher(slow_flush, BatchPolicy(max_batch=4)) as batcher:
            futures = [batcher.submit(np.zeros(1), 1) for _ in range(11)]
            gate.set()
            assert wait_for(lambda: all(f.done() for f in futures))
        sizes = sorted(q.shape[0] for q, _ in recorder.batches)
        assert sum(sizes) == 11
        assert max(sizes) <= 4


class TestRequestDeadlines:
    def test_expired_request_fails_with_deadline_exceeded(self):
        # The backend stays busy: only per-request deadline enforcement
        # can resolve the queued future.
        held = Held()
        with MicroBatcher(held, BatchPolicy(max_batch=1_000)) as batcher:
            held.occupy(batcher)
            future = batcher.submit(
                np.zeros(2), 1, deadline=time.perf_counter() + 0.02
            )
            assert wait_for(future.done, timeout=5.0)
            with pytest.raises(DeadlineExceeded):
                future.result()
            held.answer_next()
        assert held.rows(1) == []

    def test_unexpired_requests_survive_a_neighbors_expiry(self):
        held = Held()
        with MicroBatcher(held, BatchPolicy(max_batch=1_000)) as batcher:
            held.occupy(batcher)
            doomed = batcher.submit(
                np.zeros(2), 1, deadline=time.perf_counter() + 0.02
            )
            safe = batcher.submit(np.ones(2), 1)
            assert wait_for(doomed.done)
            held.answer_next()
            held.answer_next()
            assert wait_for(safe.done)
        with pytest.raises(DeadlineExceeded):
            doomed.result()
        row, _ = safe.result()
        assert row.tolist() == [1.0, 1.0]
        # The expired row never reached the flush target.
        assert [q.shape[0] for q, k in held.batches if k == 1] == [1]

    def test_earlier_deadline_wakes_the_sleeping_flusher(self):
        # The flusher sleeps until the queued request's deadline, 60 s
        # away; a later arrival with a 20 ms deadline must still expire
        # on time.
        held = Held()
        with MicroBatcher(held, BatchPolicy(max_batch=1_000)) as batcher:
            held.occupy(batcher)
            patient = batcher.submit(
                np.zeros(1), 1, deadline=time.perf_counter() + 60.0
            )
            time.sleep(0.02)  # let the flusher arm its sleep
            started = time.perf_counter()
            urgent = batcher.submit(
                np.ones(1), 1, deadline=time.perf_counter() + 0.02
            )
            assert wait_for(urgent.done, timeout=5.0)
            waited = time.perf_counter() - started
            assert not patient.done()
            held.answer_next()
            held.answer_next()
        with pytest.raises(DeadlineExceeded):
            urgent.result()
        assert waited < 2.0
        assert patient.result()[0].tolist() == [0.0]

    def test_split_remainder_still_honors_request_deadlines(self):
        # A free slot takes the first max_batch rows of a group; the
        # remainder waits for the next slot with its own request
        # deadlines still counting, and fails with DeadlineExceeded.
        held = Held()
        with MicroBatcher(held, BatchPolicy(max_batch=4)) as batcher:
            held.occupy(batcher)
            head = [batcher.submit(np.zeros(1), 1) for _ in range(4)]
            tail = [
                batcher.submit(
                    np.ones(1), 1, deadline=time.perf_counter() + 0.1
                )
                for _ in range(3)
            ]
            held.answer_next()  # the head leaves; the tail stays queued
            assert wait_for(lambda: len(held.open) == 1)
            assert batcher.n_pending == 3
            assert wait_for(lambda: all(f.done() for f in tail))
            held.answer_next()
            assert wait_for(lambda: all(f.done() for f in head))
        for future in head:
            assert future.exception() is None
        for future in tail:
            with pytest.raises(DeadlineExceeded):
                future.result()
        # Only the head rows were ever flushed.
        assert held.rows(1) == [[0.0] * 4]


class TestAdmissionControl:
    def test_reject_new_raises_server_overloaded(self):
        gate = threading.Event()

        def blocked_flush(queries, k, futures, deadlines):
            gate.wait(5.0)
            for future in futures:
                future.set_result(None)
            return resolved()

        policy = BatchPolicy(
            max_batch=2, max_pending=3, shed_policy="reject-new"
        )
        with MicroBatcher(blocked_flush, policy) as batcher:
            admitted = [batcher.submit(np.zeros(1), 1)]
            # The flusher detaches the first request and blocks; now
            # fill the queue up to the bound and overflow it.
            assert wait_for(lambda: batcher.n_pending == 0)
            overflow_at = policy.max_pending
            admitted += [
                batcher.submit(np.zeros(1), 1) for _ in range(overflow_at)
            ]
            with pytest.raises(ServerOverloaded):
                batcher.submit(np.zeros(1), 1)
            gate.set()
            assert wait_for(lambda: all(f.done() for f in admitted))
        assert all(f.exception() is None for f in admitted)

    def test_drop_oldest_sheds_the_oldest_queued_request(self):
        held = Held()
        policy = BatchPolicy(
            max_batch=100, max_pending=3, shed_policy="drop-oldest"
        )
        with MicroBatcher(held, policy) as batcher:
            held.occupy(batcher)
            first = [
                batcher.submit(np.full(1, float(i)), 1) for i in range(3)
            ]
            newcomer = batcher.submit(np.full(1, 99.0), 1)
            # The oldest queued request was sacrificed for the newcomer.
            assert wait_for(first[0].done)
            with pytest.raises(ServerOverloaded):
                first[0].result()
            assert not newcomer.done()
            held.answer_next()
            held.answer_next()
        assert first[1].result()[0][0] == 1.0
        assert first[2].result()[0][0] == 2.0
        assert newcomer.result()[0][0] == 99.0

    def test_unbounded_policy_never_sheds(self):
        recorder = Recorder()
        with MicroBatcher(recorder, BatchPolicy(max_batch=4)) as batcher:
            futures = [batcher.submit(np.zeros(1), 1) for _ in range(200)]
            assert wait_for(lambda: all(f.done() for f in futures))
        assert all(f.exception() is None for f in futures)


class TestQueueMaintenanceSeams:
    """The three queue editors — ``_drop_oldest_locked``,
    ``_collect_expired_locked``, ``_pop_ready`` — all mutate the same
    per-k groups and the shared pending counter.  These tests drive the
    seams between them: a split followed by a shed, expiry inside an
    oversized group, and a shed racing an uncollected expiry."""

    def test_drop_oldest_after_split_sheds_oldest_survivor(self):
        # After _pop_ready splits an oversized group, the rows already
        # detached for flushing are no longer sheddable: drop-oldest
        # must sacrifice the oldest *surviving* request.
        sem = threading.Semaphore(0)
        recorder = Recorder()

        def gated(queries, k, futures, deadlines):
            sem.acquire()
            return recorder(queries, k, futures, deadlines)

        policy = BatchPolicy(
            max_batch=2, max_pending=6, shed_policy="drop-oldest"
        )
        with MicroBatcher(gated, policy) as batcher:
            futures = [batcher.submit(np.full(1, 0.0), 1)]
            # The flusher detaches [r0] and blocks inside the flush.
            assert wait_for(lambda: batcher.n_pending == 0)
            futures += [
                batcher.submit(np.full(1, float(i)), 1) for i in range(1, 7)
            ]
            sem.release()  # r0 completes; the flusher splits off [r1, r2]
            assert wait_for(lambda: batcher.n_pending == 4)
            futures += [
                batcher.submit(np.full(1, float(i)), 1) for i in (7, 8)
            ]
            victim_candidate = futures[3]  # r3: oldest still queued
            futures.append(batcher.submit(np.full(1, 9.0), 1))
            assert victim_candidate.done()
            with pytest.raises(ServerOverloaded):
                victim_candidate.result()
            sem.release(10)
            assert wait_for(lambda: all(f.done() for f in futures))
            assert batcher.n_pending == 0
        for i, future in enumerate(futures):
            if i != 3:
                assert future.exception() is None, i
        flushed = [v for q, _ in recorder.batches for v in q[:, 0].tolist()]
        assert flushed == [0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]

    def test_expired_rows_inside_oversized_group_never_flush(self):
        # Deadlines that pass while the flusher is busy elsewhere must be
        # failed by _collect_expired_locked before _pop_ready sees the
        # group; the survivors flush together, in arrival order.
        gate = threading.Event()
        recorder = Recorder()

        def gated(queries, k, futures, deadlines):
            gate.wait(5.0)
            return recorder(queries, k, futures, deadlines)

        with MicroBatcher(gated, BatchPolicy(max_batch=3)) as batcher:
            decoy = batcher.submit(np.zeros(1), 9)
            assert wait_for(lambda: batcher.n_pending == 0)
            doom = time.perf_counter() + 0.03
            mixed = [
                batcher.submit(
                    np.full(1, float(i)), 1,
                    deadline=doom if i in (1, 3) else None,
                )
                for i in range(5)
            ]
            time.sleep(0.08)  # both deadlines pass, flusher still stuck
            gate.set()
            assert wait_for(lambda: all(f.done() for f in [decoy] + mixed))
            assert batcher.n_pending == 0
        for i in (1, 3):
            with pytest.raises(DeadlineExceeded):
                mixed[i].result()
        flushed = [q for q, k in recorder.batches if k == 1]
        assert len(flushed) == 1
        assert flushed[0][:, 0].tolist() == [0.0, 2.0, 4.0]

    def test_drop_oldest_of_expired_but_uncollected_request(self):
        # The oldest queued request may already be past its deadline yet
        # not collected (the flusher is busy).  Shedding it must account
        # it exactly once — the first failure wins, the counter stays
        # consistent, and the row never reaches a flush.
        gate = threading.Event()
        recorder = Recorder()

        def gated(queries, k, futures, deadlines):
            gate.wait(5.0)
            return recorder(queries, k, futures, deadlines)

        policy = BatchPolicy(
            max_batch=64, max_pending=2, shed_policy="drop-oldest"
        )
        with MicroBatcher(gated, policy) as batcher:
            decoy = batcher.submit(np.zeros(1), 9)
            assert wait_for(lambda: batcher.n_pending == 0)
            stale = batcher.submit(
                np.zeros(1), 1, deadline=time.perf_counter() + 0.02
            )
            live = batcher.submit(np.ones(1), 1)
            time.sleep(0.08)  # stale expires while the flusher is stuck
            newcomer = batcher.submit(np.full(1, 2.0), 1)
            assert stale.done()
            with pytest.raises(ServerOverloaded):
                stale.result()
            gate.set()
            assert wait_for(
                lambda: live.done() and newcomer.done() and decoy.done()
            )
            assert batcher.n_pending == 0
        assert live.exception() is None
        assert newcomer.exception() is None
        flushed = [q for q, k in recorder.batches if k == 1]
        assert sum(q.shape[0] for q in flushed) == 2


class TestLifecycleAndErrors:
    def test_close_flushes_pending(self):
        # close() flushes what is queued even while every slot is busy;
        # waiting for the answers is the caller's business.
        held = Held()
        batcher = MicroBatcher(held, BatchPolicy(max_batch=1_000))
        held.occupy(batcher)
        futures = [batcher.submit(np.zeros(1), 1) for _ in range(3)]
        batcher.close()
        assert batcher.n_pending == 0
        assert held.rows(1) == [[0.0] * 3]
        held.answer_next()
        held.answer_next()
        assert all(f.done() for f in futures)

    def test_submit_after_close_raises_typed_error(self):
        batcher = MicroBatcher(Recorder())
        batcher.close()
        with pytest.raises(ServerClosedError, match="closed"):
            batcher.submit(np.zeros(2), 1)
        # The typed error still honors the historical contract.
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(np.zeros(2), 1)

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(Recorder())
        batcher.close()
        batcher.close()

    def test_rejects_nonpositive_max_in_flight(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            MicroBatcher(Recorder(), max_in_flight=0)

    def test_flush_exception_routes_to_futures(self):
        def broken(queries, k, futures, deadlines):
            raise RuntimeError("flush exploded")

        with MicroBatcher(broken, BatchPolicy(max_batch=2)) as batcher:
            future = batcher.submit(np.zeros(2), 1)
            assert wait_for(future.done)
        with pytest.raises(RuntimeError, match="flush exploded"):
            future.result()

    @pytest.mark.parametrize("how", ["raises", "future-fails"])
    def test_failed_flush_frees_its_slot(self, how):
        # One slot: if a failed batch kept it, the next request would
        # never be flushed.
        recorder = Recorder()

        def first_fails(queries, k, futures, deadlines):
            if k == 1:
                return recorder(queries, k, futures, deadlines)
            if how == "raises":
                raise RuntimeError("flush exploded")
            for future in futures:
                future.set_exception(RuntimeError("batch failed"))
            answer = Future()
            answer.set_exception(RuntimeError("batch failed"))
            return answer

        with MicroBatcher(first_fails, BatchPolicy(max_batch=4)) as batcher:
            failed = batcher.submit(np.zeros(1), 2)
            assert wait_for(failed.done)
            assert isinstance(failed.exception(), RuntimeError)
            later = batcher.submit(np.ones(1), 1)
            assert wait_for(later.done)
        assert later.result()[0].tolist() == [1.0]


class TestConcurrency:
    def test_slots_balance_under_contention(self):
        # Four submitter threads against two slots, with answers
        # resolved on other threads and a tiny switch interval: a lost
        # update to the in-flight count would either run a third batch
        # at once or leave requests queued forever.
        lock = threading.Lock()
        running = [0, 0]  # now, most ever
        executor = ThreadPoolExecutor(max_workers=3)

        def answer_later(queries, k, futures, answer):
            time.sleep(random.random() * 1e-3)
            with lock:
                running[0] -= 1
            for row, future in zip(queries, futures):
                future.set_result(row[0])
            answer.set_result(None)

        def flush(queries, k, futures, deadlines):
            with lock:
                running[0] += 1
                running[1] = max(running[1], running[0])
            answer = Future()
            executor.submit(answer_later, queries, k, futures, answer)
            return answer

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batcher = MicroBatcher(
                flush, BatchPolicy(max_batch=8), max_in_flight=2
            )
            futures = [[] for _ in range(4)]

            def submit(mine):
                for i in range(300):
                    mine.append(batcher.submit(np.full(1, float(i)), 1))

            threads = [
                threading.Thread(target=submit, args=(mine,))
                for mine in futures
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for mine in futures:
                assert [f.result(timeout=30) for f in mine] == [
                    float(i) for i in range(300)
                ]
            batcher.close()
        finally:
            sys.setswitchinterval(interval)
            executor.shutdown()
        assert running[0] == 0 and running[1] <= 2
        assert batcher.n_pending == 0
