"""Dynamic micro-batching of individually arriving k-NN requests.

Single-query traffic pays per-call overhead that the vectorized
``query_batch`` kernels amortize away; the :class:`MicroBatcher` closes
that gap by coalescing the requests that arrive while the backend is
busy into one batch.  There is no timer.  A batch starts as soon as the
backend has a free slot, and while it has none the queued requests grow
into the next batch, up to :attr:`BatchPolicy.max_batch` rows.  A
serial stream therefore never waits for company, and a busy backend is
handed full batches.  The backend runs at most ``max_in_flight``
batches at once (a worker pool's worker count, 1 in-process); a batch
holds its slot from its flush until its answer future resolves.
Requests with different ``k`` never share a batch (``query_batch``
takes one ``k``), so pending requests are grouped per ``k``, and a free
slot goes to the group holding the oldest request.

Two robustness features ride on the same queue:

* **Per-request deadlines.**  ``submit`` accepts an absolute deadline
  (``time.perf_counter()`` seconds); a request still queued when its
  deadline passes has its future failed with
  :class:`~repro.serve.errors.DeadlineExceeded` instead of waiting for a
  flush that may never help it.  The flusher thread sleeps until a
  submit it can act on, a batch answer, or the earliest request
  deadline.
* **Bounded admission.**  When :attr:`BatchPolicy.max_pending` is set,
  the total number of queued requests never exceeds it.  Requests wait
  here, not in the backend, while every slot is busy, so this bounds
  the whole backlog: at most ``max_pending`` queued requests plus
  ``max_in_flight`` batches.  An arrival that would overflow is handled
  per :attr:`BatchPolicy.shed_policy`: ``"reject-new"`` raises
  :class:`~repro.serve.errors.ServerOverloaded` in the submitting
  caller, ``"drop-oldest"`` admits the newcomer and fails the oldest
  queued request's future with the same error.

Batching is a latency/throughput trade only — the flushed batch goes
through the same ``query_batch`` engine whose answers are bit-identical
to sequential ``query``, and rows keep their arrival order inside a
batch.  Shed and expired requests are *failed*, never answered
approximately.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.serve.errors import (
    DeadlineExceeded,
    ServerClosedError,
    ServerOverloaded,
    _fail,
)

_SHED_POLICIES = ("reject-new", "drop-oldest")


@dataclass(frozen=True)
class BatchPolicy:
    """Batch size and admission policy for the micro-batcher.

    Attributes:
        max_batch: the most requests one batch may carry.  A batch
            starts as soon as the backend has a free slot, with
            whatever is queued; a group larger than this is split.
        max_pending: bound on the total number of queued (not yet
            flushed) requests across all ``k`` groups; ``None`` leaves
            admission unbounded (the pre-hardening behavior).
        shed_policy: what to do with an arrival that would overflow
            ``max_pending`` — ``"reject-new"`` raises
            :class:`~repro.serve.errors.ServerOverloaded` in the caller,
            ``"drop-oldest"`` admits it and fails the oldest queued
            request instead.
    """

    max_batch: int = 64
    max_pending: int | None = None
    shed_policy: str = "reject-new"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be positive, got {self.max_batch}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError(
                f"max_pending must be positive or None, got {self.max_pending}"
            )
        if self.shed_policy not in _SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {_SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )


class _Group:
    """Pending requests sharing one ``k`` (rows kept in arrival order).

    ``deadlines`` holds each request's absolute deadline (or ``None``),
    ``seqs`` its global arrival number — a free slot and the
    drop-oldest policy both use the latter to find the oldest request
    across groups.
    """

    __slots__ = ("rows", "futures", "deadlines", "seqs")

    def __init__(self) -> None:
        self.rows: list[np.ndarray] = []
        self.futures: list[Future] = []
        self.deadlines: list[float | None] = []
        self.seqs: list[int] = []


class MicroBatcher:
    """Coalesce single ``(query, k)`` requests into batch flushes.

    Args:
        flush: callable ``flush(queries, k, futures, deadlines)``
            invoked on the batcher's background thread with a
            ``(rows, d)`` float64 matrix, the matching per-row futures,
            and the per-row absolute deadlines (``None`` where a request
            has no deadline).  It starts the batch and returns the
            batch's answer future without waiting for it; the batch
            holds a slot until that future resolves, with a result or
            an exception.  It must resolve every request future; an
            exception escaping ``flush`` itself is routed to the
            batch's futures and frees the slot.
        policy: the batch size limit plus admission bound.
        max_in_flight: how many batches the backend runs at once.  A
            backend that answers on the calling thread returns an
            already resolved future, so with it every flush runs as
            soon as the previous one returns.

    ``submit`` never blocks on query execution — it enqueues and, when
    the flusher can act on the arrival, wakes it.  Batches never exceed
    ``policy.max_batch`` rows: when requests outrun the backend, a group
    is split and the remainder waits for the next free slot (per-request
    deadlines keep counting down meanwhile).
    """

    def __init__(
        self,
        flush,
        policy: BatchPolicy | None = None,
        *,
        max_in_flight: int = 1,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be positive, got {max_in_flight}"
            )
        self._flush = flush
        self.policy = policy if policy is not None else BatchPolicy()
        self._max_in_flight = max_in_flight
        self._in_flight = 0
        self._cond = threading.Condition()
        self._pending: dict[int, _Group] = {}
        self._n_pending = 0
        self._seq = itertools.count()
        # When the sleeping flusher wakes on its own (the earliest
        # queued deadline; ``None``: only when notified).
        self._wake_at: float | None = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-microbatcher", daemon=True
        )
        self._thread.start()

    @property
    def n_pending(self) -> int:
        """Requests currently queued (admission-bound accounting)."""
        with self._cond:
            return self._n_pending

    def submit(
        self, query: np.ndarray, k: int, deadline: float | None = None
    ) -> Future:
        """Enqueue one request; the future resolves to its KnnResult.

        ``deadline`` is an absolute ``time.perf_counter()`` value; a
        request still queued past it fails with
        :class:`~repro.serve.errors.DeadlineExceeded`.  Raises
        :class:`~repro.serve.errors.ServerClosedError` after ``close``
        and :class:`~repro.serve.errors.ServerOverloaded` when the
        admission queue is full under ``reject-new``.
        """
        future: Future = Future()
        victim = None
        with self._cond:
            if self._closed:
                raise ServerClosedError("batcher is closed")
            bound = self.policy.max_pending
            if bound is not None and self._n_pending >= bound:
                if self.policy.shed_policy == "reject-new":
                    raise ServerOverloaded(
                        f"admission queue is full "
                        f"({self._n_pending} requests pending)"
                    )
                victim = self._drop_oldest_locked()
            group = self._pending.get(k)
            if group is None:
                group = self._pending[k] = _Group()
            group.rows.append(query)
            group.futures.append(future)
            group.deadlines.append(deadline)
            group.seqs.append(next(self._seq))
            self._n_pending += 1
            # Wake the flusher if a free slot can take this request now,
            # or if its sleep is armed past this request's deadline.
            if self._in_flight < self._max_in_flight or (
                deadline is not None
                and (self._wake_at is None or deadline < self._wake_at)
            ):
                self._cond.notify()
        if victim is not None:
            _fail(
                victim,
                ServerOverloaded(
                    "shed by drop-oldest admission policy to make room "
                    "for a newer request"
                ),
            )
        return future

    def close(self) -> None:
        """Flush everything still pending and stop the flusher thread.

        Queued requests are flushed even while every slot is busy; the
        caller waits for their answers (a pool's ``drain``), not the
        batcher.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify()
        self._thread.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queue maintenance (call with the lock held) -------------------

    def _oldest_k_locked(self) -> int:
        """The ``k`` whose group holds the oldest queued request."""
        return min(self._pending, key=lambda key: self._pending[key].seqs[0])

    def _drop_oldest_locked(self) -> Future:
        """Remove the oldest queued request; return its (unfailed) future."""
        k = self._oldest_k_locked()
        group = self._pending[k]
        group.rows.pop(0)
        future = group.futures.pop(0)
        group.deadlines.pop(0)
        group.seqs.pop(0)
        self._n_pending -= 1
        if not group.rows:
            del self._pending[k]
        return future

    def _collect_expired_locked(self, now: float) -> list[Future]:
        """Detach every queued request whose deadline has passed."""
        expired: list[Future] = []
        for k in list(self._pending):
            group = self._pending[k]
            if all(d is None or d > now for d in group.deadlines):
                continue
            keep = [
                i
                for i, d in enumerate(group.deadlines)
                if d is None or d > now
            ]
            expired.extend(
                group.futures[i]
                for i in range(len(group.futures))
                if group.deadlines[i] is not None
                and group.deadlines[i] <= now
            )
            self._n_pending -= len(group.rows) - len(keep)
            if not keep:
                del self._pending[k]
                continue
            group.rows = [group.rows[i] for i in keep]
            group.futures = [group.futures[i] for i in keep]
            group.deadlines = [group.deadlines[i] for i in keep]
            group.seqs = [group.seqs[i] for i in keep]
        return expired

    def _pop_ready(self) -> tuple[int, list, list, list] | None:
        """Detach the next batch ``(k, rows, futures, deadlines)``.

        ``None`` while nothing is queued or every slot is busy; after
        ``close`` the slots no longer gate the flush.  The batch takes
        a slot, which :meth:`_free_slot` returns.
        """
        if not self._pending or (
            self._in_flight >= self._max_in_flight and not self._closed
        ):
            return None
        k = self._oldest_k_locked()
        group = self._pending[k]
        cut = self.policy.max_batch
        if len(group.rows) > cut:
            rows = group.rows[:cut]
            futures = group.futures[:cut]
            deadlines = group.deadlines[:cut]
            group.rows = group.rows[cut:]
            group.futures = group.futures[cut:]
            group.deadlines = group.deadlines[cut:]
            group.seqs = group.seqs[cut:]
        else:
            del self._pending[k]
            rows, futures, deadlines = (
                group.rows, group.futures, group.deadlines
            )
        self._n_pending -= len(rows)
        self._in_flight += 1
        return k, rows, futures, deadlines

    def _next_wakeup(self, now: float) -> float | None:
        """Seconds until the earliest queued request deadline."""
        deadlines = [
            d
            for g in self._pending.values()
            for d in g.deadlines
            if d is not None
        ]
        if not deadlines:
            return None
        return min(deadlines) - now

    # -- flusher thread ------------------------------------------------

    def _run(self) -> None:
        while True:
            ready = None
            expired: list[Future] = []
            with self._cond:
                while True:
                    now = time.perf_counter()
                    expired = self._collect_expired_locked(now)
                    if expired:
                        break
                    ready = self._pop_ready()
                    if ready is not None:
                        break
                    if self._closed and not self._pending:
                        return
                    timeout = self._next_wakeup(now)
                    self._wake_at = None if timeout is None else now + timeout
                    if timeout is None or timeout > 0:
                        self._cond.wait(timeout)
            for future in expired:
                _fail(
                    future,
                    DeadlineExceeded(
                        "request deadline passed while queued for a batch"
                    ),
                )
            if ready is not None:
                k, rows, futures, deadlines = ready
                self._flush_one(k, rows, futures, deadlines)

    def _flush_one(
        self, k: int, rows: list, futures: list, deadlines: list
    ) -> None:
        try:
            answer = self._flush(np.stack(rows), k, futures, deadlines)
            answer.add_done_callback(self._free_slot)
        except Exception as error:  # route to the waiting callers
            self._free_slot()
            for future in futures:
                _fail(future, error)

    def _free_slot(self, _answer: Future | None = None) -> None:
        """A batch was answered (or never started): wake the flusher."""
        with self._cond:
            self._in_flight -= 1
            self._cond.notify()
