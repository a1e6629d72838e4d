"""Dynamic micro-batching of individually arriving k-NN requests.

Single-query traffic pays per-call overhead that the vectorized
``query_batch`` kernels amortize away; the :class:`MicroBatcher` closes
that gap by coalescing requests that arrive within a short window into
one batch.  The policy is the classic size-or-deadline rule: a batch is
flushed as soon as it holds :attr:`BatchPolicy.max_batch` requests *or*
its oldest request has waited :attr:`BatchPolicy.max_wait_ms`,
whichever happens first.  Requests with different ``k`` never share a
batch (``query_batch`` takes one ``k``), so pending requests are grouped
per ``k``.

Two robustness features ride on the same queue:

* **Per-request deadlines.**  ``submit`` accepts an absolute deadline
  (``time.perf_counter()`` seconds); a request still queued when its
  deadline passes has its future failed with
  :class:`~repro.serve.errors.DeadlineExceeded` instead of waiting for a
  flush that may never help it.  The flusher thread arms its sleep to
  the earliest of the flush deadlines *and* the request deadlines.
* **Bounded admission.**  When :attr:`BatchPolicy.max_pending` is set,
  the total number of queued requests never exceeds it.  An arrival
  that would overflow is handled per :attr:`BatchPolicy.shed_policy`:
  ``"reject-new"`` raises :class:`~repro.serve.errors.ServerOverloaded`
  in the submitting caller, ``"drop-oldest"`` admits the newcomer and
  fails the oldest queued request's future with the same error.

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
    """Flush and admission policy for the micro-batcher.

    Attributes:
        max_batch: flush a group as soon as it holds this many requests.
        max_wait_ms: flush a group once its oldest request has waited
            this long, even if the batch is not full.  ``0`` disables
            artificial waiting: a group is flushed as soon as the
            flusher thread gets to it, which still yields natural
            batching while a previous flush is in flight.
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
    max_wait_ms: float = 2.0
    max_pending: int | None = None
    shed_policy: str = "reject-new"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be positive, got {self.max_batch}"
            )
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be non-negative, got {self.max_wait_ms}"
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
    ``seqs`` its global arrival number — the drop-oldest policy uses the
    latter to find the oldest request across groups.
    """

    __slots__ = ("rows", "futures", "deadlines", "seqs", "flush_at")

    def __init__(self, flush_at: float) -> None:
        self.rows: list[np.ndarray] = []
        self.futures: list[Future] = []
        self.deadlines: list[float | None] = []
        self.seqs: list[int] = []
        self.flush_at = flush_at


class MicroBatcher:
    """Coalesce single ``(query, k)`` requests into batch flushes.

    Args:
        flush: callable ``flush(queries, k, futures, deadlines)``
            invoked on the batcher's background thread with a
            ``(rows, d)`` float64 matrix, the matching per-row futures,
            and the per-row absolute deadlines (``None`` where a request
            has no deadline).  It must resolve every future (result or
            exception); an exception escaping ``flush`` itself is routed
            to the batch's futures.
        policy: the size/deadline flush policy plus admission bound.

    ``submit`` never blocks on query execution — it enqueues and wakes
    the flusher.  Batches never exceed ``policy.max_batch`` rows: when
    requests outrun the flusher, an oversized group is split and the
    remainder is re-armed with a fresh flush deadline (per-request
    deadlines are untouched by the re-arm and keep counting down).
    """

    def __init__(self, flush, policy: BatchPolicy | None = None) -> None:
        self._flush = flush
        self.policy = policy if policy is not None else BatchPolicy()
        self._cond = threading.Condition()
        self._pending: dict[int, _Group] = {}
        self._n_pending = 0
        self._seq = itertools.count()
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
                flush_at = time.perf_counter() + self.policy.max_wait_ms / 1e3
                group = _Group(flush_at)
                self._pending[k] = group
                self._cond.notify()
            group.rows.append(query)
            group.futures.append(future)
            group.deadlines.append(deadline)
            group.seqs.append(next(self._seq))
            self._n_pending += 1
            if deadline is not None:
                # The flusher's sleep may be armed past this deadline;
                # wake it so it re-arms to the new earliest wakeup.
                self._cond.notify()
            if len(group.rows) >= self.policy.max_batch:
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
        """Flush everything still pending and stop the flusher thread."""
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

    def _drop_oldest_locked(self) -> Future:
        """Remove the oldest queued request; return its (unfailed) future."""
        k = min(self._pending, key=lambda key: self._pending[key].seqs[0])
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

    def _pop_ready(self, now: float) -> tuple[int, list, list, list] | None:
        """Detach one flushable ``(k, rows, futures, deadlines)``."""
        for k, group in self._pending.items():
            full = len(group.rows) >= self.policy.max_batch
            if not (full or group.flush_at <= now or self._closed):
                continue
            if len(group.rows) > self.policy.max_batch:
                cut = self.policy.max_batch
                rows = group.rows[:cut]
                futures = group.futures[:cut]
                deadlines = group.deadlines[:cut]
                group.rows = group.rows[cut:]
                group.futures = group.futures[cut:]
                group.deadlines = group.deadlines[cut:]
                group.seqs = group.seqs[cut:]
                # The survivors arrived while the flusher was busy; give
                # them a full wait window rather than an instant flush.
                # Their own request deadlines keep counting down.
                group.flush_at = now + self.policy.max_wait_ms / 1e3
                self._n_pending -= cut
                return k, rows, futures, deadlines
            del self._pending[k]
            self._n_pending -= len(group.rows)
            return k, group.rows, group.futures, group.deadlines
        return None

    def _next_wakeup(self, now: float) -> float | None:
        """Seconds until the earliest flush or request deadline."""
        candidates = [g.flush_at for g in self._pending.values()]
        candidates.extend(
            d
            for g in self._pending.values()
            for d in g.deadlines
            if d is not None
        )
        if not candidates:
            return None
        return min(candidates) - now

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
                    ready = self._pop_ready(now)
                    if ready is not None:
                        break
                    if self._closed and not self._pending:
                        return
                    timeout = self._next_wakeup(now)
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
            self._flush(np.stack(rows), k, futures, deadlines)
        except Exception as error:  # route to the waiting callers
            for future in futures:
                _fail(future, error)

