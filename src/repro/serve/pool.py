"""Multiprocess workers serving one mmap'd index snapshot.

Each worker process ``load()``s the same snapshot with
``mmap_points=True``: the (typically dominant) corpus member stays on
disk and its pages are shared read-only through the OS page cache, so N
workers cost roughly one corpus of memory, not N.  Transport is plain
``multiprocessing`` queues — one request and one response queue per
worker, so a crashed worker can be replaced together with its queues
without another worker's traffic ever touching a lock the casualty may
have corrupted.

Reliability model:

* every submitted batch is tracked until its response arrives;
* a worker that dies (crash, OOM-kill, ``kill -9``) is detected by the
  dispatcher, its responses already produced are drained, a fresh
  worker is started in its slot, and the unanswered batches are
  resubmitted to the replacement — queries are read-only, so
  re-execution is always safe;
* a worker that *hangs* (stuck syscall, livelock, adversarial input) is
  detected by the heartbeat: when ``heartbeat_timeout`` is set and a
  worker has held dispatched-but-unanswered work for that long without
  producing *any* response, it is killed (SIGKILL) and the crash path
  above takes over — restart plus resubmission.  The evidence is
  per-slot and keyed on worker silence, not per-batch age, so a worker
  steadily draining a backlog (answering something every so often) is
  never mistaken for hung; and it survives request-deadline expiry —
  a batch whose deadline already passed (its future long failed) still
  counts as unanswered work, so a zombie worker is detected and
  replaced even after every caller has given up, instead of sitting in
  the pool absorbing fresh traffic.  The same unanswered-work count
  drives least-loaded routing, so new requests prefer healthy workers
  during the detection window;
* resubmission is bounded: a batch that has already been resubmitted
  :data:`_MAX_RESUBMITS` times (once) is failed with
  :class:`WorkerError` instead of being handed to yet another worker,
  so a poison batch cannot cycle the pool forever;
* a batch submitted with a ``deadline`` whose response has not arrived
  by then fails with :class:`~repro.serve.errors.DeadlineExceeded`
  (the worker's late answer, if any, is discarded — never delivered as
  a stale result);
* a worker that cannot even load the snapshot marks its slot fatal
  instead of entering a restart storm;
* :meth:`WorkerPool.close` shuts workers down gracefully (sentinel,
  join, then terminate stragglers) and fails any still-pending futures
  with :class:`WorkerError`; :meth:`WorkerPool.drain` lets callers wait
  for in-flight work first.

Timeout granularity: deadline and heartbeat checks run on the
dispatcher's liveness cadence (every poll iteration when idle, at least
every ``_LIVENESS_PERIOD_SECONDS`` under load), so enforcement lags the
nominal instant by at most that period — bounded, and documented rather
than hidden.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_module
import threading
import time
from concurrent.futures import Future

import numpy as np

from repro.search.snapshot import snapshot_kind
from repro.serve.errors import DeadlineExceeded, ServingError, _complete, _fail


# Second argument of every ``index_loader(snapshot_path, mmap_points)``
# call: the corpus is always memory-mapped (see the module docstring).
_MMAP_POINTS = True

# How many times one batch may be handed to a replacement worker after
# crashes or hangs before it fails with WorkerError: one bounded retry.
_MAX_RESUBMITS = 1

# Workers start by "fork" where the platform offers it (fast, and shares
# the parent's page-cache warmth), otherwise by "spawn".
try:
    _CONTEXT = multiprocessing.get_context("fork")
except ValueError:
    _CONTEXT = multiprocessing.get_context("spawn")


class WorkerError(ServingError):
    """A batch failed in (or never reached, or was abandoned by) a worker."""


def _load_snapshot_index(snapshot_path: str, mmap_points: bool):
    """Default worker-side loader: the plain snapshot round trip."""
    from repro.search.snapshot import load_index

    return load_index(snapshot_path, mmap_points=mmap_points)


def _worker_main(
    snapshot_path: str, requests, responses, index_loader
) -> None:
    """Worker loop: load the snapshot once, answer batches forever."""
    loader = index_loader if index_loader is not None else _load_snapshot_index
    try:
        index = loader(snapshot_path, _MMAP_POINTS)
    except Exception as error:
        responses.put((None, "fatal", f"{type(error).__name__}: {error}"))
        return
    while True:
        item = requests.get()
        if item is None:
            return
        batch_id, queries, k, live_bits = item
        try:
            answering = index
            if live_bits is not None:
                size, bits = live_bits
                live = np.unpackbits(bits, count=size).view(bool)
                answering = index.with_live(live)
            batch = answering.query_batch(queries, k=k)
            responses.put((batch_id, "ok", batch))
        except Exception as error:
            responses.put(
                (batch_id, "error", f"{type(error).__name__}: {error}")
            )


class _Slot:
    """One worker position: process + its private queues + assignments.

    ``assigned`` tracks batches with live futures for resubmission after
    a failure.  ``dispatched`` tracks every batch sent to the worker and
    not yet answered — unlike ``assigned`` it is *not* trimmed when a
    request deadline expires, because it models the work the process
    physically holds, which is what routing and hang detection must see
    even after the callers gave up.  ``quiet_since`` is the start of the
    worker's current silence: reset by every response, and by a dispatch
    that moves the slot from idle to busy.
    """

    __slots__ = ("process", "requests", "responses", "assigned",
                 "dispatched", "quiet_since", "fatal")

    def __init__(self, process, requests, responses) -> None:
        self.process = process
        self.requests = requests
        self.responses = responses
        self.assigned: set[int] = set()
        self.dispatched: set[int] = set()
        self.quiet_since = time.perf_counter()
        self.fatal = False


class _Inflight:
    __slots__ = ("queries", "k", "live_bits", "future", "deadline",
                 "resubmits")

    def __init__(self, queries, k, live_bits, future, deadline) -> None:
        self.queries = queries
        self.k = k
        self.live_bits = live_bits
        self.future = future
        self.deadline = deadline
        self.resubmits = 0


class WorkerPool:
    """A fixed-size pool of snapshot-serving worker processes.

    Workers start by ``"fork"`` where the platform offers it, otherwise
    by ``"spawn"``.  A dead worker is always replaced and its unanswered
    batches resubmitted, each at most :data:`_MAX_RESUBMITS` times.

    Args:
        snapshot_path: ``.npz`` index snapshot every worker loads; it is
            validated up front so a typo fails in the caller, not in N
            workers.
        n_workers: worker processes (>= 1).
        heartbeat_timeout: seconds a worker may hold unanswered work
            without producing *any* response before it is declared
            hung, killed, and replaced (batches with live futures are
            resubmitted like a crash).  Detection keys on worker
            silence, not per-batch age — a worker draining a backlog
            resets the clock with every answer — and is independent of
            request deadlines, so a stuck worker is replaced even after
            its batches' deadlines expired.  Must exceed the worst-case
            compute time of a *single* batch.  ``None`` disables hang
            detection — a genuinely stuck worker then strands its
            batches, which is the pre-hardening behavior.
        index_loader: picklable ``loader(snapshot_path, mmap_points)``
            callable each worker uses instead of the default snapshot
            load.  This is the fault-injection seam used by
            :mod:`repro.serve.faults` and the robustness bench; leave
            ``None`` in production.
    """

    _POLL_SECONDS = 0.002
    _LIVENESS_PERIOD_SECONDS = 0.05

    def __init__(
        self,
        snapshot_path: str,
        n_workers: int = 1,
        *,
        heartbeat_timeout: float | None = None,
        index_loader=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                "heartbeat_timeout must be positive or None, "
                f"got {heartbeat_timeout}"
            )
        snapshot_kind(snapshot_path)  # raises SnapshotError early
        self.snapshot_path = snapshot_path
        self.n_workers = int(n_workers)
        self.heartbeat_timeout = heartbeat_timeout
        self._index_loader = index_loader
        self._lock = threading.Lock()
        self._inflight: dict[int, _Inflight] = {}
        self._ids = itertools.count()
        self._rr = itertools.count()
        self._restarts = 0
        self._hung_kills = 0
        self._resubmitted = 0
        self._closing = threading.Event()
        self._slots = [self._start_slot() for _ in range(self.n_workers)]
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-pool-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    # -- lifecycle -----------------------------------------------------

    def _start_slot(self) -> _Slot:
        requests = _CONTEXT.Queue()
        responses = _CONTEXT.Queue()
        process = _CONTEXT.Process(
            target=_worker_main,
            args=(self.snapshot_path, requests, responses, self._index_loader),
            daemon=True,
        )
        process.start()
        return _Slot(process, requests, responses)

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until no batches are in flight; ``True`` on success."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with self._lock:
                if not self._inflight:
                    return True
            time.sleep(self._POLL_SECONDS)
        with self._lock:
            return not self._inflight

    def close(self, timeout: float = 5.0) -> None:
        """Stop workers, fail leftover futures, join the dispatcher."""
        if self._closing.is_set():
            return
        self._closing.set()
        for slot in self._slots:
            try:
                slot.requests.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.perf_counter() + timeout
        for slot in self._slots:
            slot.process.join(max(0.0, deadline - time.perf_counter()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(1.0)
        self._dispatcher.join(timeout)
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
        for entry in leftovers:
            _fail(entry.future, WorkerError("worker pool is closed"))

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ----------------------------------------------------

    def submit(
        self, queries, k: int, *, deadline: float | None = None, live=None
    ) -> Future:
        """Send one batch to a worker; resolves to a ``BatchKnnResult``.

        The rows are forwarded verbatim to ``index.query_batch`` in the
        worker, so answers (and validation errors, surfaced as
        :class:`WorkerError`) match a local call exactly.  ``deadline``
        is an absolute ``time.perf_counter()`` value: if no response has
        arrived by then the future fails with
        :class:`~repro.serve.errors.DeadlineExceeded` and any late
        worker answer is discarded.  ``live`` is an optional boolean
        mask over the snapshot's rows, for kinds with ``with_live``: the
        worker answers through ``index.with_live(live)``, which rejects
        a mask of the wrong length.  It travels as its length and packed
        bits (one bit per row) and is kept for a resubmission.
        """
        array = np.asarray(queries, dtype=np.float64)
        live_bits = None if live is None else (len(live), np.packbits(live))
        future: Future = Future()
        now = time.perf_counter()
        with self._lock:
            if self._closing.is_set():
                raise WorkerError("worker pool is closed")
            usable = [s for s in self._slots if not s.fatal]
            if not usable:
                raise WorkerError(
                    "no usable workers (snapshot failed to load)"
                )
            # Least-loaded by *unanswered* dispatches (not live futures:
            # a hung worker whose batches all expired must still look
            # busy); rotate the tie-break so equally idle workers share
            # traffic.
            offset = next(self._rr) % len(usable)
            slot = min(
                (usable[(i + offset) % len(usable)]
                 for i in range(len(usable))),
                key=lambda s: len(s.dispatched),
            )
            batch_id = next(self._ids)
            entry = _Inflight(array, k, live_bits, future, deadline)
            self._inflight[batch_id] = entry
            self._dispatch_locked(slot, batch_id, entry, now)
        return future

    def _dispatch_locked(
        self, slot: _Slot, batch_id: int, entry: _Inflight, now: float
    ) -> None:
        """Hand one batch to a slot's worker (caller holds the lock)."""
        if not slot.dispatched:
            # Idle -> busy: the silence clock starts at this dispatch,
            # not at whatever the slot last did.
            slot.quiet_since = now
        slot.dispatched.add(batch_id)
        slot.assigned.add(batch_id)
        slot.requests.put((batch_id, entry.queries, entry.k, entry.live_bits))

    @property
    def n_restarts(self) -> int:
        """Workers replaced after a crash or hang, over the pool's lifetime."""
        return self._restarts

    @property
    def n_hung_kills(self) -> int:
        """Workers killed by the heartbeat for holding a batch too long."""
        return self._hung_kills

    @property
    def n_resubmitted(self) -> int:
        """Orphaned batches handed to a replacement worker."""
        return self._resubmitted

    def worker_pids(self) -> list[int]:
        """Current worker process ids (test/ops hook)."""
        return [slot.process.pid for slot in self._slots]

    # -- dispatch ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        last_liveness = time.perf_counter()
        while not self._closing.is_set():
            progressed = False
            for slot in self._slots:
                try:
                    item = slot.responses.get_nowait()
                except (queue_module.Empty, OSError, ValueError):
                    continue
                progressed = True
                self._resolve(slot, item)
            now = time.perf_counter()
            if (
                not progressed
                or now - last_liveness > self._LIVENESS_PERIOD_SECONDS
            ):
                self._check_timeouts(now)
                self._check_workers()
                last_liveness = now
            if not progressed:
                time.sleep(self._POLL_SECONDS)

    def _resolve(self, slot: _Slot, item) -> None:
        batch_id, status, payload = item
        if batch_id is None:  # the worker could not load the snapshot
            slot.fatal = True
            self._fail_slot(slot, WorkerError(payload))
            return
        with self._lock:
            # Any response is liveness evidence, even one for a batch
            # whose callers already gave up.
            slot.dispatched.discard(batch_id)
            slot.quiet_since = time.perf_counter()
            entry = self._inflight.pop(batch_id, None)
            slot.assigned.discard(batch_id)
        if entry is None:  # duplicate after a crash-resubmit race, or a
            return        # late answer for an expired-deadline batch
        if status == "ok":
            _complete(entry.future, payload)
        else:
            _fail(entry.future, WorkerError(payload))

    def _fail_slot(self, slot: _Slot, error: WorkerError) -> None:
        with self._lock:
            pending = [
                self._inflight.pop(batch_id)
                for batch_id in sorted(slot.assigned)
                if batch_id in self._inflight
            ]
            slot.assigned.clear()
        for entry in pending:
            _fail(entry.future, error)

    def _check_timeouts(self, now: float) -> None:
        """Enforce batch deadlines and the hung-worker heartbeat."""
        expired: list[_Inflight] = []
        hung: list[_Slot] = []
        with self._lock:
            for batch_id, entry in list(self._inflight.items()):
                if entry.deadline is not None and now > entry.deadline:
                    expired.append(self._inflight.pop(batch_id))
                    # Only ``assigned`` is trimmed: the worker still
                    # physically holds the batch, so it stays in
                    # ``dispatched`` as hang evidence and routing load.
                    for slot in self._slots:
                        slot.assigned.discard(batch_id)
            if self.heartbeat_timeout is not None:
                for slot in self._slots:
                    if slot.fatal or not slot.process.is_alive():
                        continue
                    if (
                        slot.dispatched
                        and now - slot.quiet_since > self.heartbeat_timeout
                    ):
                        hung.append(slot)
        for entry in expired:
            _fail(
                entry.future,
                DeadlineExceeded(
                    "batch deadline passed before a worker answered"
                ),
            )
        for slot in hung:
            # SIGKILL, not SIGTERM: a hung worker may be unresponsive to
            # polite signals.  The dead-worker path below then drains
            # its completed answers, restarts the slot, and resubmits.
            self._hung_kills += 1
            slot.process.kill()

    def _check_workers(self) -> None:
        for position, slot in enumerate(self._slots):
            if slot.process.is_alive() or self._closing.is_set():
                continue
            # Resolve whatever the worker managed to answer before dying.
            while True:
                try:
                    item = slot.responses.get_nowait()
                except (queue_module.Empty, OSError, ValueError):
                    break
                self._resolve(slot, item)
            if slot.fatal:
                continue  # known-unserviceable snapshot; never restart
            replacement = self._start_slot()
            doomed: list[_Inflight] = []
            with self._lock:
                self._restarts += 1
                orphaned = sorted(slot.assigned)
                self._slots[position] = replacement
                now = time.perf_counter()
                for batch_id in orphaned:
                    entry = self._inflight.get(batch_id)
                    if entry is None:
                        continue
                    if entry.resubmits >= _MAX_RESUBMITS:
                        # Poison-batch guard: this batch has already
                        # consumed its retry budget across worker
                        # failures; fail it loudly instead of cycling
                        # the pool forever.
                        doomed.append(self._inflight.pop(batch_id))
                        continue
                    entry.resubmits += 1
                    self._resubmitted += 1
                    self._dispatch_locked(replacement, batch_id, entry, now)
            for entry in doomed:
                _fail(
                    entry.future,
                    WorkerError(
                        f"batch abandoned after {entry.resubmits + 1} worker "
                        f"failures (at most {_MAX_RESUBMITS} resubmit)"
                    ),
                )

