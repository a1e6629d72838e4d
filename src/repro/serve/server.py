"""The serving facade: snapshot in, bit-identical answers out.

One request pipeline serves every deployment, read-only or mutable:

    submit --> [LRU cache] --> micro-batcher --\\
                                                 >--> batch backend
    query_batch --------------------------------/

A *batch backend* is anything with :meth:`WorkerPool.submit`'s
signature, ``submit(queries, k, *, deadline) -> Future[BatchKnnResult]``.
:class:`IndexServer` runs the pipeline over one snapshot, answered by a
:class:`~repro.serve.pool.WorkerPool` or, with ``n_workers=0``, by the
in-process index on the batcher thread (no IPC, still micro-batched);
these two snapshot backends also take an optional ``live`` row mask,
which a mutable server passes for kinds with a masked scan;
:class:`~repro.shard.server.ShardedIndexServer` runs the same pipeline
over a fan-out to every shard.
:class:`~repro.serve.mutation.MutableIndexServer` runs it over a
memtable merge (one snapshot generation plus the un-compacted writes),
and :class:`~repro.shard.mutation.MutableShardedServer` over a fan-out
to such merges.  Every way, one batcher, one reaper and one ledger
serve each request.

``submit(query, k)`` returns a future for one
:class:`~repro.search.results.KnnResult`; ``query`` is the blocking
convenience.  Requests are validated synchronously (bad input raises in
the caller, exactly like ``index.query``), then either answered from the
LRU cache or coalesced by the micro-batcher into one backend batch.

Failure model — every degradation path is loud and typed, and every
submitted future resolves:

* ``deadline_ms`` (per request, or the server-wide default) bounds the
  end-to-end wait; a request that cannot be answered in time fails with
  :class:`~repro.serve.errors.DeadlineExceeded` — while queued, while a
  worker holds it, or at delivery if the answer arrived too late.  A
  dedicated reaper thread releases each deadlined caller *at its own
  deadline*, even when its batch (mixed with later- or no-deadline
  neighbors) is still executing, so a blocked ``future.result()`` never
  outlives the deadline by more than scheduling noise.
* ``policy.max_pending`` bounds admission; an overflowing request is
  shed per ``policy.shed_policy`` with
  :class:`~repro.serve.errors.ServerOverloaded`.  Requests wait in the
  batcher until the backend has a free slot, so this bounds a pooled
  server's backlog too.
* crashed workers restart and their batches are resubmitted (at most
  once each); a *hung* worker is detected by the ``heartbeat_timeout``
  and killed into the same recovery path.
* submission after ``close()`` raises
  :class:`~repro.serve.errors.ServerClosedError`.

Everything downstream preserves the repo-wide bit-identity contract:
the batch kernels answer exactly like sequential ``query``, snapshot
loading is bit-identical to the builder, and the cache stores the very
result objects it replays — so a served answer never differs from
``index.query(query, k)`` on the freshly built index.  Degradation
sheds or fails requests; it never answers approximately.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from concurrent.futures import CancelledError, Future

from repro.search.results import (
    BatchKnnResult,
    KnnResult,
    validate_k,
    validate_queries,
    validate_query,
)
from repro.search.snapshot import snapshot_kind
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.cache import (
    ResultCache,
    result_cache_key,
    snapshot_fingerprint,
)
from repro.serve.errors import (
    DeadlineExceeded,
    ServerClosedError,
    ServerOverloaded,
    _complete,
    _fail,
)
from repro.serve.pool import _MMAP_POINTS, WorkerPool, _load_snapshot_index
from repro.serve.stats import ServingReport, ServingStats

# How long close() waits for a pool's in-flight batches before failing them.
_DRAIN_SECONDS = 30.0


class _ServingPipeline:
    """The request path shared by every server class.

    Validation, the result cache with stampede coalescing, micro-batcher
    admission, the deadline reaper, the :class:`ServingStats` ledger and
    the explicit ``query_batch`` live here once.  A subclass supplies
    ``n_points`` and ``dimensionality`` and calls :meth:`_start` with its
    batch backend once that is built.
    """

    def __init__(
        self,
        *,
        policy: BatchPolicy | None,
        cache_capacity: int,
        default_deadline_ms: float | None,
    ) -> None:
        if cache_capacity < 0:
            raise ValueError(
                f"cache_capacity must be non-negative, got {cache_capacity}"
            )
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError(
                "default_deadline_ms must be positive or None, "
                f"got {default_deadline_ms}"
            )
        self.default_deadline_ms = default_deadline_ms
        self._policy = policy
        self._cache = (
            ResultCache(cache_capacity) if cache_capacity else None
        )
        # Stampede coalescing: cache key -> future of the one in-flight
        # computation for that key.  Concurrent identical misses attach
        # to it instead of enqueueing duplicate batch rows.
        self._inflight_lock = threading.Lock()
        self._inflight_by_key: dict = {}
        self._stats = ServingStats()
        self._closed = False

    def _start(self, backend, pools: list, n_workers: int) -> None:
        """Attach the batch backend and start the batcher and reaper.

        ``pools`` are what :meth:`close` drains and then closes, and
        whose restart counters join the report: the worker pools behind
        ``backend``, or mutable backends, which drain and close the
        pool of whichever generation they serve.  ``n_workers`` is the
        server's worker count (per shard: a fan-out batch takes one
        worker in every shard), so the batcher keeps that many batches
        in flight, and one when the backend answers in-process (``0``).
        """
        self._backend = backend
        self._pools = pools
        self._batcher = MicroBatcher(
            self._flush, self._policy, max_in_flight=max(1, n_workers)
        )
        self._reaper = _DeadlineReaper()

    # -- introspection -------------------------------------------------

    @property
    def policy(self) -> BatchPolicy:
        return self._batcher.policy

    def stats(self) -> ServingReport:
        """Current serving metrics (cache and pool counters merged in)."""
        counters = (0, 0, 0)
        if self._cache is not None:
            c = self._cache.counters
            counters = (c.hits, c.misses, c.evictions)
        pool_counters = (
            sum(pool.n_restarts for pool in self._pools),
            sum(pool.n_hung_kills for pool in self._pools),
            sum(pool.n_resubmitted for pool in self._pools),
        )
        return self._stats.report(
            cache_counters=counters, pool_counters=pool_counters
        )

    def reset_stats(self) -> None:
        """Restart the metrics clock (cache/pool counters are lifetime)."""
        self._stats.reset()

    # -- request paths -------------------------------------------------

    def submit(
        self, query, k: int = 1, *, deadline_ms: float | None = None
    ) -> Future:
        """Enqueue one query; the future resolves to its KnnResult.

        Validation happens here, synchronously — malformed queries and
        out-of-range ``k`` raise ``ValueError`` exactly like
        ``index.query`` would; a full admission queue raises
        :class:`~repro.serve.errors.ServerOverloaded` under the
        ``reject-new`` policy.  ``deadline_ms`` (falling back to the
        server's ``default_deadline_ms``) bounds the end-to-end wait:
        past it the future fails with
        :class:`~repro.serve.errors.DeadlineExceeded` instead of waiting
        forever.
        """
        self._require_open()
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_points)
        started = time.perf_counter()
        deadline = self._deadline(deadline_ms, started)
        key = None
        slot = None
        if self._cache is not None:
            key = result_cache_key(vector, k, self.fingerprint)
            hit = self._cache.get(key)
            if hit is not None:
                self._stats.record_request(time.perf_counter() - started)
                future: Future = Future()
                future.set_result(hit)
                return future
            # Stampede coalescing: if an identical request is already in
            # flight, follow it instead of enqueueing a duplicate batch
            # row.  The follower mirrors the leader's outcome (result or
            # typed failure) but keeps its *own* deadline — the reaper
            # can still release it earlier than the leader resolves.
            with self._inflight_lock:
                leader = self._inflight_by_key.get(key)
                if leader is None:
                    slot = Future()
                    self._inflight_by_key[key] = slot
            if leader is not None:
                follower: Future = Future()
                if deadline is not None:
                    self._reaper.watch(follower, deadline)
                follower.add_done_callback(
                    lambda f: self._finish_request(f, None, started)
                )
                leader.add_done_callback(
                    lambda f: _mirror_outcome(f, follower)
                )
                return follower
        try:
            future = self._batcher.submit(vector, k, deadline=deadline)
        except ServerOverloaded:
            self._stats.record_shed()
            if slot is not None:
                self._clear_inflight(key)
                _fail(slot, ServerOverloaded(
                    "coalesced leader was shed by admission control"
                ))
            raise
        if deadline is not None:
            # The batcher enforces the deadline while the request is
            # queued; the reaper enforces it for the rest of its life —
            # including while a coalesced batch with later- or
            # no-deadline neighbors is still executing, where no
            # backend-side batch deadline can act for this member alone.
            self._reaper.watch(future, deadline)
        future.add_done_callback(
            lambda f: self._finish_request(f, key, started)
        )
        if slot is not None:
            # After _finish_request (so the cache put has happened): any
            # follower that arrives post-resolution hits the cache; the
            # tiny window between put and de-registration at worst lets
            # a fresh leader recompute, never answer wrongly.
            future.add_done_callback(
                lambda f: self._release_leader(f, key, slot)
            )
        return future

    def query(self, query, k: int = 1, *, deadline_ms: float | None = None) -> KnnResult:
        """Blocking single-query convenience around :meth:`submit`."""
        return self.submit(query, k=k, deadline_ms=deadline_ms).result()

    def query_batch(
        self, queries, k: int = 1, *, deadline_ms: float | None = None
    ) -> BatchKnnResult:
        """One explicit batch, bypassing the micro-batcher.

        Callers that already hold a batch need no coalescing: the batch
        goes to the backend as one call, without waiting for a batcher
        slot or counting against one.  Recorded in
        the batch histogram but not in the single-request latency
        percentiles.  Explicit batches bypass admission control, but
        honor the same deadline contract as :meth:`query`:
        ``deadline_ms`` (falling back to ``default_deadline_ms``) bounds
        the whole batch with
        :class:`~repro.serve.errors.DeadlineExceeded`.  A pooled backend
        can cut a hung worker loose mid-compute; in-process compute
        cannot be preempted, so there the deadline is enforced on
        completion — a blown deadline raises rather than returning an
        answer the caller declared too late to use.
        """
        self._require_open()
        array = validate_queries(queries, self.dimensionality)
        k = validate_k(k, self.n_points)
        deadline = self._deadline(deadline_ms, time.perf_counter())
        try:
            batch = self._backend.submit(array, k, deadline=deadline).result()
            if deadline is not None and time.perf_counter() > deadline:
                raise DeadlineExceeded(
                    "explicit batch was answered after its deadline"
                )
        except DeadlineExceeded:
            self._stats.record_deadline_exceeded()
            raise
        self._stats.record_batch(len(batch), batch.stats)
        return batch

    # -- internals -----------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ServerClosedError("server is closed")

    def _deadline(self, deadline_ms: float | None, now: float) -> float | None:
        """Absolute deadline of a request submitted ``now`` (``None``: none)."""
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is None:
            return None
        if deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive or None, got {deadline_ms}"
            )
        return now + deadline_ms / 1e3

    def _clear_inflight(self, key) -> None:
        with self._inflight_lock:
            self._inflight_by_key.pop(key, None)

    def _release_leader(self, future: Future, key, slot: Future) -> None:
        """Leader done-callback: de-register the key, resolve followers."""
        self._clear_inflight(key)
        _mirror_outcome(future, slot)

    def _finish_request(self, future: Future, key, started: float) -> None:
        """Done-callback: classify the outcome and account it exactly once.

        Guarded by ``future.exception()`` so a failed batch can never
        raise inside the callback (which ``concurrent.futures`` would
        swallow into a log line), skip the cache put, *and* vanish from
        the stats — failures are first-class counted outcomes.  A future
        the caller cancelled is likewise counted (``n_cancelled``)
        rather than skipped, so the degradation ledger keeps balancing:
        every completed submission lands in exactly one column.
        """
        latency = time.perf_counter() - started
        if future.cancelled():
            self._stats.record_cancelled()
            return
        error = future.exception()
        if error is None:
            if key is not None:
                self._cache.put(key, future.result())
            self._stats.record_request(latency)
        elif isinstance(error, DeadlineExceeded):
            self._stats.record_deadline_exceeded()
        elif isinstance(error, ServerOverloaded):
            self._stats.record_shed()
        else:
            self._stats.record_failure()

    def _flush(self, queries, k: int, futures: list, deadlines: list) -> Future:
        """Micro-batcher flush hook: hand one coalesced batch to the backend.

        Releasing each member at its own deadline is the reaper's job
        (it watches every deadlined future from ``submit`` onward).  The
        backend's batch deadline is purely a discard optimisation: it is
        the latest member deadline, set only when *every* member carries
        one — by then no caller can use the answer, so the backend may
        drop the batch.  A mixed batch gets no batch deadline (its
        deadline-less members still need the answer, and a request must
        never inherit a neighbor's deadline).  Members are individually
        re-checked at delivery so a late answer is never delivered as a
        result.

        Returns the future whose resolution frees the batch's slot in
        the batcher.  It resolves as soon as the backend answers, before
        the members' results are built, so the next batch can start
        meanwhile.
        """
        finite = [d for d in deadlines if d is not None]
        batch_deadline = (
            max(finite) if len(finite) == len(deadlines) and finite else None
        )
        answer = self._backend.submit(queries, k, deadline=batch_deadline)
        answered: Future = Future()

        def deliver(done: Future) -> None:
            answered.set_result(None)
            self._distribute(done, futures, deadlines)

        answer.add_done_callback(deliver)
        return answered

    def _distribute(self, answer: Future, futures: list, deadlines: list) -> None:
        error = answer.exception()
        if error is not None:
            for future in futures:
                _fail(future, error)
            return
        batch = answer.result()
        self._stats.record_batch(len(futures), batch.stats)
        now = time.perf_counter()
        for future, result, deadline in zip(
            futures, batch.results, deadlines
        ):
            if future.done():
                continue
            if deadline is not None and now > deadline:
                # The answer exists but arrived late.  Deadline
                # semantics stay strict and uniform: resolve-with-result
                # happens before the deadline or not at all.
                _fail(
                    future,
                    DeadlineExceeded(
                        "answer arrived after the request deadline"
                    ),
                )
            else:
                _complete(future, result)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Flush pending requests, drain workers, stop everything."""
        if self._closed:
            return
        self._closed = True
        self._batcher.close()
        for pool in self._pools:
            pool.drain(_DRAIN_SECONDS)
            pool.close()
        # Last: the reaper must stay alive while draining so deadlined
        # callers blocked on in-flight batches are still released on
        # time.  (Leftover futures were failed by the pools above.)
        self._reaper.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class IndexServer(_ServingPipeline):
    """Serve single-query k-NN traffic from an index snapshot.

    Args:
        snapshot_path: ``.npz`` snapshot of any of the nine index kinds;
            its corpus is memory-mapped, in workers and for the
            in-process/metadata copy alike.
        n_workers: worker processes.  ``0`` serves in-process (no IPC,
            still micro-batched); ``>= 1`` runs a :class:`WorkerPool`
            whose workers share the mmap'd corpus through the page
            cache.
        policy: micro-batch size limit plus the admission bound
            (default :class:`BatchPolicy`).  A batch starts whenever
            fewer than ``max(1, n_workers)`` batches are in flight.
        cache_capacity: LRU result-cache entries; ``0`` disables the
            cache.
        heartbeat_timeout: seconds a worker may hold unanswered work
            without producing any response before it is declared hung
            and killed into the restart path (default 30; ``None``
            disables hang detection; size it above the worst-case
            single-batch compute time).  Only meaningful with
            ``n_workers >= 1`` — in-process flushes run on the batcher
            thread and cannot be preempted, though the deadline reaper
            still releases deadlined callers while one executes.
        default_deadline_ms: deadline applied to every ``submit`` that
            does not pass its own; ``None`` means no deadline.
        index_loader: fault-injection/test seam — a picklable
            ``loader(snapshot_path, mmap_points)`` used for whatever
            executes the queries: the in-process index when
            ``n_workers=0``, otherwise each pool worker.  The local
            metadata/validation copy always loads clean (see
            :mod:`repro.serve.faults`).
    """

    def __init__(
        self,
        snapshot_path: str,
        *,
        n_workers: int = 1,
        policy: BatchPolicy | None = None,
        cache_capacity: int = 0,
        heartbeat_timeout: float | None = 30.0,
        default_deadline_ms: float | None = None,
        index_loader=None,
    ) -> None:
        if n_workers < 0:
            raise ValueError(
                f"n_workers must be non-negative, got {n_workers}"
            )
        super().__init__(
            policy=policy,
            cache_capacity=cache_capacity,
            default_deadline_ms=default_deadline_ms,
        )
        self.snapshot_path = snapshot_path
        self.kind = snapshot_kind(snapshot_path)
        self.n_workers = int(n_workers)
        self.fingerprint = snapshot_fingerprint(snapshot_path)
        self._local, backend = _snapshot_backend(
            snapshot_path,
            n_workers,
            index_loader=index_loader,
            heartbeat_timeout=heartbeat_timeout,
        )
        pools = [backend] if isinstance(backend, WorkerPool) else []
        self._start(backend, pools, n_workers)

    @property
    def n_points(self) -> int:
        return self._local.n_points

    @property
    def dimensionality(self) -> int:
        return self._local.dimensionality


class _InlineIndex:
    """Batch backend that answers on the calling thread (``n_workers=0``).

    The returned future is already resolved.  ``deadline`` is accepted
    for the backend signature only: in-process compute cannot be
    preempted, so the pipeline enforces deadlines around it.  ``live``
    (a boolean row mask, for kinds with ``with_live``) answers over the
    marked rows only.
    """

    def __init__(self, index) -> None:
        self._index = index

    def submit(
        self, queries, k: int, *, deadline: float | None = None, live=None
    ) -> Future:
        future: Future = Future()
        try:
            index = self._index if live is None else self._index.with_live(live)
            future.set_result(index.query_batch(queries, k=k))
        except Exception as error:
            future.set_exception(error)
        return future


def _snapshot_backend(
    snapshot_path: str,
    n_workers: int,
    *,
    index_loader,
    heartbeat_timeout: float | None,
):
    """``(local index, batch backend)`` serving one snapshot.

    The local copy answers in-process (``n_workers=0``, through
    :class:`_InlineIndex`) and supplies the metadata that requests are
    validated against; with mmap the corpus bytes are shared with the
    workers rather than duplicated.  The ``index_loader`` seam only
    wraps whatever executes queries, so a pooled server's metadata copy
    must not consume the fault plan (or its one-shot marker claim) that
    is meant for the workers.
    """
    if n_workers == 0:
        loader = index_loader if index_loader is not None else _load_snapshot_index
        local = loader(snapshot_path, _MMAP_POINTS)
        return local, _InlineIndex(local)
    local = _load_snapshot_index(snapshot_path, _MMAP_POINTS)
    return local, WorkerPool(
        snapshot_path,
        n_workers,
        heartbeat_timeout=heartbeat_timeout,
        index_loader=index_loader,
    )


class _DeadlineReaper:
    """Fail watched futures with :class:`DeadlineExceeded` when due.

    The batcher can only expire a request while it is *queued*; once a
    coalesced batch is executing, a member whose neighbors have later
    (or no) deadlines has nothing downstream enforcing its own.  The
    reaper closes that gap: every deadlined future is watched from
    submission, and a dedicated thread — asleep until the earliest
    watched deadline — fails it the moment its deadline passes, unless
    an answer (or another failure) got there first.  Whoever resolves
    the future first wins; the loser is a silent no-op, so double
    enforcement with the batcher and the pool is harmless.

    A watch is forgotten the moment its future resolves: the heap holds
    only ``(deadline, seq)`` keys, the futures live in a ``seq`` map that
    a done-callback clears, and the heap is compacted once its dead keys
    outnumber the live ones.  Memory is therefore proportional to the
    in-flight deadlined requests, not to the requests submitted within
    one deadline window.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._heap: list[tuple[float, int]] = []
        self._watched: dict[int, Future] = {}
        self._seq = itertools.count()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-deadline-reaper", daemon=True
        )
        self._thread.start()

    def watch(self, future: Future, deadline: float) -> None:
        """Release ``future`` with ``DeadlineExceeded`` at ``deadline``."""
        with self._cond:
            if self._closed:
                return
            seq = next(self._seq)
            self._watched[seq] = future
            earliest = self._heap[0][0] if self._heap else None
            heapq.heappush(self._heap, (deadline, seq))
            if earliest is None or deadline < earliest:
                self._cond.notify()  # re-arm the sleep to the new earliest
        # Outside the lock: an already-resolved future runs the callback
        # right here, on this thread.
        future.add_done_callback(lambda _: self._forget(seq))

    def _forget(self, seq: int) -> None:
        """Done-callback: drop a resolved future; compact dead keys."""
        with self._cond:
            if self._watched.pop(seq, None) is None:
                return
            if len(self._heap) > 2 * len(self._watched):
                self._heap = [
                    key for key in self._heap if key[1] in self._watched
                ]
                heapq.heapify(self._heap)

    def close(self) -> None:
        """Stop the thread; pending watches are dropped, not failed."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify()
        self._thread.join()

    def _run(self) -> None:
        while True:
            due: list[Future] = []
            with self._cond:
                if self._closed:
                    return
                now = time.perf_counter()
                while self._heap:
                    deadline, seq = self._heap[0]
                    if seq in self._watched and deadline > now:
                        break
                    # Due, or dead: its future resolved and was forgotten.
                    heapq.heappop(self._heap)
                    future = self._watched.pop(seq, None)
                    if future is not None:
                        due.append(future)
                if not due:
                    timeout = (
                        self._heap[0][0] - now if self._heap else None
                    )
                    self._cond.wait(timeout)
                    continue
            # Failing a future runs its done-callbacks (stats, cache);
            # never do that while holding the condition lock.
            for future in due:
                _fail(
                    future,
                    DeadlineExceeded(
                        "request deadline passed before its answer was "
                        "delivered"
                    ),
                )


def _mirror_outcome(src: Future, dst: Future) -> None:
    """Copy a resolved future's outcome onto a dependent future.

    Used by stampede coalescing: a follower shares its leader's result
    or typed failure.  A cancelled leader surfaces as ``CancelledError``
    on the follower (set as an exception — the follower itself was not
    cancelled by its caller).  No-op wherever ``dst`` resolved first.
    """
    if src.cancelled():
        _fail(dst, CancelledError("coalesced leader request was cancelled"))
        return
    error = src.exception()
    if error is not None:
        _fail(dst, error)
    else:
        _complete(dst, src.result())

