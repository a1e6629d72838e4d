"""Scatter-gather serving over sharded index snapshots.

:class:`ShardedIndexServer` is the coordinator that makes S shard
snapshots answer like one big index.  It owns one
:class:`~repro.serve.server.IndexServer` per shard *replica* (R >= 1
replicas per shard, each with its own worker pool and micro-batcher),
fans every request out to one replica of every shard, and merges the
per-shard top-k by ``(distance, global id)`` — bit-identical to the
unsharded index, including tie ordering, with per-shard
:class:`~repro.search.results.QueryStats` summed.

The coordinator composes with the PR 4-5 hardening rather than
re-implementing it:

* **Per-shard deadlines.**  A request deadline is fixed once at the
  coordinator; each shard sub-request carries the *remaining* budget,
  so every member micro-batcher/pool/reaper enforces the same absolute
  instant.  The coordinator runs its own deadline reaper as well, so a
  blocked caller is released at the deadline even while shards are
  mid-flight.
* **Partial-failure policy.**  A failed shard fails the whole request
  with a typed :class:`~repro.serve.errors.ShardError` (original
  failure chained as ``__cause__``).  A partial merge over the
  surviving shards could silently *drop true neighbors*, so it is never
  returned — the repo-wide contract is fail loudly, not approximately.
  Deadline and overload failures keep their own types
  (:class:`DeadlineExceeded`, :class:`ServerOverloaded`) so the caller's
  ledger stays meaningful.
* **Bounded admission at the coordinator.**  ``max_pending`` bounds the
  number of outstanding scatter-gather requests; overflow is shed per
  ``shed_policy`` (``reject-new`` raises in the caller, ``drop-oldest``
  fails the oldest outstanding request).  Member servers run unbounded
  by default — the coordinator is the single admission point, so a
  burst is shed once instead of S times.
* **Hot-shard replica routing.**  With ``replicas=R``, each shard's
  sub-request goes to the replica with the fewest outstanding
  sub-requests (ties rotate), so a slow or hot replica sheds load to
  its peers while both stay bit-identical sources.

The degradation ledger (:meth:`stats`) accounts every submitted request
exactly once: answered, failed, shed, deadline-exceeded, or cancelled.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

from repro.search.results import (
    BatchKnnResult,
    KnnResult,
    QueryStats,
    combine_stats,
    validate_k,
    validate_queries,
    validate_query,
)
from repro.serve.errors import (
    DeadlineExceeded,
    ServerClosedError,
    ServerOverloaded,
    ShardError,
)
from repro.serve.server import (
    IndexServer,
    _complete,
    _DeadlineReaper,
    _fail,
)
from repro.serve.stats import ServingReport, ServingStats
from repro.shard.merge import merge_batches, merge_results
from repro.shard.partition import (
    ShardManifest,
    ShardManifestError,
    load_manifest,
)

_SHED_POLICIES = ("reject-new", "drop-oldest")


def _shard_error(position: int, error: BaseException) -> Exception:
    """Map one shard's failure onto the coordinator request's failure.

    Deadline and overload failures keep their types (they describe the
    *request*, not a broken shard); everything else becomes a
    :class:`ShardError` naming the shard, with the original chained.
    """
    if isinstance(error, (DeadlineExceeded, ServerOverloaded)):
        return error
    wrapped = ShardError(
        f"shard {position} failed: {type(error).__name__}: {error}"
    )
    wrapped.__cause__ = error if isinstance(error, Exception) else None
    return wrapped


def _member_batch(server, queries, k: int, deadline: float | None):
    """One member's explicit batch under the coordinator's deadline."""
    if deadline is None:
        return server.query_batch(queries, k)
    remaining_ms = (deadline - time.perf_counter()) * 1e3
    if remaining_ms <= 0.0:
        raise DeadlineExceeded(
            "request deadline passed before the shard batch started"
        )
    return server.query_batch(queries, k, deadline_ms=remaining_ms)


class _ShardMember:
    """One shard: its global ids plus R replica servers and their load."""

    __slots__ = ("position", "ids", "replicas", "loads")

    def __init__(self, position, ids, replicas) -> None:
        self.position = position
        self.ids = ids
        self.replicas = replicas
        self.loads = [0] * len(replicas)

    @property
    def n_points(self) -> int:
        return int(self.ids.size)


class _Gather:
    """Per-request aggregator: merge when all shards answer, else fail."""

    __slots__ = ("_future", "_ids", "_k", "_results", "_remaining",
                 "_failed", "_lock")

    def __init__(self, future, shard_ids, k) -> None:
        self._future = future
        self._ids = shard_ids
        self._k = k
        self._results: list[KnnResult | None] = [None] * len(shard_ids)
        self._remaining = len(shard_ids)
        self._failed = False
        self._lock = threading.Lock()

    def shard_done(self, position: int, result: KnnResult) -> None:
        with self._lock:
            self._results[position] = result
            self._remaining -= 1
            ready = self._remaining == 0 and not self._failed
        if ready:
            _complete(
                self._future,
                merge_results(self._results, self._ids, self._k),
            )

    def shard_failed(self, position: int, error: BaseException) -> None:
        with self._lock:
            self._remaining -= 1
            already = self._failed
            self._failed = True
        if not already:
            _fail(self._future, _shard_error(position, error))


class ShardedIndexServer:
    """Serve one corpus from S shard snapshots, bit-identically.

    Args:
        manifest: a :class:`~repro.shard.partition.ShardManifest`, or a
            path to a ``shards.json`` manifest (or the directory holding
            one) written by :func:`~repro.shard.partition.build_shards`.
        n_workers: worker processes *per replica server* (``0`` serves
            each shard in-process, still micro-batched).
        replicas: replica servers per shard (>= 1); requests route to
            the least-loaded replica of each shard.
        policy: member micro-batching policy, forwarded to every replica
            server.  Admission is bounded at the *coordinator* via
            ``max_pending`` below, not through this policy.
        max_pending: bound on outstanding scatter-gather requests at the
            coordinator; ``None`` leaves admission unbounded.
        shed_policy: ``"reject-new"`` (raise in the caller) or
            ``"drop-oldest"`` (fail the oldest outstanding request).
        cache_capacity / mmap_points / start_method / restart_crashed /
        heartbeat_timeout / max_resubmits / index_loader: forwarded to
            every member :class:`IndexServer`.
        default_deadline_ms: deadline applied to every ``submit`` that
            does not pass its own; ``None`` means no deadline.
    """

    def __init__(
        self,
        manifest: ShardManifest | str,
        *,
        n_workers: int = 1,
        replicas: int = 1,
        policy=None,
        max_pending: int | None = None,
        shed_policy: str = "reject-new",
        cache_capacity: int = 0,
        mmap_points: bool = True,
        start_method: str | None = None,
        restart_crashed: bool = True,
        heartbeat_timeout: float | None = 30.0,
        max_resubmits: int = 1,
        default_deadline_ms: float | None = None,
        index_loader=None,
    ) -> None:
        if isinstance(manifest, str):
            manifest = load_manifest(manifest)
        if replicas < 1:
            raise ValueError(f"replicas must be positive, got {replicas}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(
                f"max_pending must be positive or None, got {max_pending}"
            )
        if shed_policy not in _SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {_SHED_POLICIES}, "
                f"got {shed_policy!r}"
            )
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError(
                "default_deadline_ms must be positive or None, "
                f"got {default_deadline_ms}"
            )
        self.manifest = manifest
        self.kind = manifest.kind
        self.n_replicas = int(replicas)
        self.default_deadline_ms = default_deadline_ms
        self._max_pending = max_pending
        self._shed_policy = shed_policy
        self._lock = threading.Lock()
        self._outstanding: OrderedDict[int, Future] = OrderedDict()
        self._req_ids = itertools.count()
        self._rr = itertools.count()
        self._stats = ServingStats()
        self._closed = False
        self._shards: list[_ShardMember] = []
        try:
            for position, spec in enumerate(manifest.shards):
                ids = spec.load_ids()
                members = [
                    IndexServer(
                        spec.snapshot_path,
                        n_workers=n_workers,
                        policy=policy,
                        cache_capacity=cache_capacity,
                        mmap_points=mmap_points,
                        start_method=start_method,
                        restart_crashed=restart_crashed,
                        heartbeat_timeout=heartbeat_timeout,
                        max_resubmits=max_resubmits,
                        index_loader=index_loader,
                    )
                    for _ in range(self.n_replicas)
                ]
                for server in members:
                    if (
                        server.n_points != spec.n_points
                        or server.dimensionality != manifest.dimensionality
                    ):
                        raise ShardManifestError(
                            f"{spec.snapshot_path}: snapshot shape "
                            f"({server.n_points} x {server.dimensionality}) "
                            "disagrees with the manifest"
                        )
                self._shards.append(_ShardMember(position, ids, members))
        except BaseException:
            self._close_members()
            raise
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=max(1, len(self._shards)),
            thread_name_prefix="repro-shard-scatter",
        )
        self._reaper = _DeadlineReaper()

    # -- introspection -------------------------------------------------

    @property
    def n_points(self) -> int:
        return self.manifest.n_points

    @property
    def dimensionality(self) -> int:
        return self.manifest.dimensionality

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def n_pending(self) -> int:
        """Outstanding scatter-gather requests (admission accounting)."""
        with self._lock:
            return len(self._outstanding)

    def stats(self) -> ServingReport:
        """Whole-deployment ledger over the coordinator's metric clock.

        Request-level columns (``n_requests``, latency percentiles, the
        degradation ledger) are coordinator-level: one entry per merged
        scatter-gather request.  Execution-level columns (``n_batches``,
        the batch-size histogram, ``query_stats``, cache and pool
        counters) are summed across every member server, so they count
        downstream work — a request fanned out to S shards contributes
        S micro-batch rows and the sum of the per-shard scans.
        Per-replica detail lives in :meth:`shard_reports`.
        """
        cache = [0, 0, 0]
        pool = [0, 0, 0]
        n_batches = 0
        n_rows = 0
        histogram: dict[int, int] = {}
        work = [QueryStats()]
        for reports in self.shard_reports():
            for report in reports:
                cache[0] += report.cache_hits
                cache[1] += report.cache_misses
                cache[2] += report.cache_evictions
                pool[0] += report.n_restarts
                pool[1] += report.n_hung_kills
                pool[2] += report.n_resubmitted
                n_batches += report.n_batches
                for size, count in report.batch_size_histogram.items():
                    histogram[size] = histogram.get(size, 0) + count
                    n_rows += size * count
                work.append(report.query_stats)
        base = self._stats.report(
            cache_counters=tuple(cache), pool_counters=tuple(pool)
        )
        return replace(
            base,
            n_batches=n_batches,
            batch_size_histogram=histogram,
            mean_batch_size=n_rows / n_batches if n_batches else 0.0,
            query_stats=combine_stats(work),
        )

    def shard_reports(self) -> list[list[ServingReport]]:
        """Per shard, the report of each replica server."""
        return [
            [replica.stats() for replica in member.replicas]
            for member in self._shards
        ]

    def reset_stats(self) -> None:
        """Restart the coordinator and member metric clocks."""
        self._stats.reset()
        for member in self._shards:
            for replica in member.replicas:
                replica.reset_stats()

    # -- request paths -------------------------------------------------

    def submit(
        self, query, k: int = 1, *, deadline_ms: float | None = None
    ) -> Future:
        """Scatter one query to every shard; the future merges the top-k.

        Validation is synchronous and matches ``index.query`` on the
        unsharded corpus (``k`` ranges over the *total* corpus size).
        The future resolves to a global-id :class:`KnnResult`, or fails
        with :class:`DeadlineExceeded` / :class:`ServerOverloaded` /
        :class:`ShardError` — never with a partial answer.
        """
        self._require_open()
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_points)
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive or None, got {deadline_ms}"
            )
        started = time.perf_counter()
        deadline = (
            started + deadline_ms / 1e3 if deadline_ms is not None else None
        )
        future: Future = Future()
        victim = None
        with self._lock:
            bound = self._max_pending
            if bound is not None and len(self._outstanding) >= bound:
                if self._shed_policy == "reject-new":
                    self._stats.record_shed()
                    raise ServerOverloaded(
                        "coordinator admission queue is full "
                        f"({len(self._outstanding)} requests outstanding)"
                    )
                _, victim = self._outstanding.popitem(last=False)
            req_id = next(self._req_ids)
            self._outstanding[req_id] = future
        if victim is not None:
            _fail(
                victim,
                ServerOverloaded(
                    "shed by coordinator drop-oldest admission policy to "
                    "make room for a newer request"
                ),
            )
        future.add_done_callback(
            lambda f: self._finish(f, req_id, started)
        )
        if deadline is not None:
            self._reaper.watch(future, deadline)
        gather = _Gather(future, [m.ids for m in self._shards], k)
        for member in self._shards:
            if deadline is not None:
                remaining_ms = (deadline - time.perf_counter()) * 1e3
                if remaining_ms <= 0.0:
                    gather.shard_failed(
                        member.position,
                        DeadlineExceeded(
                            "request deadline passed before the fan-out "
                            "completed"
                        ),
                    )
                    break
            else:
                remaining_ms = None
            replica_index, server = self._pick_replica(member)
            try:
                sub = server.submit(
                    vector,
                    k=min(k, member.n_points),
                    deadline_ms=remaining_ms,
                )
            except BaseException as error:
                self._release_replica(member, replica_index)
                gather.shard_failed(member.position, error)
                break
            sub.add_done_callback(
                lambda f, m=member, r=replica_index: self._on_shard_done(
                    gather, m, r, f
                )
            )
        return future

    def query(
        self, query, k: int = 1, *, deadline_ms: float | None = None
    ) -> KnnResult:
        """Blocking single-query convenience around :meth:`submit`."""
        return self.submit(query, k=k, deadline_ms=deadline_ms).result()

    def query_batch(
        self, queries, k: int = 1, *, deadline_ms: float | None = None
    ) -> BatchKnnResult:
        """One explicit batch, scattered whole to every shard and merged.

        Like :meth:`IndexServer.query_batch`, explicit batches bypass
        the micro-batchers and coordinator admission but honor the same
        deadline contract: ``deadline_ms`` (falling back to
        ``default_deadline_ms``) is fixed once here, and each member
        batch carries the budget remaining when it starts.  A blown
        deadline raises :class:`DeadlineExceeded`, counted once in the
        coordinator ledger.  The per-shard calls run concurrently on
        the scatter pool.
        """
        self._require_open()
        array = validate_queries(queries, self.dimensionality)
        k = validate_k(k, self.n_points)
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive or None, got {deadline_ms}"
            )
        deadline = (
            time.perf_counter() + deadline_ms / 1e3
            if deadline_ms is not None
            else None
        )
        picks = []
        futures = []
        for member in self._shards:
            replica_index, server = self._pick_replica(member)
            picks.append((member, replica_index))
            futures.append(
                self._scatter_pool.submit(
                    _member_batch,
                    server,
                    array,
                    min(k, member.n_points),
                    deadline,
                )
            )
        batches = []
        failure: tuple[int, BaseException] | None = None
        for (member, replica_index), sub in zip(picks, futures):
            try:
                batches.append(sub.result())
            except BaseException as error:
                if failure is None:
                    failure = (member.position, error)
            finally:
                self._release_replica(member, replica_index)
        if failure is not None:
            error = _shard_error(*failure)
            if isinstance(error, DeadlineExceeded):
                self._stats.record_deadline_exceeded()
            raise error
        # Batch-shape and scan accounting happens at the members (and is
        # summed back by stats()); recording the merged batch here too
        # would double-count the same work.
        return merge_batches(batches, [m.ids for m in self._shards], k)

    # -- internals -----------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ServerClosedError("sharded server is closed")

    def _pick_replica(self, member: _ShardMember):
        """Least-loaded replica of ``member`` (ties rotate); bumps load."""
        with self._lock:
            offset = next(self._rr) % len(member.replicas)
            order = [
                (i + offset) % len(member.replicas)
                for i in range(len(member.replicas))
            ]
            choice = min(order, key=lambda i: member.loads[i])
            member.loads[choice] += 1
        return choice, member.replicas[choice]

    def _release_replica(self, member: _ShardMember, index: int) -> None:
        with self._lock:
            member.loads[index] -= 1

    def _on_shard_done(self, gather, member, replica_index, sub) -> None:
        self._release_replica(member, replica_index)
        if sub.cancelled():
            gather.shard_failed(
                member.position,
                ShardError(
                    f"shard {member.position} sub-request was cancelled"
                ),
            )
            return
        error = sub.exception()
        if error is not None:
            gather.shard_failed(member.position, error)
        else:
            gather.shard_done(member.position, sub.result())

    def _finish(self, future: Future, req_id: int, started: float) -> None:
        """Coordinator done-callback: drop from outstanding, ledger it."""
        with self._lock:
            self._outstanding.pop(req_id, None)
        if future.cancelled():
            self._stats.record_cancelled()
            return
        error = future.exception()
        if error is None:
            self._stats.record_request(time.perf_counter() - started)
        elif isinstance(error, DeadlineExceeded):
            self._stats.record_deadline_exceeded()
        elif isinstance(error, ServerOverloaded):
            self._stats.record_shed()
        else:
            self._stats.record_failure()

    def _close_members(self) -> None:
        for member in self._shards:
            for replica in member.replicas:
                try:
                    replica.close()
                except Exception:
                    pass

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Flush and stop every member server, fail leftovers loudly."""
        if self._closed:
            return
        self._closed = True
        # Members first: their close() flushes pending micro-batches and
        # resolves (or fails) every sub-request, which resolves the
        # coordinator futures through the gathers.
        self._close_members()
        self._scatter_pool.shutdown(wait=True)
        with self._lock:
            leftovers = list(self._outstanding.values())
            self._outstanding.clear()
        for future in leftovers:
            _fail(future, ServerClosedError("sharded server is closed"))
        self._reaper.close()

    def __enter__(self) -> "ShardedIndexServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
