"""Scatter-gather serving over sharded index snapshots.

:class:`ShardedIndexServer` makes S shard snapshots answer like one big
index.  It is the request pipeline of
:class:`~repro.serve.server.IndexServer` — validation, result cache,
micro-batcher admission, deadline reaper, ledger and explicit
``query_batch`` — over a fan-out backend: each coalesced batch goes to
every shard with ``k`` clamped to the shard's size, and the per-shard
top-k are merged by ``(distance, global id)`` once every shard has
answered — bit-identical to the unsharded index, including tie
ordering, with per-shard :class:`~repro.search.results.QueryStats`
summed.

* **One request path.**  A request passes one batcher, one deadline
  reaper and one ledger, exactly as on an unsharded server:
  ``policy.max_pending`` bounds the queued requests and sheds per
  ``policy.shed_policy``, and a deadline is fixed once at submission.
* **Shard execution.**  With ``n_workers=0`` the shards answer one
  after another on the batcher thread; with ``n_workers >= 1`` each
  shard has its own :class:`~repro.serve.pool.WorkerPool` and all
  shards run at once.  Before each shard is asked, a passed batch
  deadline drops the batch: no caller can still use its answer.
* **Partial-failure policy.**  A failed shard fails the whole batch
  with a typed :class:`~repro.serve.errors.ShardError` (original
  failure chained as ``__cause__``).  A partial merge over the
  surviving shards could silently *drop true neighbors*, so it is never
  returned — the repo-wide contract is fail loudly, not approximately.
  Deadline and overload failures keep their own types
  (:class:`DeadlineExceeded`, :class:`ServerOverloaded`) so the caller's
  ledger stays meaningful.

The degradation ledger (:meth:`stats`) accounts every submitted request
exactly once: answered, failed, shed, deadline-exceeded, or cancelled.
Its batch columns count the coordinator's batches, and ``query_stats``
sums the scans of every shard.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import Future

from repro.serve.cache import snapshot_fingerprint
from repro.serve.errors import (
    DeadlineExceeded,
    ServerOverloaded,
    ShardError,
    _complete,
    _fail,
)
from repro.serve.pool import WorkerPool
from repro.serve.server import _ServingPipeline, _snapshot_backend

# merge_results is not called here; the perfbench tracer patches it by
# this module's name, so it stays importable from here.
from repro.shard.merge import merge_batches, merge_results  # noqa: F401
from repro.shard.partition import (
    ShardManifest,
    ShardManifestError,
    load_manifest,
)


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


class _ShardFanout:
    """Batch backend: every shard answers the batch, merged exactly.

    ``backends[s]`` answers shard ``s`` in its local row ids, and
    ``shard_ids[s]`` maps them to global ids; ``k`` is clamped to the
    shard's size.  A ``None`` id map marks a shard whose answers already
    carry global ids and whose backend clamps ``k`` itself (a mutable
    shard, to the live rows it captured).
    """

    def __init__(self, backends: list, shard_ids: list) -> None:
        self._backends = backends
        self._ids = shard_ids

    def submit(self, queries, k: int, *, deadline: float | None = None) -> Future:
        merged: Future = Future()
        answers: list = [None] * len(self._backends)
        waiting = [len(self._backends)]
        lock = threading.Lock()

        def shard_done(position: int, answer: Future) -> None:
            error = answer.exception()
            if error is not None:
                _fail(merged, _shard_error(position, error))
                return
            with lock:
                answers[position] = answer.result()
                waiting[0] -= 1
                last = waiting[0] == 0
            if last:
                _complete(merged, merge_batches(answers, self._ids, k))

        for position, (backend, ids) in enumerate(
            zip(self._backends, self._ids)
        ):
            if merged.done():  # an in-process shard already failed
                break
            if deadline is not None and time.perf_counter() > deadline:
                _fail(merged, DeadlineExceeded(
                    f"batch deadline passed before shard {position} "
                    "was asked"
                ))
                break
            try:
                answer = backend.submit(
                    queries,
                    k if ids is None else min(k, ids.size),
                    deadline=deadline,
                )
            except Exception as error:
                _fail(merged, _shard_error(position, error))
                break
            answer.add_done_callback(functools.partial(shard_done, position))
        return merged


class ShardedIndexServer(_ServingPipeline):
    """Serve one corpus from S shard snapshots, bit-identically.

    Args:
        manifest: a :class:`~repro.shard.partition.ShardManifest`, or a
            path to a ``shards.json`` manifest (or the directory holding
            one) written by :func:`~repro.shard.partition.build_shards`.
        n_workers: worker processes *per shard* (``0`` answers every
            shard in-process on the batcher thread, still
            micro-batched).
        policy: micro-batching flush policy plus the admission bound of
            the one request queue (default
            :class:`~repro.serve.batcher.BatchPolicy`).
        cache_capacity: LRU entries of merged answers; ``0`` disables
            the cache.
        mmap_points / start_method / restart_crashed /
        heartbeat_timeout / max_resubmits / index_loader: as for
            :class:`~repro.serve.server.IndexServer`, applied to every
            shard (``index_loader`` is called with each shard's
            snapshot path).
        default_deadline_ms: deadline applied to every ``submit`` that
            does not pass its own; ``None`` means no deadline.
    """

    def __init__(
        self,
        manifest: ShardManifest | str,
        *,
        n_workers: int = 1,
        policy=None,
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
        if n_workers < 0:
            raise ValueError(
                f"n_workers must be non-negative, got {n_workers}"
            )
        super().__init__(
            policy=policy,
            cache_capacity=cache_capacity,
            default_deadline_ms=default_deadline_ms,
        )
        self.manifest = manifest
        self.kind = manifest.kind
        self.fingerprint = ",".join(
            snapshot_fingerprint(spec.snapshot_path)
            for spec in manifest.shards
        )
        backends: list = []
        shard_ids: list = []
        pools: list[WorkerPool] = []
        try:
            for spec in manifest.shards:
                shard_ids.append(spec.load_ids())
                local, backend = _snapshot_backend(
                    spec.snapshot_path,
                    n_workers,
                    mmap_points=mmap_points,
                    index_loader=index_loader,
                    start_method=start_method,
                    restart_crashed=restart_crashed,
                    heartbeat_timeout=heartbeat_timeout,
                    max_resubmits=max_resubmits,
                )
                if isinstance(backend, WorkerPool):
                    pools.append(backend)
                if (
                    local.n_points != spec.n_points
                    or local.dimensionality != manifest.dimensionality
                ):
                    raise ShardManifestError(
                        f"{spec.snapshot_path}: snapshot shape "
                        f"({local.n_points} x {local.dimensionality}) "
                        "disagrees with the manifest"
                    )
                backends.append(backend)
        except BaseException:
            for pool in pools:
                pool.close()
            raise
        self._start(_ShardFanout(backends, shard_ids), pools)

    # -- introspection -------------------------------------------------

    @property
    def n_points(self) -> int:
        return self.manifest.n_points

    @property
    def dimensionality(self) -> int:
        return self.manifest.dimensionality

    @property
    def n_shards(self) -> int:
        return self.manifest.n_shards

    @property
    def n_pending(self) -> int:
        """Requests queued for a batch (what ``policy.max_pending`` bounds)."""
        return self._batcher.n_pending
