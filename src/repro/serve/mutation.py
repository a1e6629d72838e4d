"""Mutable serving: a memtable over immutable snapshot generations.

A snapshot answers for one frozen corpus.  Production corpora mutate.
This module adds mutation the LSM way, without ever answering
approximately:

* the **base** is the active snapshot generation
  (:class:`~repro.search.snapshot.GenerationStore`), answered by the
  batch backend an :class:`~repro.serve.server.IndexServer` would use:
  the in-process index, or a :class:`~repro.serve.pool.WorkerPool`;
* the **memtable** is an append-only **arena**: inserted rows in
  ascending global-id order, each with a live flag, plus one boolean
  **live mask** over the generation's local base rows.  A delete clears
  a flag; nothing is rebuilt, so a batch captures the memtable as an
  arena prefix (rows below it are never written again) plus copies of
  the flags and the mask;
* every coalesced batch is answered as an **exact merge**.  The base
  answers over its live rows only: brute force and projscreen take the
  live mask into the scan (``index.with_live(mask)``, shipped to a
  worker as packed bits), so a dead row never reaches selection and the
  base is asked for ``k``.  The other exact kinds have no masked scan;
  they are asked for ``k`` plus the dead base rows, and the merge drops
  those.  The arena's live rows are scanned with the family's
  sequential distance arithmetic, and
  :func:`~repro.shard.merge.merge_batches` re-selects by
  ``(distance, global id)`` — exactly the order a fresh index built
  over the live rowset (rows in ascending global-id order) would
  produce, because every index in the family breaks distance ties by
  lower corpus index.

:class:`MutableBackend` holds all of that state and answers batches
with :meth:`WorkerPool.submit`'s signature.  :class:`MutableIndexServer`
is the serving pipeline of :mod:`repro.serve.server` over one such
backend, so a request passes one batcher, one deadline reaper and one
ledger, and the ledger survives compactions;
:class:`~repro.shard.mutation.MutableShardedServer` is the same
pipeline over a fan-out to S of them.

A background **compactor** folds the memtable into the base: it builds
a fresh index over the live rowset, publishes it as a new generation
(reason ``"size"``, ``"drift"``, or ``"manual"``), and **hot-swaps**
the serving view.  The swap protocol guarantees in-flight queries are
never dropped or mis-answered:

1. the new generation is built and published while the old view keeps
   serving (each batch merges against the memtable snapshot it
   captured, so concurrent mutations never skew an in-flight answer);
2. under the view lock the view is swapped and the compacted cut (the
   arena prefix the build captured) is trimmed from the arena.  Rows
   deleted before the capture are simply absent from the new base;
   rows deleted *during* the build made it into the new base and start
   out cleared in its live mask;
3. the old view is reference-counted: each batch pins the view when it
   captures the arena prefix and the masks, in one lock acquisition,
   and the old base backend is drained and then closed only after its
   last pinned batch released it.  The pipeline's one deadline reaper
   keeps releasing deadlined callers throughout;
4. all but the newest two generations are pruned.

Because compaction rebuilds from scratch, a ``projscreen`` generation
refits its screening projection over the live corpus — re-reduction is
the rebuild.  When ``drift_threshold`` is set, an
:class:`~repro.dynamic.IncrementalMoments` accumulator tracks the live
distribution (updated on insert, downdated on delete) and a
:class:`~repro.dynamic.DriftMonitor` frozen at each generation's basis
triggers that rebuild automatically once the captured-energy ratio
decays past the threshold.

Only **exact** kinds (:data:`repro.search.registry.EXACT_KINDS`) can be
served mutably: their answers are the true Euclidean top-k, a function
of the live rows alone, which is what makes base + delta merge equal a
fresh rebuild.  LSH (approximate probing) and IGrid (corpus-derived
scoring) are refused at construction.

The memtable is durable: every insert/delete is appended to the active
generation's **write-ahead log** (:mod:`repro.serve.wal`) *before* it
is acknowledged, fsync'd per the ``wal_sync`` policy (``"always"`` —
an acked op can never be lost; ``"group"`` / ``"off"`` trade bounded
loss windows for throughput).  On resume the server replays the log —
tolerating a torn tail, refusing mid-stream corruption — and refills
the arena, the flags, the base mask, ``next_row_id`` and the drift
moments in append order, so the resumed server answers bit-identically
to one that never crashed.  Each compaction rotates the log: the new
generation's WAL is seeded with the surviving memtable state *before*
the manifest repoint (the single commit point), so no crash window
loses acknowledged ops, and superseded logs die with their pruned
generation directories.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

import numpy as np

from repro.search.registry import (
    EXACT_KINDS,
    build_index,
    index_class,
    index_spec,
)
from repro.search.results import (
    BatchKnnResult,
    stats_block,
    validate_corpus,
    validate_query,
)
from repro.search.snapshot import (
    GenerationInfo,
    GenerationStore,
    read_snapshot,
)
from repro.serve.batcher import BatchPolicy
from repro.serve.errors import ServerClosedError, _complete, _fail
from repro.serve.pool import WorkerPool
from repro.serve.server import (
    _DRAIN_SECONDS,
    IndexServer,
    _ServingPipeline,
    _snapshot_backend,
)
from repro.serve.wal import SYNC_POLICIES, WalError, WalWriter, read_wal

COMPACTION_REASONS = ("initial", "size", "drift", "manual")

# Rows the memtable arena holds before its first growth; it doubles
# whenever it fills.
_ARENA_ROWS = 1024


class MutationError(ValueError):
    """A mutable-serving operation is invalid (kind, ids, or state)."""


class _View:
    """One served generation, pinned by the batches in flight on it.

    ``backend`` answers the generation's snapshot (``pool`` is the same
    object when it is a :class:`WorkerPool`).  ``refs`` counts batches
    that captured this view; the compactor retires a view at the swap
    and closes its backend only once the last pinned batch released it
    (``drained``).
    """

    __slots__ = ("info", "base_ids", "points", "backend", "pool", "refs",
                 "retired", "drained")

    def __init__(self, info: GenerationInfo) -> None:
        self.info = info
        self.base_ids = info.load_ids()
        self.points = read_snapshot(  # mmap'd (n, d) corpus
            info.snapshot_path,
            None,
            required=("points",),
            mmap_points=True,
        )["points"]
        self.backend = self.pool = None
        self.refs = 0
        self.retired = False
        self.drained = threading.Event()

    def open(self, n_workers: int) -> None:
        """Start the base backend (worker processes if ``n_workers >= 1``)."""
        _, self.backend = _snapshot_backend(
            self.info.snapshot_path,
            n_workers,
            index_loader=None,
            heartbeat_timeout=30.0,  # IndexServer's default
        )
        if isinstance(self.backend, WorkerPool):
            self.pool = self.backend

    def close(self) -> None:
        """Drain and close the base backend's worker pool, if any."""
        if self.pool is not None:
            self.pool.drain(_DRAIN_SECONDS)
            self.pool.close()


class MutableBackend:
    """Batch backend: exact top-k over one corpus that mutates.

    Holds the generation store, the served view (pinned by in-flight
    batches), the memtable arena and its live flags, the live mask over
    the base rows, the write-ahead log, the drift monitor and the
    compactor.  :meth:`submit` has
    :meth:`WorkerPool.submit`'s signature and answers in global row
    ids, bit-identically to ``build_index(kind, live_rows)`` with local
    indices mapped to global ids — neighbors, distances, and
    tie-breaks included.  The serving pipeline also drains and closes
    it like a pool (:meth:`drain`, :meth:`close` and the restart
    counters), which it forwards to the serving generation's pool.

    Args:
        root: generation-store directory.  If it holds a manifest the
            backend resumes from the active generation (pass
            ``points=None``); otherwise ``points`` seeds generation 0.
        points: initial ``(n, d)`` corpus for a fresh store.
        row_ids: global ids for the seed rows (strictly ascending);
            defaults to ``0..n-1``.  A sharded coordinator passes each
            member its slice of the global id space here.
        kind: index kind — must be exact
            (:data:`~repro.search.registry.EXACT_KINDS`).  On resume it
            must match the active generation.
        index_kwargs: constructor keywords applied to *every* rebuild
            (e.g. ``subspace_dim``/``ordering`` for projscreen — the
            projection itself is refit from the live corpus at each
            compaction, never carried over).
        n_workers: worker processes answering each generation's base
            (``0``: the in-process index, on the batcher thread).
        compact_threshold: auto-compact once the memtable holds this
            many operations (inserted rows plus deleted rows, base or
            memtable); ``None`` disables size-triggered compaction.
        drift_threshold: captured-energy ratio below which a drift
            compaction is triggered (projscreen only); ``None``
            disables drift monitoring.
        wal_sync: write-ahead-log fsync policy, one of
            :data:`~repro.serve.wal.SYNC_POLICIES` — ``"always"``
            fsyncs every append (an acknowledged op survives any
            crash), ``"group"`` fsyncs every 64 appends or 50
            milliseconds (:class:`~repro.serve.wal.WalWriter`'s
            defaults; bounded loss window), ``"off"`` leaves flushing
            to the OS.  A clean :meth:`close` syncs under every policy.

    Each compaction keeps the newest two generations and prunes the
    rest (:meth:`~repro.search.snapshot.GenerationStore.prune`'s
    default).
    """

    def __init__(
        self,
        root: str,
        points=None,
        *,
        row_ids=None,
        kind: str = "bruteforce",
        index_kwargs: dict | None = None,
        n_workers: int = 0,
        compact_threshold: int | None = None,
        drift_threshold: float | None = None,
        wal_sync: str = "always",
    ) -> None:
        if wal_sync not in SYNC_POLICIES:
            raise ValueError(
                f"wal_sync must be one of {SYNC_POLICIES}, "
                f"got {wal_sync!r}"
            )
        spec = index_spec(kind)
        if not spec.exact:
            raise MutationError(
                f"index kind {kind!r} cannot serve mutations: delta-merge "
                "answers are provably identical to a fresh rebuild only "
                "for exact kinds (answers a function of the live rows "
                f"alone); choose one of {list(EXACT_KINDS)}"
            )
        if n_workers < 0:
            raise ValueError(
                f"n_workers must be non-negative, got {n_workers}"
            )
        if compact_threshold is not None and compact_threshold < 1:
            raise ValueError(
                f"compact_threshold must be positive or None, "
                f"got {compact_threshold}"
            )
        if drift_threshold is not None and kind != "projscreen":
            raise MutationError(
                "drift_threshold monitors the projscreen screening "
                f"basis; it does not apply to kind {kind!r}"
            )
        self._kind = kind
        # Kinds with a masked scan answer the base over its live rows;
        # the others are asked for k plus the dead base rows.
        self._masked = hasattr(index_class(kind), "with_live")
        self._index_kwargs = dict(index_kwargs or {})
        self._n_workers = int(n_workers)
        self._compact_threshold = compact_threshold
        self._drift_threshold = drift_threshold
        self._wal_sync = wal_sync
        self._store = GenerationStore(root)

        resuming = self._store.exists()
        if resuming:
            if points is not None:
                raise MutationError(
                    f"{root}: generation store already initialized; "
                    "resume with points=None"
                )
            info = self._store.active()
            if info.kind != kind:
                raise MutationError(
                    f"{root}: active generation holds kind "
                    f"{info.kind!r}, not {kind!r}"
                )
        else:
            if points is None:
                raise MutationError(
                    f"{root}: no generation store; pass the initial "
                    "corpus as points="
                )
            corpus = validate_corpus(points)
            if row_ids is None:
                ids = np.arange(corpus.shape[0], dtype=np.intp)
            else:
                ids = np.asarray(row_ids, dtype=np.intp)
            index = build_index(kind, corpus, **self._index_kwargs)
            info = self._store.publish(
                index,
                ids,
                next_row_id=int(ids[-1]) + 1 if ids.size else 0,
                reason="initial",
            )

        # The view lock guards the serving view, the arena, the masks,
        # and the id counter.  A batch holds it only to capture a
        # consistent (view, arena prefix, masks) state and pin the view;
        # mutations hold it to update state.
        self._lock = threading.Lock()
        self._view = _View(info)
        self.dimensionality = int(self._view.points.shape[1])
        # The memtable arena: rows [0, _n_rows) of these buffers, in
        # ascending global-id order.  Rows and ids below _n_rows are
        # never written again (growth and compaction copy into new
        # buffers), so a batch reads its captured prefix unlocked; the
        # live flags are cleared in place and captured as a copy.
        self._rows = np.empty((_ARENA_ROWS, self.dimensionality))
        self._ids = np.empty(_ARENA_ROWS, dtype=np.int64)
        self._live = np.empty(_ARENA_ROWS, dtype=bool)
        self._n_rows = 0
        self._n_dead_rows = 0
        # One flag per local row of the serving generation's base.
        self._base_live = np.ones(self._view.base_ids.size, dtype=bool)
        self._n_dead_base = 0
        self._next_row_id = info.next_row_id
        self._n_live = info.n_points
        self._closed = False
        self.n_compactions = 0
        self.n_drift_compactions = 0

        self._moments = None
        self._monitor = None
        self._drift_pending = False
        if drift_threshold is not None:
            from repro.dynamic import IncrementalMoments

            self._moments = IncrementalMoments(self.dimensionality)
            self._moments.update(np.asarray(self._view.points))
            self._arm_drift_monitor()

        # Recover, open the log for appends, and only then start the
        # base backend, so a refused log leaves no thread or worker
        # behind.  Replay runs before the compactor thread exists, so
        # it owns all state; the writer truncates the recovered torn
        # tail (if any) so the log is well-formed before the first new
        # append lands after it.
        replay = None
        if resuming:
            try:
                replay = read_wal(info.wal_path)
            except FileNotFoundError:
                # A pre-WAL generation never wrote a log; its memtable
                # was declared volatile, so there is nothing to replay.
                replay = None
        self._wal = WalWriter(
            info.wal_path,
            sync_policy=wal_sync,
            truncate_to=replay.valid_bytes if replay is not None else None,
        )
        try:
            if replay is not None and replay.ops:
                self._replay(replay.ops)
            self._view.open(self._n_workers)
        except BaseException:
            self._wal.close()
            raise

        # One compaction at a time; manual compact() and the background
        # compactor serialize here.
        self._compact_lock = threading.Lock()
        self._wake = threading.Event()
        self._compactor = None
        if compact_threshold is not None or drift_threshold is not None:
            self._compactor = threading.Thread(
                target=self._compactor_loop,
                name="repro-compactor",
                daemon=True,
            )
            self._compactor.start()
            # A replayed memtable may already be over a trigger; fire
            # the compactor immediately rather than on the next op.
            with self._lock:
                self._check_triggers_locked()

    # -- introspection -------------------------------------------------

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def n_live(self) -> int:
        """Rows a fresh rebuild right now would contain."""
        with self._lock:
            return self._n_live

    @property
    def generation_id(self) -> int:
        """Id of the generation currently serving as the base."""
        with self._lock:
            return self._view.info.generation_id

    @property
    def snapshot_path(self) -> str:
        """Snapshot of the generation currently serving as the base."""
        with self._lock:
            return self._view.info.snapshot_path

    @property
    def memtable_ops(self) -> int:
        """Un-compacted operations (inserted rows + deleted rows)."""
        with self._lock:
            return self._ops_locked()

    @property
    def next_row_id(self) -> int:
        """The id the next coordinator-less insert would be assigned."""
        with self._lock:
            return self._next_row_id

    @property
    def wal_sync(self) -> str:
        """The write-ahead log's fsync policy."""
        return self._wal_sync

    @property
    def wal_appends(self) -> int:
        """Records appended to the *current* generation's log."""
        with self._lock:
            return self._wal.n_appends

    @property
    def wal_syncs(self) -> int:
        """fsyncs issued by the *current* generation's log."""
        with self._lock:
            return self._wal.n_syncs

    @property
    def store(self) -> GenerationStore:
        return self._store

    @property
    def n_restarts(self) -> int:
        """Worker restarts of the serving generation's pool."""
        pool = self._view.pool
        return pool.n_restarts if pool is not None else 0

    @property
    def n_hung_kills(self) -> int:
        """Hung-worker kills of the serving generation's pool."""
        pool = self._view.pool
        return pool.n_hung_kills if pool is not None else 0

    @property
    def n_resubmitted(self) -> int:
        """Batches the serving generation's pool resubmitted."""
        pool = self._view.pool
        return pool.n_resubmitted if pool is not None else 0

    # -- mutation ------------------------------------------------------

    def insert(self, vector, *, row_id: int | None = None) -> int:
        """Add one row to the live rowset; returns its global row id.

        ``row_id`` may be supplied by a coordinator that allocates the
        global sequence (sharded serving); it must continue the
        sequence, never reuse an id.
        """
        row = validate_query(vector, self.dimensionality)
        with self._lock:
            self._require_open()
            if row_id is None:
                row_id = self._next_row_id
            elif row_id < self._next_row_id:
                raise MutationError(
                    f"row_id {row_id} is not fresh: ids below "
                    f"{self._next_row_id} were already allocated"
                )
            # Log before touching any state: an op is acknowledged only
            # once it is durable per the sync policy, and a failed
            # append leaves the server exactly as it was.
            self._wal.append_insert(row_id, row)
            self._insert_locked(row_id, row)
            self._check_triggers_locked()
        return row_id

    def delete(self, row_id: int) -> None:
        """Remove one live row (base or memtable) from the rowset.

        Raises:
            KeyError: when ``row_id`` is not a live row.
        """
        with self._lock:
            self._require_open()
            in_arena, position = self._locate_locked(row_id)
            # Log before touching any state (see insert).
            self._wal.append_delete(row_id)
            # The row is flagged dead, not evicted: an in-flight
            # compaction may already have cut this arena row into the
            # next base, where the swap carries the flag into its mask.
            self._delete_locked(in_arena, position)
            self._check_triggers_locked()

    # -- batches -------------------------------------------------------

    def submit(self, queries, k: int, *, deadline: float | None = None) -> Future:
        """Exact top-``k`` of every row over the live rowset.

        The view, the arena prefix, its live flags and the base live
        mask are captured once for the batch, in the lock acquisition
        that pins the view, so a swap cannot close the base backend
        under it.  Outside the lock the base answers over its live rows
        (``deadline`` passes on, as the pipeline's discard hint): a kind
        with ``with_live`` takes the mask and is asked for ``k``; any
        other is asked for ``k`` plus the dead base rows, which the
        merge drops.  The arena's live rows are scanned meanwhile, and
        the answers are merged once the base has answered.  ``k`` is
        clamped to the live rows captured: a shard may hold fewer than
        the global ``k``, and rows may have been deleted since
        admission.
        """
        answer: Future = Future()
        with self._lock:
            self._require_open()
            k = min(k, self._n_live)
            if k == 0:  # every row of this shard was deleted
                b = len(queries)
                answer.set_result(BatchKnnResult.from_columns(
                    np.empty((b, 0), dtype=np.int64),
                    np.empty((b, 0)),
                    stats_block(b),
                ))
                return answer
            view = self._view
            view.refs += 1
            rows, ids, live = self._arena_locked()
            base_live = self._base_live.copy() if self._n_dead_base else None
        base_k = min(view.base_ids.size, k)
        exclude = ()
        if base_live is not None and not self._masked:
            exclude = view.base_ids[~base_live]
            base_k = min(view.base_ids.size, k + exclude.size)
            base_live = None
        try:
            base = view.backend.submit(
                queries, base_k, deadline=deadline, live=base_live
            )
            delta = _scan_delta(rows, ids, live, queries, k)
        except BaseException:
            self._release(view)
            raise

        def merge(answered: Future) -> None:
            # Deferred: importing repro.shard imports this module.
            from repro.shard.merge import merge_batches

            try:
                _complete(answer, merge_batches(
                    [answered.result(), delta],
                    [view.base_ids, None],
                    k,
                    exclude=exclude,
                ))
            except Exception as error:  # a failed base fails the batch
                _fail(answer, error)
            finally:
                self._release(view)

        base.add_done_callback(merge)
        return answer

    # -- compaction ----------------------------------------------------

    def compact(self, reason: str = "manual") -> GenerationInfo:
        """Fold the memtable into a new generation and hot-swap to it.

        Rebuilds an index over the live rowset (rows ascending by
        global id — the order that makes local-index tie-breaks equal
        global-id tie-breaks), publishes it, swaps the serving view,
        then drains and closes the old base backend once its pinned
        batches have released it.
        """
        if reason not in COMPACTION_REASONS:
            raise ValueError(
                f"reason must be one of {COMPACTION_REASONS}, "
                f"got {reason!r}"
            )
        with self._compact_lock:
            with self._lock:
                self._require_open()
                old_view = self._view
                rows, ids, live = self._arena_locked()
                cut = ids.size
                base_live = self._base_live.copy()
                next_row_id = self._next_row_id
            live_ids, live_rows = _live_rowset(
                old_view, base_live, rows, ids, live
            )
            if live_ids.size == 0:
                raise MutationError(
                    "cannot compact an empty rowset: every index kind "
                    "requires at least one corpus row; insert before "
                    "compacting"
                )
            index = build_index(
                self._kind, live_rows, **self._index_kwargs
            )
            # prepare/commit straddle the WAL rotation: the new
            # generation's directory (snapshot, ids) goes durably to
            # disk first, its log is seeded with the surviving memtable
            # state, and only then does commit repoint the manifest —
            # the single commit point.  A crash anywhere before it
            # resumes from the old generation + old log (nothing lost);
            # a crash after it resumes from the new pair.
            pending = self._store.prepare(
                index, live_ids, next_row_id=next_row_id, reason=reason
            )
            new_view = _View(pending)
            new_view.open(self._n_workers)

            new_wal = None
            try:
                with self._lock:
                    # Rotation is atomic with mutations: an op logged
                    # after the survivor capture but before the swap
                    # would land only in the superseded log and vanish.
                    # Survivors (the arena rows past the cut, inserted
                    # during the build) are carried over in arena order,
                    # which replay restores.  The new base holds the
                    # rows live at capture, in live_ids order; those
                    # deleted since (mid-build) start out dead in its
                    # mask.  Rows dead at capture were compacted away.
                    new_base_live = np.concatenate([
                        self._base_live[base_live],
                        self._live[:cut][live],
                    ])
                    end = self._n_rows
                    survivor_ids = self._ids[cut:end]
                    survivor_rows = self._rows[cut:end]
                    survivor_live = self._live[cut:end]
                    new_wal = WalWriter(
                        pending.wal_path, sync_policy=self._wal_sync
                    )
                    for gid, row in zip(survivor_ids, survivor_rows):
                        new_wal.append_insert(int(gid), row)
                    # Dead base ids, then dead survivor ids: ascending,
                    # since every arena id exceeds every base id.
                    for gid in np.concatenate([
                        live_ids[~new_base_live],
                        survivor_ids[~survivor_live],
                    ]):
                        new_wal.append_delete(int(gid))
                    new_wal.sync()
                    info = self._store.commit(pending)
                    # -- commit point: adopt the new generation --
                    self._view = new_view
                    self._base_live = new_base_live
                    self._n_dead_base = int(
                        new_base_live.size - np.count_nonzero(new_base_live)
                    )
                    self._reset_arena_locked(
                        survivor_rows, survivor_ids, survivor_live
                    )
                    old_wal, self._wal = self._wal, new_wal
                    self._drift_pending = False
                    if self._moments is not None:
                        # The moments track the live rowset, which a
                        # compaction does not change — only the
                        # monitor's frozen basis and reference
                        # covariance re-anchor.
                        self._arm_drift_monitor()
                    self.n_compactions += 1
                    if reason == "drift":
                        self.n_drift_compactions += 1
                    old_view.retired = True
                    drained = old_view.refs == 0
            except BaseException:
                # Nothing was adopted: in-memory state is untouched and
                # the old log keeps every op.  The orphan generation
                # directory (and its seeded log) is swept by the next
                # successful prune.
                if new_wal is not None:
                    new_wal.close()
                new_view.close()
                raise
            if drained:
                old_view.drained.set()
            old_wal.close()
            # Batches pinned to the old view finish against it; only
            # then is its base backend drained and closed.
            old_view.drained.wait()
            old_view.close()
            self._store.prune()
            return info

    # -- lifecycle -----------------------------------------------------

    def drain(self, timeout: float = _DRAIN_SECONDS) -> bool:
        """Wait until the serving generation's pool has nothing in flight."""
        pool = self._view.pool
        return pool.drain(timeout) if pool is not None else True

    def close(self) -> None:
        """Stop the compactor, then close the base backend and the log.

        The write-ahead log is synced and closed, so a clean shutdown
        loses nothing under any ``wal_sync`` policy; a later resume
        replays the log and continues bit-identically.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake.set()
        if self._compactor is not None:
            self._compactor.join()
        # Serialize with any manual compaction still publishing.
        with self._compact_lock:
            self._view.close()
            self._wal.close()

    # -- internals -----------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ServerClosedError("mutable server is closed")

    def _replay(self, ops) -> None:
        """Apply a recovered log on top of the freshly opened base.

        Mirrors :meth:`insert`/:meth:`delete` exactly — same
        validation, the same arena appends in the same order (the delta
        scan's stable-sort tie-break depends on it), the same flags and
        moments updates — but never re-logs: every record is already
        durable.  A record that contradicts the state built so far
        means the log is lying about history, which is corruption, not
        a torn tail.

        Raises:
            WalError: a replayed op is semantically invalid (id reuse,
                unknown or double delete, dimensionality mismatch).
        """
        path = self._view.info.wal_path
        for op in ops:
            if op[0] == "insert":
                _, row_id, row = op
                if row.size != self.dimensionality:
                    raise WalError(
                        f"{path}: replayed insert of row {row_id} has "
                        f"{row.size} dims, generation serves "
                        f"{self.dimensionality}"
                    )
                if row_id < self._next_row_id:
                    raise WalError(
                        f"{path}: replayed insert reuses row id "
                        f"{row_id} (ids below {self._next_row_id} were "
                        "already allocated)"
                    )
                self._insert_locked(row_id, row)
            else:
                try:
                    located = self._locate_locked(op[1])
                except KeyError as error:
                    raise WalError(
                        f"{path}: replayed delete refused: {error.args[0]}"
                    ) from None
                self._delete_locked(*located)

    def _ops_locked(self) -> int:
        """Un-compacted operations: arena rows plus deleted rows."""
        return self._n_rows + self._n_dead_rows + self._n_dead_base

    def _insert_locked(self, row_id: int, row: np.ndarray) -> None:
        """Append a validated, logged row to the arena."""
        n = self._n_rows
        if n == self._ids.size:
            # Full: continue in buffers twice the size.  Batches that
            # captured a prefix of the old buffers keep reading them.
            self._reset_arena_locked(
                self._rows[:n], self._ids[:n], self._live[:n], room=n
            )
        self._rows[n] = row
        self._ids[n] = row_id
        self._live[n] = True
        self._n_rows = n + 1
        self._next_row_id = row_id + 1
        self._n_live += 1
        if self._moments is not None:
            self._moments.update(row)

    def _locate_locked(self, row_id: int) -> tuple[bool, int]:
        """``(in_arena, position)`` of a live row, for a delete.

        Raises:
            KeyError: ``row_id`` is not a row of the arena or the base,
                or it is already deleted.
        """
        n = self._n_rows
        # Every arena id exceeds every base id (see _live_rowset), so
        # one sorted search finds the row.
        in_arena = n > 0 and row_id >= self._ids[0]
        if in_arena:
            live, position = self._live, _find(self._ids[:n], row_id)
        else:
            live, position = self._base_live, _find(self._view.base_ids, row_id)
        if position < 0:
            raise KeyError(f"unknown row id {row_id}")
        if not live[position]:
            raise KeyError(f"row id {row_id} is already deleted")
        return in_arena, position

    def _delete_locked(self, in_arena: bool, position: int) -> None:
        """Clear the live flag of a located, logged row."""
        if in_arena:
            self._live[position] = False
            self._n_dead_rows += 1
        else:
            self._base_live[position] = False
            self._n_dead_base += 1
        self._n_live -= 1
        if self._moments is not None and self._moments.count > 0:
            row = (
                self._rows[position]
                if in_arena
                else np.asarray(self._view.points[position], dtype=np.float64)
            )
            self._moments.downdate(row)

    def _reset_arena_locked(self, rows, ids, live, room: int = 0) -> None:
        """Start fresh arena buffers holding ``rows``/``ids``/``live``.

        The buffers leave space for ``room`` more rows (at least
        :data:`_ARENA_ROWS` in all).  The old buffers are never written
        again, so a batch that captured a prefix of them stays valid.
        """
        n = ids.size
        capacity = max(_ARENA_ROWS, n + room)
        self._rows = np.empty((capacity, self.dimensionality))
        self._ids = np.empty(capacity, dtype=np.int64)
        self._live = np.empty(capacity, dtype=bool)
        self._rows[:n] = rows
        self._ids[:n] = ids
        self._live[:n] = live
        self._n_rows = n
        self._n_dead_rows = int(n - np.count_nonzero(live))

    def _arena_locked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, ids, live)`` of the arena: two views and a copy."""
        n = self._n_rows
        return self._rows[:n], self._ids[:n], self._live[:n].copy()

    def _arm_drift_monitor(self) -> None:
        """Freeze the drift monitor at the active generation's basis."""
        if self._kind != "projscreen" or self._moments is None:
            return
        from repro.dynamic import DriftMonitor

        from repro.search.projected import ProjectionScreenedIndex

        index = ProjectionScreenedIndex.load(
            self._view.info.snapshot_path, mmap_points=True
        )
        self._monitor = DriftMonitor(
            index.projection.matrix,
            self._moments.covariance(),
            threshold=self._drift_threshold,
        )

    def _check_triggers_locked(self) -> None:
        """Under the view lock: arm the compactor if a trigger fired."""
        fire = False
        if (
            self._compact_threshold is not None
            and self._ops_locked() >= self._compact_threshold
        ):
            fire = True
        if (
            self._monitor is not None
            and not self._drift_pending
            and self._moments.count >= 2
            and self._monitor.should_refit(self._moments.covariance())
        ):
            self._drift_pending = True
            fire = True
        if fire and self._compactor is not None:
            self._wake.set()

    def _compactor_loop(self) -> None:
        while True:
            self._wake.wait()
            self._wake.clear()
            with self._lock:
                if self._closed:
                    return
                if self._drift_pending:
                    reason = "drift"
                elif (
                    self._compact_threshold is not None
                    and self._ops_locked() >= self._compact_threshold
                ):
                    reason = "size"
                else:
                    reason = None
            if reason is not None:
                try:
                    self.compact(reason=reason)
                except MutationError:
                    # e.g. the rowset emptied out; the next mutation
                    # re-arms the trigger.
                    pass

    def _release(self, view: _View) -> None:
        with self._lock:
            view.refs -= 1
            if view.retired and view.refs == 0:
                view.drained.set()


class MutableIndexServer(IndexServer):
    """Serve and mutate one corpus with exact, rebuild-identical answers.

    The serving pipeline of :class:`~repro.serve.server.IndexServer`
    (validation, micro-batcher admission, deadline reaper, ledger,
    explicit ``query_batch``) over one :class:`MutableBackend`.
    ``submit``/``query``/``query_batch`` answer in global row ids,
    bit-identically to ``build_index(kind, live_rows)`` with local
    indices mapped to global ids, and :meth:`stats` keeps one ledger
    across compactions.

    It subclasses :class:`IndexServer` without running its constructor
    or overriding ``submit``, so a request enters through the class
    attribute ``IndexServer.submit`` exactly like an unsharded one:
    perfbench's traced run patches that attribute and keys its spans on
    :attr:`snapshot_path`, the serving generation's snapshot.

    Args:
        root / points: the generation store and, for a fresh store, its
            seed corpus (see :class:`MutableBackend`).
        policy / default_deadline_ms: as for :class:`IndexServer`.
        **options: the other :class:`MutableBackend` keywords —
            ``row_ids``, ``kind``, ``index_kwargs``, ``n_workers``,
            ``compact_threshold``, ``drift_threshold`` and
            ``wal_sync``.
    """

    def __init__(
        self,
        root: str,
        points=None,
        *,
        policy: BatchPolicy | None = None,
        default_deadline_ms: float | None = None,
        **options,
    ) -> None:
        _ServingPipeline.__init__(
            self,
            policy=policy,
            cache_capacity=0,  # a cached answer goes stale at the next write
            default_deadline_ms=default_deadline_ms,
        )
        self._mutable = MutableBackend(root, points, **options)
        self._start(self._mutable, [self._mutable])

    kind = property(lambda self: self._mutable.kind)
    dimensionality = property(lambda self: self._mutable.dimensionality)
    snapshot_path = property(lambda self: self._mutable.snapshot_path)
    n_live = property(lambda self: self._mutable.n_live)
    n_points = n_live  # what validate_k bounds a request's k by
    generation_id = property(lambda self: self._mutable.generation_id)
    memtable_ops = property(lambda self: self._mutable.memtable_ops)
    next_row_id = property(lambda self: self._mutable.next_row_id)
    n_compactions = property(lambda self: self._mutable.n_compactions)
    n_drift_compactions = property(
        lambda self: self._mutable.n_drift_compactions
    )
    wal_sync = property(lambda self: self._mutable.wal_sync)
    wal_appends = property(lambda self: self._mutable.wal_appends)
    wal_syncs = property(lambda self: self._mutable.wal_syncs)
    store = property(lambda self: self._mutable.store)

    def insert(self, vector, *, row_id: int | None = None) -> int:
        """Add one row; see :meth:`MutableBackend.insert`."""
        return self._mutable.insert(vector, row_id=row_id)

    def delete(self, row_id: int) -> None:
        """Remove one live row; see :meth:`MutableBackend.delete`."""
        self._mutable.delete(row_id)

    def compact(self, reason: str = "manual") -> GenerationInfo:
        """Fold the memtable into a new generation; see :meth:`MutableBackend.compact`."""
        return self._mutable.compact(reason)


def _scan_delta(rows, ids, live, queries, k) -> BatchKnnResult:
    """Exact top-``k`` of the arena's live rows, for every query.

    Same arithmetic as the family's sequential scan — per-row
    subtract, square, sum, then a stable argsort — so a delta row's
    distance has exactly the bits a fresh index would produce, and
    ascending-id storage makes the stable sort break ties by lower
    global id.  Dead rows are dropped after the arithmetic and before
    the sort.  With fewer than ``k`` live rows the answer is that much
    narrower.
    """
    b = len(queries)
    keep = None if live.all() else np.flatnonzero(live)
    if keep is not None:
        ids = ids[keep]
    top_ids = np.empty((b, min(k, ids.size)), dtype=np.int64)
    top_distances = np.empty(top_ids.shape)
    # One scratch matrix for the batch, written in place, instead of
    # two fresh (n, d) temporaries per query row.
    gaps = np.empty(rows.shape)
    for row, vector in enumerate(queries):
        np.subtract(rows, vector, out=gaps)
        np.square(gaps, out=gaps)
        squared = np.sum(gaps, axis=1)
        if keep is not None:
            squared = squared[keep]
        order = np.argsort(squared, kind="stable")[:k]
        top_ids[row] = ids[order]
        top_distances[row] = np.sqrt(squared[order])
    return BatchKnnResult.from_columns(
        top_ids,
        top_distances,
        stats_block(b, points_scanned=ids.size),
    )


def _find(ids: np.ndarray, row_id: int) -> int:
    """Position of ``row_id`` in the ascending ``ids``, or ``-1``."""
    position = int(ids.searchsorted(row_id))
    if position < ids.size and ids[position] == row_id:
        return position
    return -1


def _live_rowset(view: _View, base_live, rows, ids, live):
    """``(ids, rows)`` of the live rowset, in ascending global-id order.

    The view's base rows where ``base_live`` is set, then the arena's
    ``rows``/``ids`` where ``live`` is set.  Both parts ascend, and
    every arena id exceeds every base id (an insert takes an id past
    every allocated one, and a base holds only rows inserted before
    its compaction), so the concatenation is already in order.
    """
    all_ids = np.concatenate([view.base_ids[base_live], ids[live]])
    all_rows = np.concatenate(
        [np.asarray(view.points)[base_live], rows[live]]
    )
    return all_ids, all_rows


def live_reference_index(server: MutableIndexServer):
    """A freshly built index + id map equal to the server's live rowset.

    Returns ``(index, live_ids)``: the reference the identity tests
    compare against — ``index`` is built over the live rows in
    ascending global-id order and ``live_ids[local] -> global``.
    Mutations must be quiescent while it is used.
    """
    backend = server._mutable
    with backend._lock:
        view = backend._view
        base_live = backend._base_live.copy()
        rows, ids, live = backend._arena_locked()
    live_ids, live_rows = _live_rowset(view, base_live, rows, ids, live)
    index = build_index(server.kind, live_rows, **backend._index_kwargs)
    return index, live_ids
