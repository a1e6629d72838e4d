"""Sharded mutable serving: per-shard memtables behind one pipeline.

:class:`MutableShardedServer` extends the scatter-gather story to a
mutating corpus.  It is the serving pipeline of
:mod:`repro.serve.server` (one batcher, one deadline reaper, one
ledger) over a :class:`~repro.shard.server._ShardFanout` to one
:class:`~repro.serve.mutation.MutableBackend` per shard, and it
forwards every mutation to the shard that owns the row:

* the coordinator allocates **global row ids** (monotonic, never
  reused) and routes by ``row_id % n_shards`` — the round-robin rule,
  applied uniformly to the seed corpus and to every later insert, so
  ownership is a pure function of the id and deletes need no routing
  table;
* each member keeps its own memtable, compacts its own generations
  (size- or drift-triggered, independently — one shard hot-swapping
  never blocks the others), and answers exactly for its subset;
* each coalesced batch fans out to every member, which clamps ``k`` to
  the live rows it captured and answers in global ids; the per-shard
  answers are pooled and re-selected by ``(distance, global id)``, the
  family's tie-break order.  The members partition the live rowset, so
  the merged top-k is bit-identical to one fresh index built over all
  live rows (see :mod:`repro.shard.merge` for the argument).

Only exact kinds are accepted, inherited from the members' own gate.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.search.results import validate_corpus
from repro.serve.mutation import MutableBackend, MutationError
from repro.serve.server import _ServingPipeline
from repro.shard.server import _ShardFanout


class MutableShardedServer(_ServingPipeline):
    """Mutation-capable scatter-gather over per-shard generation stores.

    Args:
        root: directory holding one generation store per shard
            (``shard-000/``, ``shard-001/``, ...).
        points: initial corpus for a fresh deployment (row ``i`` gets
            global id ``i`` and lands on shard ``i % n_shards``); pass
            ``None`` to resume existing stores.
        n_shards: member count; fixed for the deployment's lifetime.
        kind / index_kwargs / compact_threshold / drift_threshold /
        n_workers: forwarded to every member
            :class:`~repro.serve.mutation.MutableBackend`; the batcher
            keeps ``max(1, n_workers)`` fan-out batches in flight.
        wal_sync: write-ahead log fsync policy, forwarded to every
            member — each shard keeps its own log.  Under ``"always"``
            an acknowledged op is durable on its owning shard, so resume
            (which recovers the global id counter as the max over member
            counters) never reuses an id even after a partial-shard
            crash; under ``"group"``/``"off"`` a crash can drop each
            shard's unsynced window independently.
    """

    def __init__(
        self,
        root: str,
        points=None,
        *,
        n_shards: int = 2,
        kind: str = "bruteforce",
        index_kwargs: dict | None = None,
        n_workers: int = 0,
        compact_threshold: int | None = None,
        drift_threshold: float | None = None,
        wal_sync: str = "always",
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        super().__init__(
            policy=None, cache_capacity=0, default_deadline_ms=None
        )
        self.n_shards = int(n_shards)
        self._root = os.path.abspath(root)
        member_points: list = [None] * n_shards
        member_ids: list = [None] * n_shards
        if points is not None:
            corpus = validate_corpus(points)
            if corpus.shape[0] < n_shards:
                raise MutationError(
                    f"n_shards={n_shards} exceeds the corpus size "
                    f"{corpus.shape[0]}; every shard needs at least "
                    "one seed row"
                )
            for shard in range(n_shards):
                member_points[shard] = corpus[shard::n_shards]
                member_ids[shard] = np.arange(
                    shard, corpus.shape[0], n_shards, dtype=np.intp
                )
        self._members: list[MutableBackend] = []
        try:
            for shard in range(n_shards):
                self._members.append(
                    MutableBackend(
                        os.path.join(self._root, f"shard-{shard:03d}"),
                        member_points[shard],
                        row_ids=member_ids[shard],
                        kind=kind,
                        index_kwargs=index_kwargs,
                        n_workers=n_workers,
                        compact_threshold=compact_threshold,
                        drift_threshold=drift_threshold,
                        wal_sync=wal_sync,
                    )
                )
        except BaseException:
            for member in self._members:
                member.close()
            raise
        self._kind = kind
        # Global id allocation: resume from the largest next-id any
        # member recorded.  With round-robin ownership an id is only
        # valid on shard id % S, so the coordinator hands each member
        # the exact id it must store the row under.  Each member's
        # counter reflects its generation manifest *plus* its replayed
        # write-ahead log, so under wal_sync="always" every id the
        # coordinator ever acknowledged is past the recovered max and
        # can never be reallocated after a partial-shard crash.
        self._lock = threading.Lock()
        self._next_row_id = max(
            member.next_row_id for member in self._members
        )
        # Members answer in global ids (no id map) and are drained and
        # closed by the pipeline like worker pools.
        self._start(
            _ShardFanout(self._members, [None] * n_shards),
            self._members,
            n_workers,
        )

    # -- introspection -------------------------------------------------

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def dimensionality(self) -> int:
        return self._members[0].dimensionality

    @property
    def n_live(self) -> int:
        return sum(member.n_live for member in self._members)

    n_points = n_live  # what validate_k bounds a request's k by

    @property
    def next_row_id(self) -> int:
        """The global id the next :meth:`insert` would be assigned."""
        with self._lock:
            return self._next_row_id

    @property
    def members(self) -> tuple[MutableBackend, ...]:
        return tuple(self._members)

    def owner_of(self, row_id: int) -> int:
        """The shard owning ``row_id`` (pure function of the id)."""
        return int(row_id) % self.n_shards

    # -- mutation ------------------------------------------------------

    def insert(self, vector) -> int:
        """Insert one row; the coordinator allocates its global id."""
        # Allocate, store, then advance, in one lock hold: a member
        # refuses an id below one it stored, and a refused row uses none.
        with self._lock:
            self._require_open()
            row_id = self._next_row_id
            self._members[self.owner_of(row_id)].insert(vector, row_id=row_id)
            self._next_row_id = row_id + 1
        return row_id

    def delete(self, row_id: int) -> None:
        """Delete one live row, routed to its owning shard.

        Raises:
            KeyError: when ``row_id`` is not a live row.
        """
        self._members[self.owner_of(row_id)].delete(row_id)

    def compact_all(self, reason: str = "manual") -> None:
        """Compact every member (each publishes its own generation)."""
        for member in self._members:
            if member.memtable_ops > 0 or reason != "manual":
                member.compact(reason=reason)
