"""Sharded mutable serving: per-shard memtables behind one coordinator.

:class:`MutableShardedServer` extends the scatter-gather story to a
mutating corpus.  The coordinator owns one
:class:`~repro.serve.mutation.MutableIndexServer` per shard and
forwards every mutation to the shard that owns the row:

* the coordinator allocates **global row ids** (monotonic, never
  reused) and routes by ``row_id % n_shards`` — the round-robin rule,
  applied uniformly to the seed corpus and to every later insert, so
  ownership is a pure function of the id and deletes need no routing
  table;
* each member keeps its own memtable, compacts its own generations
  (size- or drift-triggered, independently — one shard hot-swapping
  never blocks the others), and answers exactly for its subset;
* a query fans out with each member's ``k`` clamped to its live row
  count, and the per-shard answers — already in global ids — are
  pooled and re-selected by ``(distance, global id)``, the family's
  tie-break order.  The members partition the live rowset, so the
  merged top-k is bit-identical to one fresh index built over all live
  rows (see :mod:`repro.shard.merge` for the argument).

Only exact kinds are accepted, inherited from the per-shard servers'
own gate.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.search.results import (
    BatchKnnResult,
    KnnResult,
    Neighbor,
    combine_stats,
    validate_corpus,
    validate_k,
    validate_queries,
    validate_query,
)
from repro.serve.errors import DeadlineExceeded, ServerClosedError
from repro.serve.mutation import MutableIndexServer, MutationError
from repro.serve.server import _deadline_at


class MutableShardedServer:
    """Mutation-capable scatter-gather over per-shard generation stores.

    Args:
        root: directory holding one generation store per shard
            (``shard-000/``, ``shard-001/``, ...).
        points: initial corpus for a fresh deployment (row ``i`` gets
            global id ``i`` and lands on shard ``i % n_shards``); pass
            ``None`` to resume existing stores.
        n_shards: member count; fixed for the deployment's lifetime.
        kind / index_kwargs / compact_threshold / drift_threshold /
        keep_generations / n_workers: forwarded to every member
            :class:`MutableIndexServer`.
        wal_sync / wal_group_ops / wal_group_interval_ms: write-ahead
            log fsync policy, forwarded to every member — each shard
            keeps its own log.  Under ``"always"`` an acknowledged op
            is durable on its owning shard, so resume (which recovers
            the global id counter as the max over member counters)
            never reuses an id even after a partial-shard crash; under
            ``"group"``/``"off"`` a crash can drop each shard's
            unsynced window independently.
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
        keep_generations: int = 2,
        wal_sync: str = "always",
        wal_group_ops: int = 64,
        wal_group_interval_ms: float = 50.0,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
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
        self._members: list[MutableIndexServer] = []
        try:
            for shard in range(n_shards):
                self._members.append(
                    MutableIndexServer(
                        os.path.join(self._root, f"shard-{shard:03d}"),
                        member_points[shard],
                        row_ids=member_ids[shard],
                        kind=kind,
                        index_kwargs=index_kwargs,
                        n_workers=n_workers,
                        compact_threshold=compact_threshold,
                        drift_threshold=drift_threshold,
                        keep_generations=keep_generations,
                        wal_sync=wal_sync,
                        wal_group_ops=wal_group_ops,
                        wal_group_interval_ms=wal_group_interval_ms,
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
        self._closed = False

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

    @property
    def next_row_id(self) -> int:
        """The global id the next :meth:`insert` would be assigned."""
        with self._lock:
            return self._next_row_id

    @property
    def members(self) -> tuple[MutableIndexServer, ...]:
        return tuple(self._members)

    def owner_of(self, row_id: int) -> int:
        """The shard owning ``row_id`` (pure function of the id)."""
        return int(row_id) % self.n_shards

    # -- mutation ------------------------------------------------------

    def insert(self, vector) -> int:
        """Insert one row; the coordinator allocates its global id."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("sharded server is closed")
            row_id = self._next_row_id
            self._next_row_id += 1
        self._members[self.owner_of(row_id)].insert(vector, row_id=row_id)
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

    # -- queries -------------------------------------------------------

    def query(
        self, query, k: int = 1, *, deadline_ms: float | None = None
    ) -> KnnResult:
        """Exact global top-``k`` over the union of live shard rows.

        ``deadline_ms`` bounds the whole request: the members are asked
        one after another, each with the budget that remains, and a
        spent budget raises :class:`DeadlineExceeded`.
        """
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_live)
        deadline = _deadline_at(deadline_ms, time.perf_counter())
        per_shard = []
        for member in self._members:
            # A member holding fewer than k live rows contributes them
            # all; one holding none contributes nothing.  Any global
            # top-k row ranks in the top-k of its own shard, so
            # clamping loses no candidate.
            k_member = min(k, member.n_live)
            if k_member > 0:
                per_shard.append(member.query(
                    vector, k_member, deadline_ms=_remaining_ms(deadline)
                ))
        _remaining_ms(deadline)  # a late answer is not delivered
        return _merge_global(per_shard, k)

    def query_batch(
        self, queries, k: int = 1, *, deadline_ms: float | None = None
    ) -> BatchKnnResult:
        """Row-wise :meth:`query` through per-member explicit batches.

        ``deadline_ms`` bounds the whole batch, as in :meth:`query`.
        """
        array = validate_queries(queries, self.dimensionality)
        k = validate_k(k, self.n_live)
        deadline = _deadline_at(deadline_ms, time.perf_counter())
        per_shard = []
        for member in self._members:
            k_member = min(k, member.n_live)
            if k_member > 0 and array.shape[0] > 0:
                per_shard.append(member.query_batch(
                    array, k_member, deadline_ms=_remaining_ms(deadline)
                ))
        _remaining_ms(deadline)
        results = tuple(
            _merge_global(
                [batch.results[row] for batch in per_shard], k
            )
            for row in range(array.shape[0])
        )
        return BatchKnnResult(
            results=results,
            stats=combine_stats(r.stats for r in results),
        )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Close every member server (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for member in self._members:
            member.close()

    def __enter__(self) -> "MutableShardedServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _remaining_ms(deadline: float | None) -> float | None:
    """The budget left before ``deadline``; raises once it is spent."""
    if deadline is None:
        return None
    remaining = (deadline - time.perf_counter()) * 1e3
    if remaining <= 0.0:
        raise DeadlineExceeded(
            "request deadline passed before every shard answered"
        )
    return remaining


def _merge_global(per_shard, k: int) -> KnnResult:
    """Pool per-shard answers (already global ids) into the top-``k``."""
    candidates = [
        (neighbor.distance, neighbor.index)
        for result in per_shard
        for neighbor in result.neighbors
    ]
    candidates.sort()
    return KnnResult(
        neighbors=tuple(
            Neighbor(index=gid, distance=distance)
            for distance, gid in candidates[:k]
        ),
        stats=combine_stats(result.stats for result in per_shard),
    )
