"""Shared result and instrumentation types for the k-NN indexes."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields

import numpy as np


@dataclass(frozen=True)
class Neighbor:
    """One retrieved neighbor.

    Attributes:
        index: row index of the point in the indexed corpus.
        distance: Euclidean distance to the query.
    """

    index: int
    distance: float


@dataclass
class QueryStats:
    """Work accounting for one k-NN query.

    Attributes:
        points_scanned: candidate points whose exact full-dimensional
            distance was computed.  For a prune-then-refine index this
            is the *refined-rows* counter — the survivors of the cheap
            screen — and it is what :meth:`pruning_fraction` audits.
        nodes_visited: tree nodes (or VA-file approximation cells)
            examined.
        nodes_pruned: nodes discarded by the optimistic (mindist) bound
            without being opened — the paper's "effective pruning".
        reduced_rows_scanned: rows scanned in a reduced (projected)
            representation to produce lower bounds, without computing a
            full-dimensional distance.  Zero for indexes that have no
            screening stage.  Together with ``points_scanned`` this
            splits the bytes-moved accounting of a screened scan:
            ``reduced_rows_scanned`` cheap subspace rows versus
            ``points_scanned`` full-width refinements.
        candidates_generated: rows the candidate-generation stage
            emitted *before* deduplication and refinement — the funnel
            width.  For LSH this counts every bucket member pulled from
            every probed bucket (a row surfacing in three tables counts
            three times); for the VA-file it counts the phase-1
            survivors; for the projection-screened index the rows the
            screen admitted to refinement.  ``points_scanned`` stays the
            *distinct* exactly-refined count, so
            :meth:`pruning_fraction` keeps its over-count-strict audit
            while this field reports how wide the funnel opened.
    """

    points_scanned: int = 0
    nodes_visited: int = 0
    nodes_pruned: int = 0
    reduced_rows_scanned: int = 0
    candidates_generated: int = 0

    def pruning_fraction(self, total_points: int) -> float:
        """Fraction of the corpus never exactly scanned at full width.

        Reduced-space scans do not count against pruning: a screened
        index that reads every reduced row but refines only a handful of
        full-dimensional survivors has pruned almost everything, and that
        is exactly the win this fraction reports.

        Raises:
            ValueError: when ``points_scanned`` exceeds ``total_points``.
                A query cannot scan more distinct points than the corpus
                holds, so an excess is always an accounting bug in the
                index (double-counted refinements); clamping it silently
                would report a fake 0.0 and hide the defect.
        """
        if total_points <= 0:
            raise ValueError("total_points must be positive")
        if self.points_scanned > total_points:
            raise ValueError(
                f"points_scanned ({self.points_scanned}) exceeds the corpus "
                f"size ({total_points}); the index double-counted scans"
            )
        return 1.0 - self.points_scanned / total_points


@dataclass(frozen=True)
class KnnResult:
    """Result of one k-NN query: neighbors sorted by ascending distance."""

    neighbors: tuple[Neighbor, ...]
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def indices(self) -> np.ndarray:
        return np.asarray([n.index for n in self.neighbors], dtype=np.intp)

    @property
    def distances(self) -> np.ndarray:
        return np.asarray([n.distance for n in self.neighbors], dtype=np.float64)


# The per-query stats block's columns, in QueryStats declaration order.
STATS_FIELDS = tuple(f.name for f in fields(QueryStats))


def combine_stats(per_query: Iterable[QueryStats]) -> QueryStats:
    """Sum work accounting across queries (for batch aggregation).

    Every counter is carried, including ``reduced_rows_scanned`` —
    dropping a field here would silently zero it out of every batch,
    serving, and sharding report (the aggregation paths all fold
    through this function).  Callers must pass *per-query* stats: the
    screened indexes assign each query's counters exactly once even
    when ``query_batch`` splits the batch into blocks, so summation
    never double-counts a row.
    """
    total = QueryStats()
    for stats in per_query:
        total.points_scanned += stats.points_scanned
        total.nodes_visited += stats.nodes_visited
        total.nodes_pruned += stats.nodes_pruned
        total.reduced_rows_scanned += stats.reduced_rows_scanned
        total.candidates_generated += stats.candidates_generated
    return total


def stats_block(rows: int, **counters) -> np.ndarray:
    """``(rows, 5)`` int64 per-query stats, columns in :data:`STATS_FIELDS` order.

    Each keyword names a :class:`QueryStats` field and gives a scalar or
    a ``(rows,)`` array; counters not named are zero.
    """
    block = np.zeros((rows, len(STATS_FIELDS)), dtype=np.int64)
    for name, value in counters.items():
        block[:, STATS_FIELDS.index(name)] = value
    return block


class KnnColumns(Sequence):
    """A batch's per-query results, stored as three arrays.

    * ``ids`` — ``(b, k)`` int64 neighbor indices, rows ascending by
      distance;
    * ``distances`` — ``(b, k)`` float64 distances;
    * ``stats`` — ``(b, 5)`` int64 per-query :class:`QueryStats`
      counters, columns in :data:`STATS_FIELDS` order.

    A row with fewer than ``k`` neighbors (an LSH row with sparse
    buckets, or fewer than ``k`` candidates) is padded at its tail with
    id ``-1`` and distance ``+inf``.  The arrays are read-only.

    As a sequence it yields one :class:`KnnResult` per row, built from
    ``tolist()`` rows on first access and kept; the padding is dropped,
    so ``neighbors`` holds only the found neighbors.  Slices are tuples.
    It pickles as the three arrays, so a batch crosses a process pipe
    without its row objects.
    """

    __slots__ = ("ids", "distances", "stats", "_rows")

    def __init__(
        self, ids: np.ndarray, distances: np.ndarray, stats: np.ndarray
    ) -> None:
        for array in (ids, distances, stats):
            array.flags.writeable = False
        self.ids = ids
        self.distances = distances
        self.stats = stats
        self._rows: tuple[KnnResult, ...] | None = None

    @classmethod
    def from_results(cls, results: Sequence[KnnResult]) -> "KnnColumns":
        """Pad per-row :class:`KnnResult` objects into the three arrays."""
        b = len(results)
        width = max((len(r.neighbors) for r in results), default=0)
        ids = np.full((b, width), -1, dtype=np.int64)
        distances = np.full((b, width), np.inf)
        stats = np.zeros((b, len(STATS_FIELDS)), dtype=np.int64)
        for row, result in enumerate(results):
            found = len(result.neighbors)
            ids[row, :found] = [n.index for n in result.neighbors]
            distances[row, :found] = [n.distance for n in result.neighbors]
            stats[row] = [getattr(result.stats, f) for f in STATS_FIELDS]
        return cls(ids, distances, stats)

    def _materialize(self) -> tuple[KnnResult, ...]:
        if self._rows is None:
            found = np.count_nonzero(self.ids >= 0, axis=1).tolist()
            self._rows = tuple(
                KnnResult(
                    neighbors=tuple(map(Neighbor, ids[:n], distances[:n])),
                    stats=QueryStats(*stats),
                )
                for ids, distances, stats, n in zip(
                    self.ids.tolist(),
                    self.distances.tolist(),
                    self.stats.tolist(),
                    found,
                )
            )
        return self._rows

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __getitem__(self, item):
        return self._materialize()[item]

    def __iter__(self) -> Iterator[KnnResult]:
        return iter(self._materialize())

    def __eq__(self, other) -> bool:
        if isinstance(other, (KnnColumns, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        return (KnnColumns, (self.ids, self.distances, self.stats))


@dataclass(frozen=True)
class BatchKnnResult:
    """Results of a batch of k-NN queries, one :class:`KnnResult` per row.

    Behaves as a sequence of the per-query results (``len``, iteration,
    indexing), so call sites written against ``list[KnnResult]`` keep
    working.  ``stats`` aggregates the per-query work accounting by
    summation — the natural unit for batch workloads, where
    ``stats.points_scanned / (len(batch) * n_points)`` is the batch-level
    scan fraction.

    The kinds that answer through arrays store ``results`` as a
    :class:`KnnColumns` (see :meth:`from_columns`); a batch built by
    hand from :class:`KnnResult` objects keeps its tuple.
    """

    results: Sequence[KnnResult]
    stats: QueryStats = field(default_factory=QueryStats)

    @classmethod
    def from_columns(
        cls, ids: np.ndarray, distances: np.ndarray, stats: np.ndarray
    ) -> "BatchKnnResult":
        """A batch over :class:`KnnColumns` arrays, its stats their sum."""
        return cls(
            results=KnnColumns(ids, distances, stats),
            stats=QueryStats(*stats.sum(axis=0).tolist()),
        )

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[KnnResult]:
        return iter(self.results)

    def __getitem__(self, item: int) -> KnnResult:
        return self.results[item]

    @property
    def columns(self) -> KnnColumns:
        """The batch as :class:`KnnColumns` (hand-built rows are padded)."""
        if isinstance(self.results, KnnColumns):
            return self.results
        return KnnColumns.from_results(self.results)

    @property
    def indices(self) -> np.ndarray:
        """``(q, k)`` neighbor indices (rows are queries).

        Rows short of ``k`` neighbors are padded with ``-1``.
        """
        return self.columns.ids

    @property
    def distances(self) -> np.ndarray:
        """``(q, k)`` neighbor distances (rows are queries).

        Rows short of ``k`` neighbors are padded with ``+inf``.
        """
        return self.columns.distances


def validate_corpus(points) -> np.ndarray:
    """Common validation for index constructors."""
    array = np.asarray(points, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"corpus must be 2-d (n, d), got shape {array.shape}")
    if array.shape[0] == 0:
        raise ValueError("corpus must contain at least one point")
    if not np.all(np.isfinite(array)):
        raise ValueError("corpus must be finite")
    return array


def validate_query(query, dimensionality: int) -> np.ndarray:
    """Common validation for query vectors."""
    vector = np.asarray(query, dtype=np.float64)
    if vector.ndim != 1 or vector.size != dimensionality:
        raise ValueError(
            f"query must be a 1-d vector of length {dimensionality}, "
            f"got shape {vector.shape}"
        )
    if not np.all(np.isfinite(vector)):
        raise ValueError("query must be finite")
    return vector


def validate_queries(queries, dimensionality: int) -> np.ndarray:
    """Common validation for batches of query vectors (rows are queries).

    An empty batch (zero rows) is permitted: production callers routinely
    flush whatever accumulated, including nothing.
    """
    array = np.asarray(queries, dtype=np.float64)
    if array.ndim != 2 or array.shape[1] != dimensionality:
        raise ValueError(
            f"queries must be a 2-d (q, {dimensionality}) matrix, "
            f"got shape {array.shape}"
        )
    if not np.all(np.isfinite(array)):
        raise ValueError("queries must be finite")
    return array


def validate_k(k: int, corpus_size: int) -> int:
    """Common validation for neighbor counts."""
    if not 1 <= k <= corpus_size:
        raise ValueError(f"k must lie in [1, {corpus_size}], got {k}")
    return int(k)
