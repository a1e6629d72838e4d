"""The IGrid index: proximity by shared discretized ranges.

Aggarwal & Yu (KDD 2000), the paper's reference [3] — "The IGrid Index:
Reversing the Dimensionality Curse".  Instead of an L_p norm over raw
coordinates (which Section 1.1 shows becomes meaningless in high
dimensionality), IGrid discretizes every dimension into ``k_d``
equi-depth ranges and scores two points by *in which dimensions they
fall into the same range*, with a per-dimension proximity bonus for
being close within the shared range:

    similarity(x, y) = sum over dims j in S(x, y) of
                       [1 - |x_j - y_j| / width_j(range)] ** p

where ``S(x, y)`` is the set of dimensions sharing a range.  Because the
expected size of ``S`` is ``d / k_d`` and its variance grows with ``d``,
the similarity stays discriminative as dimensionality rises — the
"reversing" of the title.

The inverted-list index stores, per (dimension, range), the points that
fall there; a query only touches the lists of its own ranges, which is
how candidate generation avoids a full scan on every dimension.
"""

from __future__ import annotations

import numpy as np

from repro.search.batch import sequential_query_batch
from repro.search.results import (
    BatchKnnResult,
    KnnResult,
    Neighbor,
    QueryStats,
    validate_corpus,
    validate_k,
    validate_query,
)
from repro.search.snapshot import read_snapshot, write_snapshot


def igrid_discretization(
    points, ranges_per_dim: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Equi-depth ``(edges, widths)`` discretization of a corpus.

    ``edges`` is ``(k_d + 1, d)`` range boundaries per dimension from the
    empirical quantiles, outer edges pushed to infinity so every query
    value lands in some range.  ``widths`` is the ``(k_d, d)`` finite
    span of each range (falling back to a fraction of the dimension's
    full span for degenerate ranges), used by the proximity bonus.

    Factored out of :class:`IGridIndex` so callers that split one corpus
    across several indexes (:func:`repro.shard.build_shards`) can
    compute the discretization **once over the full corpus** and pass it
    to every sub-index: the IGrid similarity function is defined by
    these boundaries, so sub-indexes discretizing their own subsets
    would each score by a different function and could never merge
    bit-identically.
    """
    array = validate_corpus(points)
    quantiles = np.linspace(0.0, 1.0, ranges_per_dim + 1)
    edges = np.quantile(array, quantiles, axis=0)  # (k+1, d)
    edges[0, :] = -np.inf
    edges[-1, :] = np.inf
    finite_low = np.quantile(array, quantiles[:-1], axis=0)
    finite_high = np.quantile(array, quantiles[1:], axis=0)
    widths = finite_high - finite_low
    fallback = np.maximum(
        array.max(axis=0) - array.min(axis=0), 1e-12
    )
    widths = np.where(widths > 0.0, widths, fallback / ranges_per_dim)
    return edges, widths


class IGridIndex:
    """Inverted grid index with the IGrid similarity function.

    Args:
        points: ``(n, d)`` corpus.
        ranges_per_dim: ``k_d``, the number of equi-depth ranges per
            dimension.  The IGrid paper recommends ``k_d`` proportional
            to ``d`` so the expected number of shared dimensions stays
            constant; callers doing high-dimensional work should scale it.
        p: exponent of the within-range proximity bonus.
        discretization: optional ``(edges, widths)`` pair (shapes
            ``(k_d + 1, d)`` and ``(k_d, d)``) overriding the boundaries
            derived from ``points`` — see :func:`igrid_discretization`.
    """

    # Snapshot kind: read by the registry, snapshot dispatch, and
    # the :class:`repro.search.Index` protocol.
    kind = "igrid"

    def __init__(
        self,
        points,
        ranges_per_dim: int = 4,
        p: float = 2.0,
        discretization: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if ranges_per_dim < 2:
            raise ValueError(
                f"ranges_per_dim must be at least 2, got {ranges_per_dim}"
            )
        if p <= 0:
            raise ValueError(f"p must be positive, got {p}")
        self._points = validate_corpus(points)
        self.ranges_per_dim = ranges_per_dim
        self.p = p

        n, d = self._points.shape
        if discretization is None:
            edges, widths = igrid_discretization(
                self._points, ranges_per_dim
            )
        else:
            edges = np.asarray(discretization[0], dtype=np.float64)
            widths = np.asarray(discretization[1], dtype=np.float64)
            if edges.shape != (ranges_per_dim + 1, d) or widths.shape != (
                ranges_per_dim,
                d,
            ):
                raise ValueError(
                    "discretization shapes must be "
                    f"({ranges_per_dim + 1}, {d}) and ({ranges_per_dim}, "
                    f"{d}), got {edges.shape} and {widths.shape}"
                )
        self._edges = edges
        self._widths = widths  # (k, d)

        assignments = self._assign(self._points)  # (n, d) range ids
        # Inverted lists in CSR form: per dimension, the corpus rows in
        # range order (stable argsort keeps ascending row index within a
        # range, matching a per-range flatnonzero) plus range offsets.
        order = np.argsort(assignments, axis=0, kind="stable")
        self._list_order = np.ascontiguousarray(order.T)  # (d, n)
        counts = np.bincount(
            (assignments + ranges_per_dim * np.arange(d)).ravel(),
            minlength=ranges_per_dim * d,
        ).reshape(d, ranges_per_dim)
        starts = np.zeros((d, ranges_per_dim + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=starts[:, 1:])
        self._list_starts = starts
        self._set_list_views()

    def _set_list_views(self) -> None:
        """Per (dimension, range): the corpus rows falling there."""
        starts = self._list_starts
        self._lists = [
            [
                self._list_order[j, starts[j, r]:starts[j, r + 1]]
                for r in range(starts.shape[1] - 1)
            ]
            for j in range(starts.shape[0])
        ]

    def save(self, path: str) -> None:
        """Persist the index to ``path`` (``.npz`` snapshot)."""
        write_snapshot(
            path,
            self.kind,
            {
                "points": self._points,
                "ranges_per_dim": np.int64(self.ranges_per_dim),
                "p": np.float64(self.p),
                "edges": self._edges,
                "widths": self._widths,
                "list_order": self._list_order,
                "list_starts": self._list_starts,
            },
        )

    @classmethod
    def load(cls, path: str, *, mmap_points: bool = False) -> "IGridIndex":
        """Load a snapshot saved by :meth:`save`; query-ready immediately."""
        data = read_snapshot(
            path,
            cls.kind,
            required=(
                "points", "ranges_per_dim", "p", "edges", "widths",
                "list_order", "list_starts",
            ),
            mmap_points=mmap_points,
        )
        index = cls.__new__(cls)
        index._points = data["points"]
        index.ranges_per_dim = int(data["ranges_per_dim"])
        index.p = float(data["p"])
        index._edges = data["edges"]
        index._widths = data["widths"]
        index._list_order = data["list_order"].astype(np.intp, copy=False)
        index._list_starts = data["list_starts"]
        index._set_list_views()
        return index

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def dimensionality(self) -> int:
        return self._points.shape[1]

    def _assign(self, rows: np.ndarray) -> np.ndarray:
        """Range id of every value, per dimension (vectorized searchsorted)."""
        single = rows.ndim == 1
        if single:
            rows = rows.reshape(1, -1)
        assignments = np.empty(rows.shape, dtype=np.int64)
        for j in range(self.dimensionality):
            assignments[:, j] = (
                np.searchsorted(self._edges[1:-1, j], rows[:, j], side="right")
            )
        return assignments[0] if single else assignments

    def similarity(self, x, y) -> float:
        """The IGrid similarity between two vectors (higher = closer)."""
        a = validate_query(x, self.dimensionality)
        b = validate_query(y, self.dimensionality)
        ra = self._assign(a)
        rb = self._assign(b)
        shared = ra == rb
        if not shared.any():
            return 0.0
        dims = np.flatnonzero(shared)
        widths = self._widths[ra[dims], dims]
        closeness = 1.0 - np.abs(a[dims] - b[dims]) / widths
        np.clip(closeness, 0.0, 1.0, out=closeness)
        return float(np.sum(closeness**self.p))

    def query(self, query, k: int = 1) -> KnnResult:
        """Top-``k`` corpus points by IGrid similarity.

        The inverted lists of the query's own ranges supply candidate
        points and, simultaneously, all the data needed to score them —
        a point absent from every shared list has similarity 0.  Reported
        "distance" is ``-similarity`` so results sort like the other
        indexes (ascending = best first); ties break by corpus index.
        """
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_points)
        stats = QueryStats()

        ranges = self._assign(vector)
        scores = np.zeros(self.n_points)
        touched = np.zeros(self.n_points, dtype=bool)
        for j in range(self.dimensionality):
            members = self._lists[j][ranges[j]]
            stats.nodes_visited += 1
            if members.size == 0:
                continue
            touched[members] = True
            width = self._widths[ranges[j], j]
            closeness = 1.0 - np.abs(
                self._points[members, j] - vector[j]
            ) / width
            np.clip(closeness, 0.0, 1.0, out=closeness)
            scores[members] += closeness**self.p

        stats.points_scanned = int(np.sum(touched))
        stats.nodes_pruned = self.n_points - stats.points_scanned
        order = np.lexsort((np.arange(self.n_points), -scores))[:k]
        neighbors = tuple(
            Neighbor(index=int(i), distance=float(-scores[i])) for i in order
        )
        return KnnResult(neighbors=neighbors, stats=stats)

    def query_batch(self, queries, k: int = 1) -> BatchKnnResult:
        """Top-``k`` by IGrid similarity for every row of ``queries``;
        bit-identical to looping :meth:`query`, which it calls row by
        row."""
        return sequential_query_batch(self, queries, k)
