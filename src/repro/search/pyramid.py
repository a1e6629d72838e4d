"""The Pyramid-Technique index.

Berchtold, Böhm & Kriegel (SIGMOD 1998): partition the unit cube into
``2d`` pyramids meeting at the center, map every point to a single
scalar — pyramid id plus the point's *height* within its pyramid — and
index the scalars with a one-dimensional ordered structure.  Unlike
space-partitioning trees, the mapping's effectiveness does not collapse
as ``d`` grows, which made it the standard high-dimensional range-query
index of the paper's era (it shares a lineage with the X-tree cited as
reference [4]).

This implementation keeps the classical design:

* points are affinely mapped into ``[0, 1]^d`` using the corpus extent;
* pyramid ``i`` (for ``i < d``) collects points whose dominant deviation
  from the center is negative along dimension ``i``; pyramid ``i + d``
  the positive side; the height is ``|x_i - 0.5|``;
* the 1-d index is a sorted array searched with ``searchsorted`` (the
  moral equivalent of the original's B+-tree);
* a range query visits only the pyramids the query box intersects and,
  within each, only the height interval the box can reach.

Exact k-NN is answered on top of the range machinery by growing the
radius geometrically from the nearest candidate until ``k`` results are
confirmed (standard practice; the pyramid mapping itself only supports
ranges).
"""

from __future__ import annotations

import numpy as np

from repro.search.batch import dispatch_query_batch
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


class PyramidIndex:
    """Pyramid-technique index over a static corpus (Euclidean queries).

    Args:
        points: ``(n, d)`` corpus.
    """

    # Snapshot kind: read by the registry, snapshot dispatch, and
    # the :class:`repro.search.Index` protocol.
    kind = "pyramid"

    def __init__(self, points) -> None:
        self._points = validate_corpus(points)
        n, d = self._points.shape

        lower = self._points.min(axis=0)
        span = self._points.max(axis=0) - lower
        span[span == 0.0] = 1.0
        self._lower = lower
        self._span = span

        normalized = self._normalize(self._points)
        pyramid_ids, heights = self._pyramid_values(normalized)

        # CSR layout: one corpus-row permutation ordered by (pyramid,
        # height) — lexsort is stable, so equal heights keep ascending
        # corpus index — plus pyramid start offsets into it.
        order = np.lexsort((heights, pyramid_ids))
        self._member_order = order
        self._height_keys = heights[order]
        self._starts = np.searchsorted(
            pyramid_ids[order], np.arange(2 * d + 1)
        ).astype(np.int64)
        self._set_pyramid_views()

    def _set_pyramid_views(self) -> None:
        """Per pyramid: member rows sorted by height, and those heights."""
        starts = self._starts
        self._members = [
            self._member_order[starts[p]:starts[p + 1]]
            for p in range(starts.size - 1)
        ]
        self._heights = [
            self._height_keys[starts[p]:starts[p + 1]]
            for p in range(starts.size - 1)
        ]

    def save(self, path: str) -> None:
        """Persist the index to ``path`` (``.npz`` snapshot)."""
        write_snapshot(
            path,
            self.kind,
            {
                "points": self._points,
                "lower": self._lower,
                "span": self._span,
                "member_order": self._member_order,
                "height_keys": self._height_keys,
                "starts": self._starts,
            },
        )

    @classmethod
    def load(cls, path: str, *, mmap_points: bool = False) -> "PyramidIndex":
        """Load a snapshot saved by :meth:`save`; query-ready immediately."""
        data = read_snapshot(
            path,
            cls.kind,
            required=(
                "points", "lower", "span", "member_order", "height_keys",
                "starts",
            ),
            mmap_points=mmap_points,
        )
        index = cls.__new__(cls)
        index._points = data["points"]
        index._lower = data["lower"]
        index._span = data["span"]
        index._member_order = data["member_order"].astype(np.intp, copy=False)
        index._height_keys = data["height_keys"]
        index._starts = data["starts"]
        index._set_pyramid_views()
        return index

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def dimensionality(self) -> int:
        return self._points.shape[1]

    def _normalize(self, rows: np.ndarray) -> np.ndarray:
        return (rows - self._lower) / self._span

    @staticmethod
    def _pyramid_values(normalized: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pyramid id, height) for every normalized row."""
        deviations = normalized - 0.5
        dominant = np.argmax(np.abs(deviations), axis=1)
        rows = np.arange(normalized.shape[0])
        signs = deviations[rows, dominant] >= 0.0
        d = normalized.shape[1]
        pyramid_ids = dominant + signs * d
        heights = np.abs(deviations[rows, dominant])
        return pyramid_ids.astype(np.int64), heights

    def _query_intervals(
        self, low: np.ndarray, high: np.ndarray
    ) -> list[tuple[int, float, float]]:
        """Pyramids intersecting a normalized box, with height intervals.

        For pyramid ``i`` (negative side of dimension ``i``) the points
        inside the box must have ``height = 0.5 - x_i`` within the box's
        reach along dimension ``i``, and a point's height along its
        *dominant* dimension bounds its deviation along every other
        dimension — which yields the classical interval

            h_lo = max(0, 0.5 - high_i, min-over-j max(0, |center-box|_j))
            h_hi = 0.5 - low_i

        (mirrored for the positive side).  We use the simpler sufficient
        bounds of the original paper: a pyramid intersects the box if the
        box reaches its side of the center, and the height interval is
        clipped by how far the box extends along the pyramid's dimension.
        """
        d = low.size
        center_gap = np.maximum(
            np.maximum(low - 0.5, 0.0), np.maximum(0.5 - high, 0.0)
        )
        min_gap = float(center_gap.max())  # every inside point deviates
        # at least this much along *some* dimension, so its height (the
        # max deviation) is at least min_gap... for the dominant one.
        intervals = []
        for i in range(d):
            # Side tests are non-strict: a point exactly at the center
            # (height 0) lives in *some* pyramid, and a box touching
            # only the center must still reach it there.
            if low[i] <= 0.5:
                h_hi = 0.5 - low[i]
                h_lo = max(0.5 - high[i], 0.0, min_gap)
                if h_lo <= h_hi:
                    intervals.append((i, h_lo, h_hi))
            if high[i] >= 0.5:
                h_hi = high[i] - 0.5
                h_lo = max(low[i] - 0.5, 0.0, min_gap)
                if h_lo <= h_hi:
                    intervals.append((i + d, h_lo, h_hi))
        return intervals

    def range_query(self, query, radius: float) -> KnnResult:
        """All corpus points within ``radius`` of ``query``.

        Only the pyramids (and height slices) the query box intersects
        are scanned; every surviving candidate is verified exactly.
        """
        vector = validate_query(query, self.dimensionality)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        stats = QueryStats()
        radius_sq = radius * radius

        low = self._normalize((vector - radius).reshape(1, -1))[0]
        high = self._normalize((vector + radius).reshape(1, -1))[0]
        found: list[tuple[float, int]] = []
        for pyramid_id, h_lo, h_hi in self._query_intervals(low, high):
            heights = self._heights[pyramid_id]
            start = int(np.searchsorted(heights, h_lo - 1e-12, side="left"))
            stop = int(np.searchsorted(heights, h_hi + 1e-12, side="right"))
            stats.nodes_visited += 1
            candidates = self._members[pyramid_id][start:stop]
            if candidates.size == 0:
                continue
            gaps = self._points[candidates] - vector
            squared = np.sum(np.square(gaps), axis=1)
            stats.points_scanned += int(candidates.size)
            for idx, d2 in zip(candidates, squared):
                if d2 <= radius_sq:
                    found.append((float(d2), int(idx)))
        stats.nodes_pruned = self.n_points - stats.points_scanned
        found.sort()
        neighbors = tuple(
            Neighbor(index=idx, distance=float(np.sqrt(d2))) for d2, idx in found
        )
        return KnnResult(neighbors=neighbors, stats=stats)

    def query(self, query, k: int = 1) -> KnnResult:
        """Exact k-NN by geometric radius expansion over range scans.

        Each expansion widens the pyramid/height intervals and scans only
        the candidates not already examined: a point's exact distance is
        computed (and counted in ``points_scanned``) at most once, no
        matter how many rounds the expansion takes.
        """
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_points)
        stats = QueryStats()

        # inf = not yet examined; exact squared distance once scanned.
        distance_sq = np.full(self.n_points, np.inf)

        # Starting radius: reach the k-th candidate along the pyramid
        # scalar ordering near the query, or a span-based guess.
        radius = float(np.min(self._span)) / 16.0
        for _ in range(64):
            radius_sq = radius * radius
            low = self._normalize((vector - radius).reshape(1, -1))[0]
            high = self._normalize((vector + radius).reshape(1, -1))[0]
            for pyramid_id, h_lo, h_hi in self._query_intervals(low, high):
                heights = self._heights[pyramid_id]
                start = int(np.searchsorted(heights, h_lo - 1e-12, side="left"))
                stop = int(np.searchsorted(heights, h_hi + 1e-12, side="right"))
                stats.nodes_visited += 1
                candidates = self._members[pyramid_id][start:stop]
                fresh = candidates[np.isinf(distance_sq[candidates])]
                if fresh.size == 0:
                    continue
                gaps = self._points[fresh] - vector
                distance_sq[fresh] = np.sum(np.square(gaps), axis=1)
                stats.points_scanned += int(fresh.size)
            # Exactness guard: a confirmed k-th distance within the
            # searched radius cannot be beaten by any unscanned point
            # (range scans are complete within their radius).
            within = np.flatnonzero(distance_sq <= radius_sq)
            if within.size >= k:
                order = within[
                    np.argsort(distance_sq[within], kind="stable")
                ][:k]
                neighbors = tuple(
                    Neighbor(
                        index=int(idx),
                        distance=float(np.sqrt(distance_sq[idx])),
                    )
                    for idx in order
                )
                stats.nodes_pruned = self.n_points - stats.points_scanned
                return KnnResult(neighbors=neighbors, stats=stats)
            radius *= 2.0
        raise RuntimeError(
            "pyramid k-NN radius expansion did not converge; corpus extent "
            "may be degenerate"
        )

    def query_batch(
        self, queries, k: int = 1, *, n_workers: int | None = None
    ) -> BatchKnnResult:
        """k-NN for every row of ``queries``; bit-identical to looping
        :meth:`query`.  ``n_workers`` > 1 fans the rows out over a
        thread pool (radius expansion does not vectorize)."""
        return dispatch_query_batch(self, queries, k, n_workers)
