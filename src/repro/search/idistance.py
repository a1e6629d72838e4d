"""The iDistance index.

Yu, Ooi, Tan & Jagadish (VLDB 2001 era): pick a set of reference points
(cluster centers), key every corpus point by

    key = partition_id * C + distance(point, its reference)

and put the keys in a one-dimensional ordered structure.  A k-NN query
runs an expanding-ring search: for the current radius ``r``, partition
``i`` can contain an answer only if
``dist(q, ref_i) - r <= height <= dist(q, ref_i) + r`` intersects the
partition's height range — a pair of binary searches per partition.  The
radius doubles until the k-th best confirmed distance is within it, at
which point the result is provably exact (triangle inequality: any
unseen point in partition ``i`` has
``dist(q, x) >= |dist(q, ref_i) - height(x)| > r``).

Like the pyramid technique, iDistance reduces high-dimensional search to
1-d interval scans; unlike it, the mapping adapts to the data's cluster
structure, which is what keeps the intervals selective.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.kmeans import kmeans
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


class IDistanceIndex:
    """iDistance index with k-means reference points.

    Args:
        points: ``(n, d)`` corpus.
        n_partitions: number of reference points; defaults to
            ``max(1, round(sqrt(n) / 2))``.
        seed: k-means seeding.
    """

    # Snapshot kind: read by the registry, snapshot dispatch, and
    # the :class:`repro.search.Index` protocol.
    kind = "idistance"

    def __init__(self, points, n_partitions: int | None = None, seed: int = 0) -> None:
        self._points = validate_corpus(points)
        n = self.n_points
        if n_partitions is None:
            n_partitions = max(1, int(round(np.sqrt(n) / 2)))
        if not 1 <= n_partitions <= n:
            raise ValueError(
                f"n_partitions must lie in [1, {n}], got {n_partitions}"
            )
        clustering = kmeans(self._points, n_partitions, seed=seed)
        self._references = clustering.centers
        self.n_partitions = n_partitions

        gaps = self._points - self._references[clustering.labels]
        heights = np.sqrt(np.sum(np.square(gaps), axis=1))

        # CSR layout: one corpus-row permutation ordered by (partition,
        # height) — lexsort is stable, so equal heights keep ascending
        # corpus index — plus partition start offsets into it.
        labels = np.asarray(clustering.labels, dtype=np.int64)
        order = np.lexsort((heights, labels))
        self._member_order = order
        self._height_keys = heights[order]
        self._starts = np.searchsorted(
            labels[order], np.arange(n_partitions + 1)
        ).astype(np.int64)
        self._set_partition_views()

    def _set_partition_views(self) -> None:
        """Per partition: member rows sorted by height, and the heights."""
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
        """Persist the index to ``path`` (``.npz`` snapshot).

        The snapshot stores the fitted reference points and the CSR
        member/height arrays, so :meth:`load` never reruns k-means —
        typically the dominant build cost of this index.
        """
        write_snapshot(
            path,
            self.kind,
            {
                "points": self._points,
                "references": self._references,
                "n_partitions": np.int64(self.n_partitions),
                "member_order": self._member_order,
                "height_keys": self._height_keys,
                "starts": self._starts,
            },
        )

    @classmethod
    def load(cls, path: str, *, mmap_points: bool = False) -> "IDistanceIndex":
        """Load a snapshot saved by :meth:`save`; query-ready immediately."""
        data = read_snapshot(
            path,
            cls.kind,
            required=(
                "points", "references", "n_partitions", "member_order",
                "height_keys", "starts",
            ),
            mmap_points=mmap_points,
        )
        index = cls.__new__(cls)
        index._points = data["points"]
        index._references = data["references"]
        index.n_partitions = int(data["n_partitions"])
        index._member_order = data["member_order"].astype(np.intp, copy=False)
        index._height_keys = data["height_keys"]
        index._starts = data["starts"]
        index._set_partition_views()
        return index

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def dimensionality(self) -> int:
        return self._points.shape[1]

    def _ring_candidates(
        self,
        query_to_refs: np.ndarray,
        radius: float,
        already: set[int],
        stats: QueryStats,
    ) -> list[int]:
        """Corpus rows inside the current rings, not yet examined."""
        fresh: list[int] = []
        for p in range(self.n_partitions):
            center_distance = query_to_refs[p]
            low = center_distance - radius
            high = center_distance + radius
            heights = self._heights[p]
            if heights.size == 0 or low > heights[-1] or high < heights[0]:
                stats.nodes_pruned += 1
                continue
            stats.nodes_visited += 1
            start = int(np.searchsorted(heights, low - 1e-12, side="left"))
            stop = int(np.searchsorted(heights, high + 1e-12, side="right"))
            for idx in self._members[p][start:stop]:
                idx = int(idx)
                if idx not in already:
                    fresh.append(idx)
                    already.add(idx)
        return fresh

    def query(self, query, k: int = 1) -> KnnResult:
        """Exact k-NN via expanding-ring search."""
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_points)
        stats = QueryStats()

        gaps = self._references - vector
        query_to_refs = np.sqrt(np.sum(np.square(gaps), axis=1))

        examined: set[int] = set()
        best: list[tuple[float, int]] = []  # (distance, index), kept sorted
        radius = max(float(query_to_refs.min()) / 8.0, 1e-6)

        for _ in range(128):
            fresh = self._ring_candidates(query_to_refs, radius, examined, stats)
            if fresh:
                rows = np.asarray(fresh, dtype=np.intp)
                squared = np.sum(
                    np.square(self._points[rows] - vector), axis=1
                )
                stats.points_scanned += rows.size
                best.extend(
                    (float(np.sqrt(d2)), int(idx))
                    for idx, d2 in zip(rows, squared)
                )
                best.sort()
            # Exactness: once the k-th confirmed distance is within the
            # searched radius, no unseen point can beat it.
            if len(best) >= k and best[k - 1][0] <= radius:
                neighbors = tuple(
                    Neighbor(index=idx, distance=distance)
                    for distance, idx in sorted(
                        best[:k], key=lambda pair: (pair[0], pair[1])
                    )
                )
                stats.nodes_pruned = max(
                    stats.nodes_pruned, self.n_points - stats.points_scanned
                )
                return KnnResult(neighbors=neighbors, stats=stats)
            radius *= 2.0
        raise RuntimeError(
            "iDistance ring expansion did not converge; corpus extent may "
            "be degenerate"
        )

    def query_batch(self, queries, k: int = 1) -> BatchKnnResult:
        """k-NN for every row of ``queries``; bit-identical to looping
        :meth:`query`, which it calls row by row (ring expansion does
        not vectorize)."""
        return sequential_query_batch(self, queries, k)
