"""A kd-tree with branch-and-bound exact k-NN search.

Classic median-split construction; the query descends toward the leaf
containing the query point, then backtracks, pruning any subtree whose
splitting hyperplane is farther than the current k-th best distance.
This is the canonical "optimistic bound" pruning the paper's Section 1.1
discusses — and the per-query statistics show it collapsing as
dimensionality grows.

The tree lives in **flattened node arrays** rather than linked node
objects: per node a split dimension (``-1`` marks a leaf), a split
value, left/right child ids, and — for leaves — a ``[start, stop)``
range into one corpus-row permutation array.  Construction is an
iterative worklist over ranges of that permutation, splitting each node
in place with ``np.argpartition`` around the positional median (no
per-level boolean masks, no per-node index copies), which keeps the
build vectorized and the resulting arrays serialize directly to a
snapshot (:mod:`repro.search.snapshot`).
"""

from __future__ import annotations

import heapq

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

# Relative rounding slack on a subtree's distance bound.  The bound is
# kept incrementally in split order (subtract a dimension's old side
# term, add its new one), while a leaf row's distance is one ``np.sum``
# over its coordinates.  Per coordinate the bound's term never exceeds
# the row's (rounding is monotone), but the two sums round differently:
# the bound by up to one ulp per update along the path (at most two per
# level, and no intermediate value exceeds the bound, since descending
# to a far child never shrinks it), the row's sum by up to d ulps.  So
# an equal-distance row can sit (2 * depth + d) ulps below its
# subtree's bound, and pruning it would break the lower-index tie-break.
# 1e-9 is about 4.5e6 ulps: more than that for any tree (depth <= 64)
# up to a million dimensions, at the cost of visiting a subtree whose
# bound exceeds the k-th distance by less than a part in 10^9.
_BOUND_SLACK = 1e-9


class KdTreeIndex:
    """Median-split kd-tree over a static corpus.

    Args:
        points: ``(n, d)`` corpus.
        leaf_size: maximum number of points stored in a leaf.
    """

    # Snapshot kind: read by the registry, snapshot dispatch, and
    # the :class:`repro.search.Index` protocol.
    kind = "kdtree"

    def __init__(self, points, leaf_size: int = 16) -> None:
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be positive, got {leaf_size}")
        self._points = validate_corpus(points)
        self._leaf_size = leaf_size
        self._build()

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def dimensionality(self) -> int:
        return self._points.shape[1]

    def _build(self) -> None:
        """Level-synchronous median-split build into flattened node arrays.

        All nodes of one tree level are processed together with no
        per-node Python at all: every splitting segment's coordinates
        along its split dimension are gathered into rectangular blocks
        (positional halving keeps all segments on a level within one
        point of the same size, so at most two block shapes exist) and a
        row-wise ``argpartition`` arranges every segment around its
        positional median at once.  The split dimension is the widest
        side of the node's bounding box, maintained incrementally (tight
        at the root, narrowed along the split dimension at every split),
        so dimension selection costs O(segments), not a min/max pass over
        the subset.  Total work is O(n log² n) in a handful of vectorized
        passes per level.  Children are contiguous ``[lo, hi)`` ranges of
        the shared permutation array, so leaves need only their bounds.
        """
        points = self._points
        n = self.n_points
        leaf_size = self._leaf_size
        perm = np.arange(n, dtype=np.intp)

        # Per-level chunks of the node arrays, concatenated at the end.
        # Node ids are assigned in creation order, which is level order.
        dim_chunks: list[np.ndarray] = []
        value_chunks: list[np.ndarray] = []
        left_chunks: list[np.ndarray] = []
        right_chunks: list[np.ndarray] = []
        start_chunks: list[np.ndarray] = []
        stop_chunks: list[np.ndarray] = []

        # Pending nodes (created, not yet resolved into leaf-or-split),
        # as parallel arrays; the root starts with the tight corpus box.
        los = np.zeros(1, dtype=np.int64)
        his = np.full(1, n, dtype=np.int64)
        box_low = points.min(axis=0).reshape(1, -1)
        box_high = points.max(axis=0).reshape(1, -1)
        n_nodes = 1

        while los.size:
            pending = los.size
            sizes = his - los
            # Split each pending node on the widest side of its box — an
            # O(1) per-segment stand-in for the data spread that still
            # adapts to skew, unlike pure depth cycling.  A zero widest
            # side means every remaining point is identical: leaf.
            spreads = box_high - box_low
            dims = np.argmax(spreads, axis=1)
            leaf = (sizes <= leaf_size) | (
                spreads[np.arange(pending), dims] <= 0.0
            )
            split = np.flatnonzero(~leaf)

            medians = np.zeros(split.size)
            if split.size:
                sub_lo = los[split]
                sub_sizes = sizes[split]
                sub_dims = dims[split]
                offsets = np.concatenate(([0], np.cumsum(sub_sizes)))
                m = int(offsets[-1])
                flat = np.arange(m)
                group = np.repeat(np.arange(split.size), sub_sizes)
                within = flat - np.repeat(offsets[:-1], sub_sizes)
                positions = np.repeat(sub_lo, sub_sizes) + within
                active = perm[positions]
                values = points[active, sub_dims[group]]

                # Positional halving keeps every segment on a level
                # within one point of the same size, so the splitting
                # segments form at most two exact rectangular blocks —
                # no padding — and a row-wise argpartition around the
                # positional median orders each block at once.  Only the
                # partition invariant (left <= median <= right, valid
                # for both children even under duplicates) matters to
                # the query bound; order inside the halves is free, and
                # partitioning skips the log factor a full sort pays.
                mids = sub_sizes // 2
                medians = np.empty(split.size)
                for size in np.unique(sub_sizes):
                    rows = np.flatnonzero(sub_sizes == size)
                    mid = int(size) // 2
                    block_pos = offsets[rows][:, None] + np.arange(size)
                    block = values[block_pos]
                    order = np.argpartition(block, mid, axis=1)
                    medians[rows] = np.take_along_axis(
                        block, order[:, mid:mid + 1], axis=1
                    )[:, 0]
                    perm[positions[block_pos]] = np.take_along_axis(
                        active[block_pos], order, axis=1
                    )

            # Children ids continue the creation order: the two children
            # of the i-th splitting segment get ids base + 2i, base + 2i + 1.
            pair = 2 * np.arange(split.size)
            left_ids = np.full(pending, -1, dtype=np.int32)
            right_ids = np.full(pending, -1, dtype=np.int32)
            left_ids[split] = n_nodes + pair
            right_ids[split] = n_nodes + pair + 1
            node_dims = np.where(leaf, -1, dims).astype(np.int32)
            node_values = np.zeros(pending)
            node_values[split] = medians
            dim_chunks.append(node_dims)
            value_chunks.append(node_values)
            left_chunks.append(left_ids)
            right_chunks.append(right_ids)
            start_chunks.append(np.where(leaf, los, 0))
            stop_chunks.append(np.where(leaf, his, 0))
            n_nodes += 2 * split.size

            if split.size:
                cut = los[split] + mids
                next_los = np.empty(2 * split.size, dtype=np.int64)
                next_his = np.empty(2 * split.size, dtype=np.int64)
                next_los[0::2], next_his[0::2] = los[split], cut
                next_los[1::2], next_his[1::2] = cut, his[split]
                next_low = np.repeat(box_low[split], 2, axis=0)
                next_high = np.repeat(box_high[split], 2, axis=0)
                next_high[pair, sub_dims] = medians
                next_low[pair + 1, sub_dims] = medians
                los, his = next_los, next_his
                box_low, box_high = next_low, next_high
            else:
                los = np.zeros(0, dtype=np.int64)
                his = los

        self._perm = perm
        self._split_dim = np.concatenate(dim_chunks).astype(np.int32)
        self._split_value = np.concatenate(value_chunks)
        self._left = np.concatenate(left_chunks).astype(np.int32)
        self._right = np.concatenate(right_chunks).astype(np.int32)
        self._start = np.concatenate(start_chunks).astype(np.int64)
        self._stop = np.concatenate(stop_chunks).astype(np.int64)

    def save(self, path: str) -> None:
        """Persist the index to ``path`` (``.npz`` snapshot)."""
        write_snapshot(
            path,
            self.kind,
            {
                "points": self._points,
                "leaf_size": np.int64(self._leaf_size),
                "perm": self._perm,
                "split_dim": self._split_dim,
                "split_value": self._split_value,
                "left": self._left,
                "right": self._right,
                "start": self._start,
                "stop": self._stop,
            },
        )

    @classmethod
    def load(cls, path: str, *, mmap_points: bool = False) -> "KdTreeIndex":
        """Load a snapshot saved by :meth:`save`; query-ready immediately."""
        data = read_snapshot(
            path,
            cls.kind,
            required=(
                "points", "leaf_size", "perm", "split_dim", "split_value",
                "left", "right", "start", "stop",
            ),
            mmap_points=mmap_points,
        )
        index = cls.__new__(cls)
        index._points = data["points"]
        index._leaf_size = int(data["leaf_size"])
        index._perm = data["perm"].astype(np.intp, copy=False)
        index._split_dim = data["split_dim"]
        index._split_value = data["split_value"]
        index._left = data["left"]
        index._right = data["right"]
        index._start = data["start"]
        index._stop = data["stop"]
        return index

    def query(self, query, k: int = 1) -> KnnResult:
        """Exact k nearest neighbors via branch-and-bound descent."""
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_points)
        stats = QueryStats()

        points = self._points
        perm = self._perm
        split_dim = self._split_dim
        split_value = self._split_value
        left, right = self._left, self._right
        start, stop = self._start, self._stop

        # Max-heap of the k best (negated squared distance, tie-break index).
        best: list[tuple[float, int]] = []

        def worst_squared() -> float:
            return -best[0][0] if len(best) == k else np.inf

        def scan_leaf(indices: np.ndarray) -> None:
            gaps = points[indices] - vector
            squared = np.sum(np.square(gaps), axis=1)
            stats.points_scanned += int(indices.size)
            for idx, d2 in zip(indices, squared):
                entry = (-float(d2), -int(idx))
                if len(best) < k:
                    heapq.heappush(best, entry)
                elif entry > best[0]:
                    heapq.heapreplace(best, entry)

        # Squared distance from the query to the current node's region,
        # tracked per dimension: when descending to the far child of a
        # split on dimension s, the contribution of s is *replaced* by
        # offset^2 (not added — repeated splits on one dimension must not
        # compound, or the bound overestimates and prunes real answers).
        side_squared = np.zeros(self.dimensionality)

        def visit(node: int, rect_distance_sq: float) -> None:
            stats.nodes_visited += 1
            dim = split_dim[node]
            if dim < 0:
                scan_leaf(perm[start[node]:stop[node]])
                return
            offset = vector[dim] - split_value[node]
            near, far = (
                (left[node], right[node])
                if offset <= 0
                else (right[node], left[node])
            )
            visit(near, rect_distance_sq)
            previous = side_squared[dim]
            far_bound = rect_distance_sq - previous + offset * offset
            # <= (not <), less the rounding slack, so equal-distance
            # points can still compete on the index tie-break, keeping
            # results identical to brute force.
            if far_bound * (1.0 - _BOUND_SLACK) <= worst_squared():
                side_squared[dim] = offset * offset
                visit(far, far_bound)
                side_squared[dim] = previous
            else:
                stats.nodes_pruned += 1

        visit(0, 0.0)

        ordered = sorted(best, key=lambda entry: (-entry[0], -entry[1]))
        neighbors = tuple(
            Neighbor(index=-tie, distance=float(np.sqrt(-negated)))
            for negated, tie in ordered
        )
        return KnnResult(neighbors=neighbors, stats=stats)

    def query_batch(self, queries, k: int = 1) -> BatchKnnResult:
        """k-NN for every row of ``queries``; bit-identical to looping
        :meth:`query`, which it calls row by row (the traversal itself
        does not vectorize)."""
        return sequential_query_batch(self, queries, k)

    def range_query(self, query, radius: float) -> KnnResult:
        """All corpus points within ``radius`` of ``query``.

        Subtrees whose region lies farther than ``radius`` are pruned
        with the same per-dimension side-distance bound the k-NN search
        uses; results are sorted by ascending distance (ties by index).
        """
        vector = validate_query(query, self.dimensionality)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        radius_sq = radius * radius
        stats = QueryStats()
        found: list[tuple[float, int]] = []
        side_squared = np.zeros(self.dimensionality)

        points = self._points
        perm = self._perm
        split_dim = self._split_dim
        split_value = self._split_value
        left, right = self._left, self._right
        start, stop = self._start, self._stop

        def visit(node: int, rect_distance_sq: float) -> None:
            stats.nodes_visited += 1
            dim = split_dim[node]
            if dim < 0:
                indices = perm[start[node]:stop[node]]
                gaps = points[indices] - vector
                squared = np.sum(np.square(gaps), axis=1)
                stats.points_scanned += int(indices.size)
                for idx, d2 in zip(indices, squared):
                    if d2 <= radius_sq:
                        found.append((float(d2), int(idx)))
                return
            offset = vector[dim] - split_value[node]
            near, far = (
                (left[node], right[node])
                if offset <= 0
                else (right[node], left[node])
            )
            visit(near, rect_distance_sq)
            previous = side_squared[dim]
            far_bound = rect_distance_sq - previous + offset * offset
            if far_bound * (1.0 - _BOUND_SLACK) <= radius_sq:
                side_squared[dim] = offset * offset
                visit(far, far_bound)
                side_squared[dim] = previous
            else:
                stats.nodes_pruned += 1

        visit(0, 0.0)
        found.sort()
        neighbors = tuple(
            Neighbor(index=idx, distance=float(np.sqrt(d2))) for d2, idx in found
        )
        return KnnResult(neighbors=neighbors, stats=stats)
