"""An R-tree with STR bulk loading and best-first exact k-NN search.

The R-tree (Guttman, SIGMOD 1984) partitions the data into a hierarchy of
minimum bounding rectangles (MBRs).  This implementation bulk-loads with
Sort-Tile-Recursive (STR), which packs static data into near-optimal
pages, and answers k-NN queries with the best-first traversal of
Hjaltason & Samet: a priority queue ordered by MINDIST (the optimistic
bound of Roussopoulos et al.) from which nodes are popped until the bound
of the best unopened node exceeds the current k-th-best distance — at
which point every remaining node is provably prunable.

The tree lives in **flattened node arrays**: per node an MBR row in
``(m, d)`` lower/upper matrices, a leaf flag, and a ``[start, stop)``
slot range — into a corpus-row permutation array for leaves, into a flat
child-id array for inner nodes.  STR tiling is fully vectorized: one
``lexsort`` per dimension orders every pending slab at once and a
cumulative-boundary renumbering assigns the next level of slabs, so no
Python recursion ever touches individual pages; leaf MBRs come from one
``minimum.reduceat``/``maximum.reduceat`` pass.  The arrays serialize
directly to a snapshot (:mod:`repro.search.snapshot`).

The instrumentation mirrors the paper's Section 1.1 argument exactly:
when dimensionality is high, MINDIST of almost every MBR falls below the
k-th-best distance and nothing is pruned; after aggressive reduction the
same corpus prunes almost everything.
"""

from __future__ import annotations

import heapq
import itertools

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


def _mindist_squared(lower: np.ndarray, upper: np.ndarray, query: np.ndarray) -> float:
    """Squared MINDIST of a query to an MBR (0 inside the box)."""
    below = np.maximum(lower - query, 0.0)
    above = np.maximum(query - upper, 0.0)
    return float(np.sum(np.square(below)) + np.sum(np.square(above)))


def _mindist_squared_rows(
    lower: np.ndarray, upper: np.ndarray, query: np.ndarray
) -> np.ndarray:
    """Squared MINDIST of a query to many MBRs at once — same arithmetic
    as :func:`_mindist_squared` broadcast over rows."""
    below = np.maximum(lower - query, 0.0)
    above = np.maximum(query - upper, 0.0)
    return np.sum(np.square(below), axis=1) + np.sum(np.square(above), axis=1)


def _group_boundaries(group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and sizes of the contiguous runs of a sorted group array."""
    n = group.size
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    sizes = np.diff(np.r_[starts, n])
    return starts, sizes


class RTreeIndex:
    """STR-bulk-loaded R-tree over a static corpus.

    Args:
        points: ``(n, d)`` corpus.
        page_size: maximum entries per node (leaf points / inner children).
    """

    # Snapshot kind: read by the registry, snapshot dispatch, and
    # the :class:`repro.search.Index` protocol.
    kind = "rtree"

    def __init__(self, points, page_size: int = 32) -> None:
        if page_size < 2:
            raise ValueError(f"page_size must be at least 2, got {page_size}")
        self._points = validate_corpus(points)
        self._page_size = page_size
        self._bulk_load()

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def dimensionality(self) -> int:
        return self._points.shape[1]

    @property
    def height(self) -> int:
        """Number of levels (1 for a single-leaf tree)."""
        levels = 1
        node = self._root_id
        while not self._node_is_leaf[node]:
            levels += 1
            node = int(self._child_ids[self._slot_start[node]])
        return levels

    # -- construction --------------------------------------------------

    def _str_partition(self) -> tuple[np.ndarray, np.ndarray]:
        """Sort-Tile-Recursive page assignment, vectorized level-wise.

        Returns a corpus-row permutation plus the page start offsets into
        it.  Each dimension pass sorts *every* pending slab at once with
        a single ``lexsort`` keyed on (slab id, coordinate), then slices
        each slab into sub-slabs sized so the final tiles hold at most
        ``page_size`` points — the same recurrence the classical
        recursive tiler performs one slab at a time.
        """
        points = self._points
        n, d = points.shape
        page = self._page_size
        order = np.arange(n, dtype=np.intp)
        group = np.zeros(n, dtype=np.int64)
        if n > page:
            positions = np.arange(n, dtype=np.int64)
            for dim in range(d):
                perm = np.lexsort((points[order, dim], group))
                order = order[perm]
                group = group[perm]
                starts, sizes = _group_boundaries(group)
                if sizes.max() <= page:
                    break
                n_pages = -(-sizes // page)
                n_slabs = np.ceil(
                    n_pages ** (1.0 / (d - dim))
                ).astype(np.int64)
                # Slabs already at page size stay whole (the recursive
                # tiler stops recursing into them).
                n_slabs[sizes <= page] = 1
                slab_size = -(-sizes // n_slabs)
                gidx = np.repeat(
                    np.arange(starts.size, dtype=np.int64), sizes
                )
                slab = (positions - starts[gidx]) // slab_size[gidx]
                change = np.r_[
                    True,
                    (gidx[1:] != gidx[:-1]) | (slab[1:] != slab[:-1]),
                ]
                group = np.cumsum(change) - 1
            starts, sizes = _group_boundaries(group)
            if sizes.max() > page:
                # More points than one page but no dimensions left to
                # slice (can happen with many duplicate points): chunk.
                gidx = np.repeat(
                    np.arange(starts.size, dtype=np.int64), sizes
                )
                slab = (positions - starts[gidx]) // page
                change = np.r_[
                    True,
                    (gidx[1:] != gidx[:-1]) | (slab[1:] != slab[:-1]),
                ]
                starts = np.flatnonzero(change)
        else:
            starts = np.zeros(1, dtype=np.int64)
        return order, np.asarray(starts, dtype=np.int64)

    def _bulk_load(self) -> None:
        """Build the flattened node arrays bottom-up from the STR pages."""
        points = self._points
        n, d = points.shape
        perm, page_starts = self._str_partition()
        ordered = points[perm]
        leaf_lower = np.minimum.reduceat(ordered, page_starts, axis=0)
        leaf_upper = np.maximum.reduceat(ordered, page_starts, axis=0)
        n_leaves = page_starts.size

        lowers = [leaf_lower]
        uppers = [leaf_upper]
        is_leaf = [np.ones(n_leaves, dtype=bool)]
        slot_start = [page_starts]
        slot_stop = [np.r_[page_starts[1:], n]]
        child_chunks: list[np.ndarray] = []
        child_cursor = 0

        level_ids = np.arange(n_leaves, dtype=np.int64)
        level_lower, level_upper = leaf_lower, leaf_upper
        next_id = n_leaves
        while level_ids.size > 1:
            # Pack children in center-order along the first two dimensions
            # (cheap proxy for STR at inner levels).
            centers = (level_lower + level_upper) / 2.0
            keys = tuple(
                centers[:, dim] for dim in range(min(d, 2) - 1, -1, -1)
            )
            order = np.lexsort(keys)
            ordered_ids = level_ids[order]
            group_starts = np.arange(
                0, ordered_ids.size, self._page_size, dtype=np.int64
            )
            parent_lower = np.minimum.reduceat(
                level_lower[order], group_starts, axis=0
            )
            parent_upper = np.maximum.reduceat(
                level_upper[order], group_starts, axis=0
            )
            n_parents = group_starts.size
            child_chunks.append(ordered_ids)
            slot_start.append(child_cursor + group_starts)
            slot_stop.append(
                child_cursor + np.r_[group_starts[1:], ordered_ids.size]
            )
            child_cursor += ordered_ids.size
            lowers.append(parent_lower)
            uppers.append(parent_upper)
            is_leaf.append(np.zeros(n_parents, dtype=bool))
            level_ids = np.arange(next_id, next_id + n_parents, dtype=np.int64)
            next_id += n_parents
            level_lower, level_upper = parent_lower, parent_upper

        self._perm = perm
        self._node_lower = np.ascontiguousarray(np.concatenate(lowers, axis=0))
        self._node_upper = np.ascontiguousarray(np.concatenate(uppers, axis=0))
        self._node_is_leaf = np.concatenate(is_leaf)
        self._slot_start = np.concatenate(slot_start)
        self._slot_stop = np.concatenate(slot_stop)
        self._child_ids = (
            np.concatenate(child_chunks)
            if child_chunks
            else np.zeros(0, dtype=np.int64)
        )
        self._root_id = next_id - 1

    # -- persistence ----------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the index to ``path`` (``.npz`` snapshot)."""
        write_snapshot(
            path,
            self.kind,
            {
                "points": self._points,
                "page_size": np.int64(self._page_size),
                "perm": self._perm,
                "node_lower": self._node_lower,
                "node_upper": self._node_upper,
                "node_is_leaf": self._node_is_leaf,
                "slot_start": self._slot_start,
                "slot_stop": self._slot_stop,
                "child_ids": self._child_ids,
                "root_id": np.int64(self._root_id),
            },
        )

    @classmethod
    def load(cls, path: str, *, mmap_points: bool = False) -> "RTreeIndex":
        """Load a snapshot saved by :meth:`save`; query-ready immediately."""
        data = read_snapshot(
            path,
            cls.kind,
            required=(
                "points", "page_size", "perm", "node_lower", "node_upper",
                "node_is_leaf", "slot_start", "slot_stop", "child_ids",
                "root_id",
            ),
            mmap_points=mmap_points,
        )
        index = cls.__new__(cls)
        index._points = data["points"]
        index._page_size = int(data["page_size"])
        index._perm = data["perm"].astype(np.intp, copy=False)
        index._node_lower = data["node_lower"]
        index._node_upper = data["node_upper"]
        index._node_is_leaf = data["node_is_leaf"]
        index._slot_start = data["slot_start"]
        index._slot_stop = data["slot_stop"]
        index._child_ids = data["child_ids"]
        index._root_id = int(data["root_id"])
        return index

    # -- querying -------------------------------------------------------

    def _leaf_rows(self, node: int) -> np.ndarray:
        return self._perm[self._slot_start[node]:self._slot_stop[node]]

    def _children(self, node: int) -> np.ndarray:
        return self._child_ids[self._slot_start[node]:self._slot_stop[node]]

    def query(self, query, k: int = 1) -> KnnResult:
        """Exact k-NN via best-first (MINDIST priority queue) traversal."""
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_points)
        stats = QueryStats()

        counter = itertools.count()
        root = self._root_id
        frontier: list[tuple[float, int, int]] = [
            (
                _mindist_squared(
                    self._node_lower[root], self._node_upper[root], vector
                ),
                next(counter),
                root,
            )
        ]
        best: list[tuple[float, int]] = []  # max-heap via negation

        def visit_limit() -> float:
            """Current k-th best distance, padded by a relative epsilon.

            MINDIST sums squares in a different order than the exact
            scan, so for a degenerate (point-like) box it can land a few
            ulps *above* the true distance; without the pad an exact tie
            could be pruned and the index-order tie-break would diverge
            from brute force.  Visiting marginally more nodes is always
            safe — membership is decided by the exact scan.
            """
            if len(best) < k:
                return np.inf
            worst = -best[0][0]
            return worst + 1e-12 * worst

        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if bound > visit_limit():
                # Everything still on the frontier has an even larger
                # bound: all of it is pruned at once.
                stats.nodes_pruned += 1 + len(frontier)
                break
            stats.nodes_visited += 1
            if self._node_is_leaf[node]:
                rows = self._leaf_rows(node)
                gaps = self._points[rows] - vector
                squared = np.sum(np.square(gaps), axis=1)
                stats.points_scanned += int(rows.size)
                for idx, d2 in zip(rows, squared):
                    entry = (-float(d2), -int(idx))
                    if len(best) < k:
                        heapq.heappush(best, entry)
                    elif entry > best[0]:
                        heapq.heapreplace(best, entry)
            else:
                children = self._children(node)
                bounds = _mindist_squared_rows(
                    self._node_lower[children],
                    self._node_upper[children],
                    vector,
                )
                limit = visit_limit()
                for child, child_bound in zip(children, bounds):
                    if child_bound <= limit:
                        heapq.heappush(
                            frontier,
                            (float(child_bound), next(counter), int(child)),
                        )
                    else:
                        stats.nodes_pruned += 1

        ordered = sorted(best, key=lambda entry: (-entry[0], -entry[1]))
        neighbors = tuple(
            Neighbor(index=-tie, distance=float(np.sqrt(-negated)))
            for negated, tie in ordered
        )
        return KnnResult(neighbors=neighbors, stats=stats)

    def query_batch(
        self, queries, k: int = 1, *, n_workers: int | None = None
    ) -> BatchKnnResult:
        """k-NN for every row of ``queries``; bit-identical to looping
        :meth:`query`.  ``n_workers`` > 1 fans the rows out over a
        thread pool (best-first traversal does not vectorize)."""
        return dispatch_query_batch(self, queries, k, n_workers)

    def range_query(self, query, radius: float) -> KnnResult:
        """All corpus points within ``radius`` of ``query``.

        Subtrees whose MBR's MINDIST exceeds the radius are pruned;
        results are sorted by ascending distance (ties by index).
        """
        vector = validate_query(query, self.dimensionality)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        radius_sq = radius * radius
        # Pad the node-level cutoff: MINDIST can land a few ulps above
        # the true distance for degenerate boxes (see visit_limit in
        # query); exact membership is still decided by the leaf scan.
        node_limit = radius_sq + 1e-12 * radius_sq
        stats = QueryStats()
        found: list[tuple[float, int]] = []
        pending = [self._root_id]
        while pending:
            node = pending.pop()
            stats.nodes_visited += 1
            if self._node_is_leaf[node]:
                rows = self._leaf_rows(node)
                gaps = self._points[rows] - vector
                squared = np.sum(np.square(gaps), axis=1)
                stats.points_scanned += int(rows.size)
                for idx, d2 in zip(rows, squared):
                    if d2 <= radius_sq:
                        found.append((float(d2), int(idx)))
                continue
            children = self._children(node)
            bounds = _mindist_squared_rows(
                self._node_lower[children], self._node_upper[children], vector
            )
            for child, child_bound in zip(children, bounds):
                if child_bound <= node_limit:
                    pending.append(int(child))
                else:
                    stats.nodes_pruned += 1
        found.sort()
        neighbors = tuple(
            Neighbor(index=idx, distance=float(np.sqrt(d2))) for d2, idx in found
        )
        return KnnResult(neighbors=neighbors, stats=stats)

    def iter_nearest(self, query):
        """Yield corpus points in ascending distance order, lazily.

        The incremental nearest-neighbor algorithm of Hjaltason & Samet:
        one priority queue holds both nodes (keyed by MINDIST) and points
        (keyed by exact distance); a point is emitted exactly when it
        reaches the front, i.e. when nothing unexplored can beat it.
        Yields :class:`Neighbor` objects; stop iterating when satisfied —
        only the work needed so far is performed.
        """
        vector = validate_query(query, self.dimensionality)
        counter = itertools.count()
        root = self._root_id
        # Entries: (squared key, tie, kind, node id) where kind 0 = point
        # (tie is the corpus index so equal-distance points emit in index
        # order) and kind 1 = node.
        frontier: list[tuple[float, int, int, int]] = [
            (
                _mindist_squared(
                    self._node_lower[root], self._node_upper[root], vector
                ),
                0,
                1,
                root,
            )
        ]
        while frontier:
            key, tie, kind, node = heapq.heappop(frontier)
            if kind == 0:
                yield Neighbor(index=tie, distance=float(np.sqrt(key)))
                continue
            if self._node_is_leaf[node]:
                rows = self._leaf_rows(node)
                gaps = self._points[rows] - vector
                squared = np.sum(np.square(gaps), axis=1)
                for idx, d2 in zip(rows, squared):
                    heapq.heappush(frontier, (float(d2), int(idx), 0, -1))
            else:
                children = self._children(node)
                bounds = _mindist_squared_rows(
                    self._node_lower[children],
                    self._node_upper[children],
                    vector,
                )
                for child, bound in zip(children, bounds):
                    heapq.heappush(
                        frontier, (float(bound), next(counter), 1, int(child))
                    )
