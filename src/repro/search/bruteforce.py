"""Linear-scan exact k-NN — the baseline every index is checked against."""

from __future__ import annotations

import numpy as np

from repro.search.batch import (
    GramScanner,
    blocked_query_batch,
    refine_masked_candidates,
)
from repro.search.results import (
    BatchKnnResult,
    KnnResult,
    Neighbor,
    QueryStats,
    stats_block,
    validate_corpus,
    validate_k,
    validate_queries,
    validate_query,
)
from repro.search.snapshot import read_snapshot, write_snapshot

# Block size for batched queries, in distance-matrix entries: query rows
# are processed in blocks of ``_BLOCK_ENTRIES // n`` so the ``(q, n)``
# scratch matrices stay around 32 MB regardless of batch size.
_BLOCK_ENTRIES = 4_194_304


class BruteForceIndex:
    """Exact k-NN by scanning every corpus point.

    Always correct, never prunes; its :class:`QueryStats` (``n`` points
    scanned, zero nodes) anchor the pruning comparisons.

    Args:
        points: ``(n, d)`` corpus.
    """

    # Snapshot kind: read by the registry, snapshot dispatch, and
    # the :class:`repro.search.Index` protocol.
    kind = "bruteforce"

    def __init__(self, points) -> None:
        self._points = validate_corpus(points)
        # ||p||^2 per corpus row, for the batched Gram expansion.
        self._sq_norms = np.einsum(
            "nd,nd->n", self._points, self._points
        )
        self._scanner = GramScanner(self._points, sq_norms=self._sq_norms)

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def dimensionality(self) -> int:
        return self._points.shape[1]

    def save(self, path: str) -> None:
        """Persist the index to ``path`` (``.npz`` snapshot)."""
        write_snapshot(
            path,
            self.kind,
            {"points": self._points, "sq_norms": self._sq_norms},
        )

    @classmethod
    def load(cls, path: str, *, mmap_points: bool = False) -> "BruteForceIndex":
        """Load a snapshot saved by :meth:`save`; query-ready immediately.

        ``mmap_points=True`` maps the corpus from the file instead of
        reading it into memory.
        """
        data = read_snapshot(
            path,
            cls.kind,
            required=("points", "sq_norms"),
            mmap_points=mmap_points,
        )
        index = cls.__new__(cls)
        index._points = data["points"]
        index._sq_norms = data["sq_norms"]
        # Older snapshots may carry a ``scan_dtype`` member naming the
        # scan's scoring dtype; it never changed an answer, so it is
        # ignored.
        index._scanner = GramScanner(index._points, sq_norms=index._sq_norms)
        return index

    def query(self, query, k: int = 1) -> KnnResult:
        """Return the ``k`` nearest corpus points to ``query`` (Euclidean).

        Ties are broken by corpus index (lower index wins), which makes
        results deterministic and comparable across index structures.
        """
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_points)

        gaps = self._points - vector
        squared = np.sum(np.square(gaps), axis=1)
        # argsort is O(n log n); for the corpus sizes here the simplicity
        # beats a partial-selection micro-optimization, and full sorting
        # gives the deterministic tie-break for free.
        order = np.argsort(squared, kind="stable")[:k]
        neighbors = tuple(
            Neighbor(index=int(i), distance=float(np.sqrt(squared[i])))
            for i in order
        )
        stats = QueryStats(points_scanned=self.n_points)
        return KnnResult(neighbors=neighbors, stats=stats)

    def query_batch(self, queries, k: int = 1) -> BatchKnnResult:
        """Vectorized k-NN for every row of ``queries``.

        One BLAS matrix multiply produces all squared distances at once
        via the :class:`~repro.search.batch.GramScanner` kernel (in
        float32 whenever magnitudes permit); ``argpartition`` narrows
        each row to its top-k candidates.  Because the expansion loses a few
        ulps to cancellation, candidate selection keeps a conservative
        margin around the k-th partitioned value and the survivors'
        distances are recomputed with the same subtract-square
        arithmetic the sequential path uses — so the returned neighbors,
        distances, and tie-breaks are bit-identical to looping
        :meth:`query`.
        """
        array = validate_queries(queries, self.dimensionality)
        k = validate_k(k, self.n_points)
        return blocked_query_batch(
            self._query_block, array, k, max(1, _BLOCK_ENTRIES // self.n_points)
        )

    def _candidate_mask(
        self, rows: np.ndarray, q_sq: np.ndarray, k: int
    ) -> np.ndarray:
        """Boolean ``(q, n)`` mask of exact-top-k candidates per query.

        The scores only *select* candidates — exact distances are
        recomputed afterwards — so the (memory-bound) score matrix may
        run in float32, with a margin around the k-th partitioned value
        that dominates the combined cancellation and precision error.
        Every point whose exact distance ties or beats the exact k-th
        therefore survives the mask.
        """
        approx, margin = self._scanner.scores(rows, q_sq)
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        # Doubled margin: the k-th value itself carries the same error as
        # the scores it is compared against.
        limit = kth.astype(np.float64) + 2.0 * margin
        return approx <= limit.astype(approx.dtype)[:, None]

    def _query_block(
        self, rows: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact top-k for a block of query rows: ``(ids, distances, stats)``."""
        q_sq = np.einsum("qd,qd->q", rows, rows)
        mask = self._candidate_mask(rows, q_sq, k)

        # Masks here are only ~k wide (the margin admits few rows past
        # the true top-k), which is the gather kernel's sweet spot; the
        # precomputed norms ride along for callers that flip the knob.
        top_indices, top_squared, _ = refine_masked_candidates(
            self._points, rows, mask, k, block_entries=_BLOCK_ENTRIES,
            sq_norms=self._sq_norms,
        )
        stats = stats_block(rows.shape[0], points_scanned=self.n_points)
        return top_indices, np.sqrt(top_squared), stats

    def range_query(self, query, radius: float) -> KnnResult:
        """All corpus points within ``radius`` of ``query`` (Euclidean).

        Results are sorted by ascending distance (ties by index).
        """
        vector = validate_query(query, self.dimensionality)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        gaps = self._points - vector
        squared = np.sum(np.square(gaps), axis=1)
        within = np.flatnonzero(squared <= radius * radius)
        order = within[np.argsort(squared[within], kind="stable")]
        neighbors = tuple(
            Neighbor(index=int(i), distance=float(np.sqrt(squared[i])))
            for i in order
        )
        stats = QueryStats(points_scanned=self.n_points)
        return KnnResult(neighbors=neighbors, stats=stats)
