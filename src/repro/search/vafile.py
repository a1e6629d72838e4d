"""A VA-file (vector-approximation file) for exact k-NN.

Weber, Schek & Blott (VLDB 1998) — reference [21] of the paper — showed
that partitioning indexes degrade to worse-than-scan in high
dimensionality and proposed scanning compact bit-quantized
*approximations* instead, refining only candidates whose lower bound
beats the current k-th best exact distance.

Phase 1 scans every approximation cell, maintaining the k-th smallest
*upper* bound and discarding cells whose *lower* bound exceeds it.
Phase 2 refines the survivors with a seeded threshold: the ``k``
candidates with the smallest lower bounds are computed exactly, the
k-th of those exact distances becomes ``tau`` (an upper bound on the
true k-th distance, since ``k`` points already sit within it), and only
candidates with ``lower <= tau`` are re-ranked — through the shared
:func:`~repro.search.batch.refine_masked_candidates` kernel, fully
vectorized across a query block.  Every true top-k member has
``lower <= exact <= tau``, ties included, so the answers stay exact and
bit-identical to brute force.  The fraction of vectors refined in phase
2 is the VA-file's effectiveness measure.

Bit budgets need not be spent uniformly: with
``bit_allocation="variance"`` the total budget (``d * bits_per_dim``)
is assigned greedily to the dimension whose current expected squared
quantization error — proportional to ``var_i / 4**bits_i``, since one
more bit halves the cell width — is largest.  Dimensions that barely
vary get few (or zero) bits; high-spread dimensions, which dominate the
distance bounds, get the resolution.  Cells stay equi-width *within*
each dimension, so the bound arithmetic is unchanged; only the
per-dimension cell counts differ.
"""

from __future__ import annotations

import numpy as np

from repro.search.batch import (
    blocked_query_batch,
    refine_masked_candidates,
    validate_refine_kernel,
)
from repro.search.results import (
    BatchKnnResult,
    KnnColumns,
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

# Block size for batched phase-1 bound computation, in (query, point,
# dimension) scratch entries — keeps the broadcast temporaries ~32 MB.
_BLOCK_ENTRIES = 4_194_304

BIT_ALLOCATIONS = ("uniform", "variance")


def allocate_bits(
    points: np.ndarray, bits_per_dim: int, mode: str
) -> np.ndarray:
    """Per-dimension bit allocation under a total budget.

    ``"uniform"`` gives every dimension ``bits_per_dim`` bits — the
    classic VA-file.  ``"variance"`` spends the same total budget
    (``d * bits_per_dim``) greedily: each bit goes to the dimension with
    the largest remaining expected squared quantization error,
    ``var_i / 4**bits_i`` (one more bit halves the cell width, hence
    quarters the squared error).  Ties resolve to the lower dimension;
    no dimension exceeds 16 bits (the ``uint16`` cell storage).  A
    zero-variance corpus falls back to uniform — there is no spread to
    chase, and uniform keeps the cells well-defined.
    """
    if mode not in BIT_ALLOCATIONS:
        raise ValueError(
            f"bit_allocation must be one of {BIT_ALLOCATIONS}, got {mode!r}"
        )
    d = points.shape[1]
    if mode == "uniform":
        return np.full(d, bits_per_dim, dtype=np.int64)
    variance = np.asarray(points, dtype=np.float64).var(axis=0)
    if not np.any(variance > 0.0):
        return np.full(d, bits_per_dim, dtype=np.int64)
    bits = np.zeros(d, dtype=np.int64)
    gain = variance.copy()
    for _ in range(bits_per_dim * d):
        dim = int(np.argmax(gain))
        if gain[dim] == -np.inf:
            break  # every dimension at the 16-bit cap
        bits[dim] += 1
        gain[dim] = (
            variance[dim] / 4.0 ** bits[dim] if bits[dim] < 16 else -np.inf
        )
    return bits


class VAFileIndex:
    """Scalar-quantized vector approximation file.

    Args:
        points: ``(n, d)`` corpus.
        bits_per_dim: quantization budget per dimension; the total
            budget is ``d * bits_per_dim`` bits per vector.
        bit_allocation: ``"uniform"`` splits the budget evenly (each
            dimension gets ``2**bits_per_dim`` equi-width cells);
            ``"variance"`` spends it where the spread is (see
            :func:`allocate_bits`).  Either way cells are equi-width
            within a dimension and answers stay exact.
        refine_kernel: exact re-ranking kernel for the phase-2
            survivors, ``"gather"`` or ``"gemm"`` (see
            :func:`~repro.search.batch.refine_masked_candidates`); both
            produce bit-identical answers.  Not persisted in snapshots.
    """

    # Snapshot kind: read by the registry, snapshot dispatch, and
    # the :class:`repro.search.Index` protocol.
    kind = "vafile"

    def __init__(
        self,
        points,
        bits_per_dim: int = 4,
        *,
        bit_allocation: str = "uniform",
        refine_kernel: str = "gemm",
    ) -> None:
        if not 1 <= bits_per_dim <= 16:
            raise ValueError(
                f"bits_per_dim must lie in [1, 16], got {bits_per_dim}"
            )
        self._points = validate_corpus(points)
        self.refine_kernel = validate_refine_kernel(refine_kernel)
        self._budget = bits_per_dim
        self.bit_allocation = bit_allocation
        self._bits = allocate_bits(self._points, bits_per_dim, bit_allocation)
        self._finish_build()

    def _finish_build(self) -> None:
        """Quantize the corpus under the per-dimension bit vector."""
        self._n_cells = (np.int64(2) ** self._bits).astype(np.int64)
        lower = self._points.min(axis=0)
        upper = self._points.max(axis=0)
        span = upper - lower
        span[span == 0.0] = 1.0  # constant dimensions quantize to cell 0
        self._origin = lower
        width = span / self._n_cells
        # A subnormal span can underflow this division to zero width,
        # which would blow the scaled coordinates up to inf; such a
        # dimension is effectively constant, so give it the
        # constant-dimension treatment (every point in cell 0, bounds
        # stay conservative).
        width[width == 0.0] = 1.0
        self._cell_width = width

        scaled = (self._points - self._origin) / self._cell_width
        cells = np.floor(scaled).astype(np.int64)
        np.clip(cells, 0, self._n_cells - 1, out=cells)
        self._cells = cells
        self._set_cell_bounds()

    def _set_cell_bounds(self) -> None:
        # Reconstructed cell boxes, padded by a relative epsilon:
        # floating-point rounding can place a point that sits exactly on
        # a cell boundary a few ulps *outside* the reconstructed box,
        # which would make the "lower bound" exceed the true distance and
        # wrongly prune the point.  The padding keeps the bounds
        # conservative.  Static per corpus, so built once.
        span = self._cell_width * self._n_cells
        pad = 1e-9 * np.maximum(span, np.abs(self._origin) + span)
        self._cell_low = self._origin + self._cells * self._cell_width - pad
        self._cell_high = self._cell_low + self._cell_width + 2.0 * pad

    def save(self, path: str) -> None:
        """Persist the index to ``path`` (``.npz`` snapshot).

        Snapshot version 2 adds the per-dimension ``bits`` vector;
        version-1 files (written before variance-weighted allocation
        existed) load by expanding their scalar ``bits_per_dim`` into a
        uniform vector, which is exactly how they were built.
        """
        write_snapshot(
            path,
            self.kind,
            {
                "points": self._points,
                "bits_per_dim": np.int64(self._budget),
                "bits": self._bits,
                "origin": self._origin,
                "cell_width": self._cell_width,
                # 0..16 bits per dimension fit in uint16; the cell boxes
                # are rederived at load with the constructor arithmetic.
                "cells": self._cells.astype(np.uint16),
            },
        )

    @classmethod
    def load(cls, path: str, *, mmap_points: bool = False) -> "VAFileIndex":
        """Load a snapshot saved by :meth:`save`; query-ready immediately."""
        data = read_snapshot(
            path,
            cls.kind,
            required=("points", "bits_per_dim", "origin", "cell_width", "cells"),
            mmap_points=mmap_points,
        )
        index = cls.__new__(cls)
        index._points = data["points"]
        index.refine_kernel = "gemm"
        index._budget = int(data["bits_per_dim"])
        if "bits" in data:
            index._bits = data["bits"].astype(np.int64)
            index.bit_allocation = (
                "uniform"
                if np.all(index._bits == index._budget)
                else "variance"
            )
        else:
            index._bits = np.full(
                data["points"].shape[1], index._budget, dtype=np.int64
            )
            index.bit_allocation = "uniform"
        index._n_cells = (np.int64(2) ** index._bits).astype(np.int64)
        index._origin = data["origin"]
        index._cell_width = data["cell_width"]
        index._cells = data["cells"].astype(np.int64)
        index._set_cell_bounds()
        return index

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def dimensionality(self) -> int:
        return self._points.shape[1]

    @property
    def bits(self) -> np.ndarray:
        """Per-dimension bit allocation (read-only view)."""
        return self._bits

    def compression_ratio(self) -> float:
        """Approximation size relative to the raw 64-bit vectors."""
        return float(self._bits.mean() / 64.0)

    def _bounds_squared(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-point squared lower/upper distance bounds from the cells."""
        below = np.maximum(self._cell_low - query, 0.0)
        above = np.maximum(query - self._cell_high, 0.0)
        lower_sq = np.sum(np.square(below) + np.square(above), axis=1)

        far_corner = np.maximum(
            np.abs(query - self._cell_low), np.abs(self._cell_high - query)
        )
        upper_sq = np.sum(np.square(far_corner), axis=1)
        return lower_sq, upper_sq

    def _bounds_squared_block(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Phase-1 bounds for a block of queries at once: ``(q, n)`` each.

        Same arithmetic as :meth:`_bounds_squared` broadcast over the
        query axis, so every entry is bit-identical to the per-query
        path — the reductions run over the same (last) axis.
        """
        queries = rows[:, None, :]
        below = np.maximum(self._cell_low - queries, 0.0)
        above = np.maximum(queries - self._cell_high, 0.0)
        lower_sq = np.sum(np.square(below) + np.square(above), axis=2)

        far_corner = np.maximum(
            np.abs(queries - self._cell_low), np.abs(self._cell_high - queries)
        )
        upper_sq = np.sum(np.square(far_corner), axis=2)
        return lower_sq, upper_sq

    def _refine_block(
        self, rows: np.ndarray, lower_sq: np.ndarray, upper_sq: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Two-phase filtering for a block: ``(ids, distances, stats)``.

        Phase 1 prunes with the k-th smallest upper bound.  Phase 2
        seeds ``tau`` with the k-th exact distance among the ``k``
        smallest-lower-bound candidates: ``k`` points sit within
        ``tau``, so the true k-th distance is at most ``tau`` and every
        true top-k member satisfies ``lower <= exact <= tau`` — the
        ``lower <= tau`` survivor set (ties kept by ``<=``) is a
        superset of the answer, and the shared refine kernel re-ranks it
        exactly.  ``points_scanned`` counts the distinct survivors;
        ``candidates_generated`` the phase-1 survivors (the funnel the
        seeded threshold then narrows).
        """
        m, n = lower_sq.shape
        kth_upper = np.partition(upper_sq, k - 1, axis=1)[:, k - 1]
        phase1 = lower_sq <= kth_upper[:, None]

        # Seeds: the k smallest lower bounds are always phase-1
        # survivors (at least k points have upper <= kth_upper, and
        # every survivor's lower bound is below every pruned one's).
        seeds = np.argpartition(lower_sq, k - 1, axis=1)[:, :k]
        gaps = (
            self._points[seeds.reshape(-1)]
            - np.repeat(rows, k, axis=0)
        )
        seed_sq = np.sum(np.square(gaps), axis=1).reshape(m, k)
        tau = seed_sq.max(axis=1)

        survivors = lower_sq <= tau[:, None]
        top_indices, top_squared, counts = refine_masked_candidates(
            self._points, rows, survivors, k, kernel=self.refine_kernel
        )
        admitted = np.count_nonzero(phase1, axis=1)
        stats = stats_block(
            m,
            points_scanned=counts,
            nodes_visited=n,  # every approximation is read
            nodes_pruned=n - admitted,
            candidates_generated=admitted,
        )
        return top_indices, np.sqrt(top_squared), stats

    def _query_block(
        self, rows: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phase-1 bounds and two-phase refinement for a block of rows."""
        lower_sq, upper_sq = self._bounds_squared_block(rows)
        return self._refine_block(rows, lower_sq, upper_sq, k)

    def query(self, query, k: int = 1) -> KnnResult:
        """Exact k-NN with two-phase VA-file filtering."""
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_points)
        lower_sq, upper_sq = self._bounds_squared(vector)
        return KnnColumns(*self._refine_block(
            vector.reshape(1, -1), lower_sq.reshape(1, -1),
            upper_sq.reshape(1, -1), k,
        ))[0]

    def query_batch(self, queries, k: int = 1) -> BatchKnnResult:
        """Batched k-NN with vectorized phase-1 bound computation.

        The bound matrices for a whole block of queries come from one
        broadcast pass over the approximation cells — the scan that
        Weber et al.'s argument says should amortize across queries —
        and phase 2 refines each block's survivors through the shared
        exact kernel.  Results are bit-identical to looping
        :meth:`query`.
        """
        array = validate_queries(queries, self.dimensionality)
        k = validate_k(k, self.n_points)
        block = max(
            1, _BLOCK_ENTRIES // (self.n_points * self.dimensionality)
        )
        return blocked_query_batch(self._query_block, array, k, block)

    def range_query(self, query, radius: float) -> KnnResult:
        """All corpus points within ``radius`` of ``query``.

        Cells whose lower bound exceeds the radius are never refined;
        cells whose *upper* bound is within it could in principle be
        accepted unrefined, but exact distances are needed for the
        result anyway, so every surviving candidate is refined.
        """
        vector = validate_query(query, self.dimensionality)
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        radius_sq = radius * radius
        stats = QueryStats()
        lower_sq, _ = self._bounds_squared(vector)
        stats.nodes_visited = self.n_points
        candidates = np.flatnonzero(lower_sq <= radius_sq)
        stats.nodes_pruned = self.n_points - int(candidates.size)
        stats.candidates_generated = int(candidates.size)

        found: list[tuple[float, int]] = []
        for idx in candidates:
            gap = self._points[idx] - vector
            d2 = float(np.sum(np.square(gap)))
            stats.points_scanned += 1
            if d2 <= radius_sq:
                found.append((d2, int(idx)))
        found.sort()
        neighbors = tuple(
            Neighbor(index=idx, distance=float(np.sqrt(d2))) for d2, idx in found
        )
        return KnnResult(neighbors=neighbors, stats=stats)
