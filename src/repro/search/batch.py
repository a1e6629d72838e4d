"""Shared batch-query execution for the exact k-NN indexes.

Every exact index exposes ``query_batch(queries, k)`` returning a
:class:`~repro.search.results.BatchKnnResult`.  The tree-based indexes,
whose traversal state (recursion, priority queues) does not vectorize,
answer through :func:`sequential_query_batch`, which loops
``index.query`` over the rows.  The matrix-friendly indexes (brute
force, projscreen, VA-file, LSH) answer row blocks with vectorized
kernels through :func:`blocked_query_batch` instead, and their batches
carry the answer as arrays
(:class:`~repro.search.results.KnnColumns`) — see
:mod:`repro.search.bruteforce` and :mod:`repro.search.vafile`.

Either way the batch preserves query order and is bit-identical to
calling ``query`` row by row; the batch API never trades accuracy for
throughput.

This module also hosts the two vectorized scan primitives those
matrix-friendly paths share:

* :class:`GramScanner` — blocked float32/float64 Gram-expansion scoring
  of query rows against a static row matrix, with a conservative
  per-query error margin.  The scores only *select* candidates; exact
  arithmetic stays with the caller, which is what makes the memory-lean
  float32 path safe.  Brute force uses it over the full corpus; the
  projection-screened index reuses it as its stage-1 reduced-space
  kernel.
* :func:`refine_masked_candidates` — exact float64 top-k over per-row
  candidate masks, with the stable tie-break (equal distances resolve
  to the lower corpus index) every index in the family guarantees.
  Two interchangeable kernels produce bit-identical results: the
  ``"gather"`` kernel recomputes every masked candidate with per-row
  float64 gathers (optimal when masks are a few rows wide), and the
  ``"gemm"`` kernel compacts the survivors of a block of queries into
  fixed-shape tiles, scores them through one blocked float64 Gram
  multiply, and recomputes exactly only the provable top-k contenders
  (optimal when masks are wide, as in a screened scan).  The tiles are
  zero-padded to constant BLAS shapes — ``_TILE_ROWS`` query rows by
  ``_TILE_COLS`` candidate columns — so the kernel's per-query behavior
  never depends on how the caller batched its queries.
"""

from __future__ import annotations

import numpy as np

from repro.search.results import (
    STATS_FIELDS,
    BatchKnnResult,
    combine_stats,
    validate_k,
    validate_queries,
)

# Default block size for the exact-refinement gather, in distance-matrix
# entries: keeps the flat scratch arrays around 32 MB.
_REFINE_BLOCK_ENTRIES = 4_194_304

# Beyond this squared magnitude a float32 expansion can overflow to inf,
# so the scanner falls back to float64 — soundness beats scan bytes.
_F32_MAGNITUDE_LIMIT = 1e30

REFINE_KERNELS = ("gather", "gemm")

# Fixed tile shape for the fused gemm refine.  Every BLAS multiply runs
# on exactly (_TILE_ROWS, d) @ (d, _TILE_COLS) regardless of how many
# query rows or candidate columns actually survive — BLAS kernels pick
# different reduction orders for different shapes, so only constant
# shapes keep query(b=1) and query_batch bit-identical per row.
_TILE_ROWS = 32
_TILE_COLS = 512


class GramScanner:
    """Blocked Gram-expansion scoring of query rows against a matrix.

    One BLAS multiply produces approximate squared Euclidean distances
    for a whole block of query rows at once via
    ``||q - p||^2 = ||q||^2 - 2 q.p + ||p||^2``.  The expansion loses a
    few ulps to cancellation (and, on the float32 path, to reduced
    precision), so :meth:`scores` also returns a per-query margin that
    dominates the combined error: for every entry,
    ``|approx - exact| <= margin`` where ``exact`` is the float64
    subtract-square distance to the stored matrix row.  Callers use the
    scores to *select* candidates and recompute survivors exactly, so
    the lossy fast path never reaches an answer.

    Args:
        matrix: ``(n, d)`` static rows to scan against; float64 or
            float32 (a float32 matrix is scored as stored — its
            quantization is part of the distances the margin covers
            relative to the stored values).
        sq_norms: optional precomputed float64 ``||p||^2`` per row
            (computed here when omitted).
    """

    def __init__(self, matrix, *, sq_norms=None) -> None:
        self._matrix = matrix
        if sq_norms is None:
            wide = np.asarray(matrix, dtype=np.float64)
            sq_norms = np.einsum("nd,nd->n", wide, wide)
        self._sq_norms = np.asarray(sq_norms, dtype=np.float64)
        self._max_sq_norm = float(self._sq_norms.max())
        # Lazily materialized shadows, so callers that never take the
        # other path pay nothing.
        self._matrix_f32: np.ndarray | None = None
        self._sq_norms_f32: np.ndarray | None = None
        self._matrix_f64: np.ndarray | None = None

    @property
    def max_sq_norm(self) -> float:
        return self._max_sq_norm

    def uses_float32(self, q_sq: np.ndarray) -> bool:
        """Whether a block with these query magnitudes scores in float32.

        Float32 whenever the squared magnitudes stay far from float32
        overflow; otherwise float64, so an unsound scan is never
        produced.
        """
        return (
            self._max_sq_norm < _F32_MAGNITUDE_LIMIT
            and float(q_sq.max(initial=0.0)) < _F32_MAGNITUDE_LIMIT
        )

    def scores(
        self, rows: np.ndarray, q_sq: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score a block of query rows: ``(approx, margin)``.

        ``approx`` is the ``(b, n)`` matrix of approximate squared
        distances in the effective dtype; ``margin`` is the ``(b,)``
        float64 error bound valid for every entry of the matching row.
        """
        d = self._matrix.shape[1]
        if self.uses_float32(q_sq):
            if self._matrix_f32 is None:
                self._matrix_f32 = np.ascontiguousarray(
                    self._matrix, dtype=np.float32
                )
                self._sq_norms_f32 = self._sq_norms.astype(np.float32)
            # In-place expansion: every avoided temporary is a full pass
            # over the (b, n) matrix.
            approx = rows.astype(np.float32) @ self._matrix_f32.T
            approx *= -2.0
            approx += q_sq.astype(np.float32)[:, None]
            approx += self._sq_norms_f32
            margin = 1e-5 * (d + 100.0) * (q_sq + self._max_sq_norm) + 1e-30
        else:
            if self._matrix_f64 is None:
                if self._matrix.dtype == np.float64:
                    self._matrix_f64 = self._matrix
                else:
                    self._matrix_f64 = np.ascontiguousarray(
                        self._matrix, dtype=np.float64
                    )
            approx = rows @ self._matrix_f64.T
            approx *= -2.0
            approx += q_sq[:, None]
            approx += self._sq_norms
            margin = 1e-14 * (d + 100.0) * (q_sq + self._max_sq_norm) + 1e-30
        return approx, margin


def validate_refine_kernel(kernel: str) -> str:
    """Validate the exact-refinement kernel knob."""
    if kernel not in REFINE_KERNELS:
        raise ValueError(
            f"refine_kernel must be one of {REFINE_KERNELS}, got {kernel!r}"
        )
    return kernel


def pad_rows(block: np.ndarray, size: int) -> np.ndarray:
    """Zero-pad an array along axis 0 up to exactly ``size`` rows.

    BLAS-shape discipline: float matmuls feeding pruning or hashing
    decisions must always run on the same shape, so short final blocks
    are padded with zero rows (padding output is sliced away, never
    read).  A full block is returned as-is.
    """
    if block.shape[0] == size:
        return block
    padded = np.zeros((size,) + block.shape[1:], dtype=block.dtype)
    padded[: block.shape[0]] = block
    return padded


def refine_masked_candidates(
    corpus: np.ndarray,
    rows: np.ndarray,
    mask: np.ndarray,
    k: int,
    *,
    block_entries: int = _REFINE_BLOCK_ENTRIES,
    kernel: str = "gather",
    sq_norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact float64 top-k over per-row candidate masks.

    Both kernels return neighbors, distances, and tie-breaks
    bit-identical to a full sequential scan restricted to the
    candidates — every *answered* distance is produced by the same
    subtract-square arithmetic the sequential ``query`` paths use:

    * ``"gather"`` recomputes every masked candidate with per-row
      float64 gathers in bounded chunks (tie-heavy corpora can make the
      mask wide).  Optimal when masks are only a few entries wide.
    * ``"gemm"`` compacts each :data:`_TILE_ROWS`-row block's union of
      candidate columns into one gathered tile, scores it through
      fixed-shape ``(_TILE_ROWS, d) @ (d, _TILE_COLS)`` float64 Gram
      multiplies, and recomputes exactly only the rows that the
      Gram scores — widened by a conservative error margin — prove can
      reach the top ``k``.  The margin makes the narrowing lossless, so
      the exact recompute sees a superset of the true top ``k`` and the
      stable tie-break is preserved.  Optimal when masks are wide, as
      in a screened scan at a loose pruning fraction.

    Rows with fewer than ``k`` candidates (including zero) are
    tolerated: missing tail slots report index ``-1`` and distance
    ``+inf``, and ``counts`` carries the per-row truth.

    Args:
        sq_norms: optional precomputed float64 ``||p||^2`` per corpus
            row, used only by the gemm kernel (computed per tile when
            omitted, which keeps a memory-mapped corpus lazy).

    Returns:
        ``(top_indices, top_squared, counts)`` — the ``(b, k)`` corpus
        indices and exact squared distances, plus the ``(b,)`` per-row
        candidate counts (the refined-rows stats counter).
    """
    validate_refine_kernel(kernel)
    counts = mask.sum(axis=1)
    if kernel == "gemm":
        b = rows.shape[0]
        top_indices = np.full((b, k), -1, dtype=np.intp)
        top_squared = np.full((b, k), np.inf)
        for start in range(0, b, _TILE_ROWS):
            stop = min(start + _TILE_ROWS, b)
            idx, sq = _refine_gemm_block(
                corpus,
                rows[start:stop],
                mask[start:stop],
                k,
                block_entries,
                sq_norms,
            )
            top_indices[start:stop] = idx
            top_squared[start:stop] = sq
        return top_indices, top_squared, counts
    row_of, col_of = np.nonzero(mask)
    exact_flat = _exact_flat_distances(
        corpus, rows, row_of, col_of, block_entries
    )
    top_indices, top_squared = _stable_topk(
        row_of, col_of, exact_flat, rows.shape[0], k
    )
    return top_indices, top_squared, counts


def _exact_flat_distances(
    corpus: np.ndarray,
    rows: np.ndarray,
    row_of: np.ndarray,
    col_of: np.ndarray,
    block_entries: int,
) -> np.ndarray:
    """Exact float64 squared distances for flat (query, corpus) pairs.

    The one arithmetic both refine kernels answer with: subtract, square,
    ``np.sum`` over the last axis — identical to the sequential ``query``
    paths, computed in bounded chunks to cap scratch memory.
    """
    exact_flat = np.empty(row_of.size)
    step = max(1, block_entries // max(1, corpus.shape[1]))
    for flat_start in range(0, row_of.size, step):
        piece = slice(flat_start, flat_start + step)
        gaps = corpus[col_of[piece]] - rows[row_of[piece]]
        exact_flat[piece] = np.sum(np.square(gaps), axis=1)
    return exact_flat


def _stable_topk(
    row_of: np.ndarray,
    col_of: np.ndarray,
    exact_flat: np.ndarray,
    b: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row stable top-k of flat exact distances.

    Scatters into a padded ``(b, width)`` table.  ``np.nonzero`` emits
    the columns of each row in ascending order, so a *stable* argsort on
    the exact distances reproduces the sequential tie-break (equal
    distances resolve to the lower corpus index).  Rows with fewer than
    ``k`` entries pad with index ``-1`` / distance ``+inf``.
    """
    counts = np.bincount(row_of, minlength=b)
    width = max(int(counts.max(initial=0)), k)
    position = np.arange(row_of.size) - (np.cumsum(counts) - counts)[row_of]
    exact = np.full((b, width), np.inf)
    candidates = np.full((b, width), -1, dtype=np.intp)
    exact[row_of, position] = exact_flat
    candidates[row_of, position] = col_of

    order = np.argsort(exact, axis=1, kind="stable")[:, :k]
    top_indices = np.take_along_axis(candidates, order, axis=1)
    top_squared = np.take_along_axis(exact, order, axis=1)
    return top_indices, top_squared


def _refine_gemm_block(
    corpus: np.ndarray,
    rows: np.ndarray,
    mask: np.ndarray,
    k: int,
    block_entries: int,
    sq_norms: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused gemm refine for one block of at most ``_TILE_ROWS`` rows.

    The union of the block's candidate columns is gathered from the
    corpus exactly once and scored against all rows through fixed-shape
    float64 Gram multiplies.  The Gram expansion loses a few ulps to
    cancellation, so the scores only *narrow*: any candidate whose
    approximate distance lies within ``2 * margin`` of the row's k-th
    smallest approximate distance might belong to the exact top k (the
    margin bounds ``|approx - exact|``, so the true k-th distance is at
    most ``kth_approx + margin`` and every true top-k member scores at
    most ``kth_approx + 2 * margin``).  The narrowed superset — ties
    included — is recomputed with the exact subtract-square arithmetic,
    which makes the result bit-identical to the gather kernel.
    """
    b = rows.shape[0]
    union = np.flatnonzero(mask.any(axis=0))
    if union.size == 0:
        return (
            np.full((b, k), -1, dtype=np.intp),
            np.full((b, k), np.inf),
        )
    cand = mask[:, union]
    tile = np.ascontiguousarray(corpus[union], dtype=np.float64)
    d = tile.shape[1]
    if sq_norms is None:
        u_sq = np.einsum("ud,ud->u", tile, tile)
    else:
        u_sq = np.asarray(sq_norms, dtype=np.float64)[union]
    q_pad = pad_rows(rows, _TILE_ROWS)
    q_sq = np.einsum("qd,qd->q", rows, rows)
    q_sq_pad = pad_rows(q_sq[:, None], _TILE_ROWS)

    approx = np.empty((b, union.size))
    for col_start in range(0, union.size, _TILE_COLS):
        col_stop = min(col_start + _TILE_COLS, union.size)
        block = pad_rows(tile[col_start:col_stop], _TILE_COLS)
        block_sq = pad_rows(
            u_sq[col_start:col_stop, None], _TILE_COLS
        )
        scores = q_pad @ block.T
        scores *= -2.0
        scores += q_sq_pad
        scores += block_sq.T
        approx[:, col_start:col_stop] = scores[:b, : col_stop - col_start]

    # Same float64 Gram margin form as GramScanner: dominates the
    # expansion's cancellation error for every entry of the row.
    margin = 1e-14 * (d + 100.0) * (q_sq + float(u_sq.max())) + 1e-30
    approx[~cand] = np.inf
    if union.size >= k:
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
    else:
        kth = np.full(b, np.inf)
    limit = np.where(np.isfinite(kth), kth + 2.0 * margin, np.inf)
    # AND with the candidate mask: rows short of k candidates have an
    # infinite limit, and inf <= inf is True for the non-candidates.
    narrowed = cand & (approx <= limit[:, None])

    row_of, col_of = np.nonzero(narrowed)
    gids = union[col_of]
    exact_flat = _exact_flat_distances(
        corpus, rows, row_of, gids, block_entries
    )
    return _stable_topk(row_of, gids, exact_flat, b, k)


def blocked_query_batch(
    query_block, queries: np.ndarray, k: int, block_rows: int
) -> BatchKnnResult:
    """Answer validated ``queries`` in blocks of ``block_rows`` rows.

    ``query_block(rows, k)`` returns one block's ``(ids, distances,
    stats)`` arrays (see :class:`~repro.search.results.KnnColumns`),
    and each block writes its slice of the batch's arrays.
    """
    b = queries.shape[0]
    ids = np.empty((b, k), dtype=np.int64)
    distances = np.empty((b, k))
    stats = np.empty((b, len(STATS_FIELDS)), dtype=np.int64)
    for start in range(0, b, block_rows):
        rows = slice(start, start + block_rows)
        ids[rows], distances[rows], stats[rows] = query_block(queries[rows], k)
    return BatchKnnResult.from_columns(ids, distances, stats)


def sequential_query_batch(index, queries, k: int) -> BatchKnnResult:
    """Answer a batch by looping ``index.query`` over the rows."""
    array = validate_queries(queries, index.dimensionality)
    k = validate_k(k, index.n_points)
    results = tuple(index.query(row, k=k) for row in array)
    return BatchKnnResult(
        results=results, stats=combine_stats(r.stats for r in results)
    )
