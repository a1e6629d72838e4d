"""Projection-screened exact k-NN: prune in a subspace, refine in full.

The paper's central object — distances computed in an m-dimensional
PCA- or coherence-selected subspace — is a *lower bound* on the full
d-dimensional distance: for a projection matrix ``P`` with orthonormal
columns, ``||P^T v|| <= ||v||`` for every vector ``v`` (drop the
orthogonal complement's non-negative contribution).  That single
inequality turns dimensionality reduction from an approximation into an
exact-search accelerator, the construction developed in "On Projections
to Linear Subspaces" (Thordsen & Schubert, SISAP 2022):

1. **Screen** — scan a contiguous float32 copy of the reduced corpus
   (``m`` floats per row instead of ``d`` doubles: a ``8d/4m``-fold
   bytes reduction) with the blocked Gram-expansion kernel from
   :mod:`repro.search.batch`, producing a lower bound per corpus row.
2. **Prune** — take the ``k`` reduced-nearest rows as seeds, compute
   their exact full distances, and let the running k-th exact distance
   ``tau`` discard every row whose lower bound exceeds it: no such row
   can enter the true top-k, because its full distance is at least its
   reduced distance.
3. **Refine** — recompute the survivors exactly in float64 with the
   same subtract-square arithmetic :class:`BruteForceIndex` uses, so
   neighbors, distances, and index tie-breaks are **bit-identical** to
   the linear scan.

Floating point cannot break exactness here, only waste a little work:
the screen compares each computed bound against ``tau`` plus a
conservative margin that dominates the float32 kernel's cancellation
error, the float32 quantization of the reduced corpus, and the
(machine-epsilon) departure of the eigenbasis from exact orthonormality
— so a true neighbor is never pruned, at worst a few extra rows are
refined.

The subspace itself comes from :func:`fit_projection`: covariance PCA
(:func:`repro.linalg.pca.fit_pca` — never the studentized variant,
whose per-column rescaling changes the metric and voids the bound) with
the retained components chosen by descending eigenvalue (the classical
rule) or by the paper's coherence probability
(:func:`repro.core.coherence.dataset_coherence` +
:func:`repro.core.selection.select_by_coherence`).  Which ordering
yields tighter bounds at equal ``m`` is exactly the experiment
``benchmarks/bench_ablation_projection_screen.py`` runs.

:class:`QueryStats` accounting: ``reduced_rows_scanned`` counts the
stage-1 subspace rows (always ``n``), ``points_scanned`` counts the
full-width refinements (seeds included, each surviving row exactly
once, even when ``query_batch`` splits into blocks), so
``stats.pruning_fraction(n)`` audits the win and raises on any
double-count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.search.batch import (
    _F32_MAGNITUDE_LIMIT,
    GramScanner,
    blocked_query_batch,
    pad_rows,
    refine_masked_candidates,
    validate_refine_kernel,
)
from repro.search.results import (
    BatchKnnResult,
    KnnColumns,
    KnnResult,
    stats_block,
    validate_corpus,
    validate_k,
    validate_queries,
    validate_query,
)
from repro.search.snapshot import read_snapshot, write_snapshot

PROJECTION_ORDERINGS = ("eigen", "coherence")

# Block size for batched screening, in score-matrix entries: query rows
# are processed in blocks of ``_BLOCK_ENTRIES // n`` so the ``(q, n)``
# scratch matrices stay around 32 MB regardless of batch size.
_BLOCK_ENTRIES = 4_194_304

# Orthonormality tolerance for caller-supplied projections: eigenbases
# from any reasonable solver sit at machine epsilon; anything past this
# is a genuinely oblique matrix whose "lower bounds" would not be.
_ORTHONORMAL_ATOL = 1e-8

# Fixed row count for every stage-1 BLAS call.  BLAS kernels round
# differently for different matrix shapes, so a query scored alone (the
# closed loop) and inside a coalesced server batch could land on
# opposite sides of the pruning threshold — answers would stay exact,
# but the per-query refined-rows counter would depend on how queries
# were batched, breaking the serving layer's bit-identical-stats
# contract.  Projecting and scoring in zero-padded chunks of this many
# rows keeps every BLAS shape constant, which makes the mask (and the
# stats) a pure function of each query alone.
_SCORE_CHUNK_ROWS = 32


@dataclass(frozen=True)
class ProjectionSpec:
    """An orthonormal subspace projection fitted on a corpus.

    Attributes:
        center: ``(d,)`` translation applied before projecting
            (Euclidean distances are translation-invariant, so any
            center preserves the bound; the corpus mean is what PCA
            fits).
        matrix: ``(d, m)`` projection with orthonormal columns — the
            property the lower-bound guarantee rests on.
        ordering: which selection rule picked the columns (``"eigen"``
            or ``"coherence"``); provenance for reports and snapshots.
    """

    center: np.ndarray
    matrix: np.ndarray
    ordering: str

    @property
    def input_dimensionality(self) -> int:
        return self.matrix.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.matrix.shape[1]

    def reduce(self, data: np.ndarray) -> np.ndarray:
        """Map rows of ``data`` (full space) into the subspace."""
        return (data - self.center) @ self.matrix


def validate_ordering(ordering: str) -> str:
    """Validate the subspace selection rule name."""
    if ordering not in PROJECTION_ORDERINGS:
        raise ValueError(
            f"ordering must be one of {PROJECTION_ORDERINGS}, "
            f"got {ordering!r}"
        )
    return ordering


def _validate_projection(spec: ProjectionSpec, dimensionality: int) -> ProjectionSpec:
    matrix = np.asarray(spec.matrix, dtype=np.float64)
    center = np.asarray(spec.center, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != dimensionality:
        raise ValueError(
            f"projection matrix must be (d, m) with d={dimensionality}, "
            f"got shape {matrix.shape}"
        )
    m = matrix.shape[1]
    if not 1 <= m <= dimensionality:
        raise ValueError(
            f"subspace dimension must lie in [1, {dimensionality}], got {m}"
        )
    if center.shape != (dimensionality,):
        raise ValueError(
            f"projection center must be ({dimensionality},), "
            f"got shape {center.shape}"
        )
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(center))):
        raise ValueError("projection must be finite")
    gram = matrix.T @ matrix
    if not np.allclose(gram, np.eye(m), atol=_ORTHONORMAL_ATOL):
        raise ValueError(
            "projection columns must be orthonormal: subspace distances "
            "lower-bound full distances only for orthonormal projections "
            "(an oblique matrix can expand distances and prune true "
            "neighbors)"
        )
    ordering = validate_ordering(spec.ordering)
    return ProjectionSpec(center=center, matrix=matrix, ordering=ordering)


def default_subspace_dim(dimensionality: int) -> int:
    """The default screening dimension: d/4, floored at 1.

    A quarter of the input dimensionality is the aggressive-reduction
    regime the paper's evaluation targets, and in reduced-scan terms it
    is an 8x bytes cut (float32 quarter-width rows vs float64 full
    rows) before any pruning.
    """
    return max(1, dimensionality // 4)


def fit_projection(
    points,
    subspace_dim: int | None = None,
    ordering: str = "eigen",
) -> ProjectionSpec:
    """Fit an orthonormal screening projection on a corpus.

    Args:
        points: ``(n, d)`` corpus (validated like an index constructor).
        subspace_dim: retained dimensions ``m`` in ``[1, d]``; defaults
            to :func:`default_subspace_dim`.
        ordering: ``"eigen"`` keeps the ``m`` largest-eigenvalue
            components; ``"coherence"`` keeps the ``m`` components with
            the highest dataset coherence probability (eigenvalue
            tie-break), the paper's selection rule.

    Covariance PCA only — the studentized (correlation) variant rescales
    columns, which changes the metric and destroys the lower-bound
    property.  Degenerate corpora (a single point, or zero variance)
    fall back to the leading ``m`` coordinate axes, which are trivially
    orthonormal and keep every guarantee.
    """
    array = validate_corpus(points)
    d = array.shape[1]
    if subspace_dim is None:
        subspace_dim = default_subspace_dim(d)
    if not 1 <= subspace_dim <= d:
        raise ValueError(
            f"subspace_dim must lie in [1, {d}], got {subspace_dim}"
        )
    ordering = validate_ordering(ordering)

    if array.shape[0] < 2:
        # fit_pca needs two points; any orthonormal basis is sound.
        return ProjectionSpec(
            center=array.mean(axis=0),
            matrix=np.eye(d)[:, :subspace_dim],
            ordering=ordering,
        )

    from repro.core.coherence import dataset_coherence
    from repro.core.selection import select_by_coherence, select_by_eigenvalue
    from repro.linalg.pca import fit_pca

    pca = fit_pca(array, scale=False)
    decomposition = pca.decomposition
    if ordering == "eigen":
        selected = select_by_eigenvalue(decomposition.eigenvalues, subspace_dim)
    else:
        centered = array - pca.means
        probabilities = dataset_coherence(centered, decomposition.eigenvectors)
        selected = select_by_coherence(
            probabilities, subspace_dim, tie_break=decomposition.eigenvalues
        )
    return ProjectionSpec(
        center=pca.means,
        matrix=decomposition.basis(selected),
        ordering=ordering,
    )


class ProjectionScreenedIndex:
    """Exact k-NN via reduced-space screening and full-space refinement.

    Args:
        points: ``(n, d)`` corpus.
        subspace_dim: screening dimensions ``m`` (default ``d // 4``,
            floored at 1).  Ignored when ``projection`` is given.
        ordering: subspace selection rule, ``"eigen"`` or
            ``"coherence"``.  Ignored when ``projection`` is given.
        projection: a pre-fitted :class:`ProjectionSpec` to use instead
            of fitting on ``points`` — how :func:`repro.shard.build_shards`
            hands every shard the one projection fitted on the *full*
            corpus (the same shared-structure rule as IGrid's global
            discretization), and how experiments pin a basis.
        refine_kernel: stage-3 exact re-ranking kernel, ``"gather"`` or
            ``"gemm"`` (see
            :func:`~repro.search.batch.refine_masked_candidates`); both
            produce bit-identical answers and stats, so the knob trades
            wall clock only.  ``"gemm"`` compacts the survivors into
            fixed-shape tiles and re-ranks through one blocked float64
            Gram multiply — the fast choice at loose pruning fractions,
            where the gather path's per-row fancy indexing dominates.
            Not persisted in snapshots.

    Answers are bit-identical to :class:`BruteForceIndex` — same
    neighbors, same distance bytes, same lower-index tie-breaks — at a
    fraction of the scanned bytes; :class:`QueryStats` reports the
    split (``reduced_rows_scanned`` vs ``points_scanned``).
    """

    # Snapshot kind: read by the registry, snapshot dispatch, and
    # the :class:`repro.search.Index` protocol.
    kind = "projscreen"

    def __init__(
        self,
        points,
        subspace_dim: int | None = None,
        ordering: str = "eigen",
        projection: ProjectionSpec | None = None,
        refine_kernel: str = "gemm",
    ) -> None:
        self._points = validate_corpus(points)
        self.refine_kernel = validate_refine_kernel(refine_kernel)
        if projection is None:
            projection = fit_projection(
                self._points, subspace_dim=subspace_dim, ordering=ordering
            )
        self._projection = _validate_projection(
            projection, self._points.shape[1]
        )
        reduced64 = self._projection.reduce(self._points)
        # Contiguous float32 reduced corpus: the stage-1 scan reads
        # 4m bytes per row instead of the corpus's 8d.
        self._reduced = np.ascontiguousarray(reduced64, dtype=np.float32)
        # Norms of the *stored* float32 rows, in float64: the screen's
        # bounds are statements about the rows it actually scans.
        wide = self._reduced.astype(np.float64)
        self._reduced_sq_norms = np.einsum("nd,nd->n", wide, wide)
        centered = self._points - self._projection.center
        self._max_centered_sq_norm = float(
            np.einsum("nd,nd->n", centered, centered).max()
        )
        self._finish_init()

    def _finish_init(self) -> None:
        """Derived state shared by the constructor and :meth:`load`."""
        self._scanner = GramScanner(
            self._reduced, sq_norms=self._reduced_sq_norms
        )
        self._block_entries = _BLOCK_ENTRIES

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def dimensionality(self) -> int:
        return self._points.shape[1]

    @property
    def subspace_dim(self) -> int:
        return self._projection.subspace_dim

    @property
    def ordering(self) -> str:
        return self._projection.ordering

    @property
    def projection(self) -> ProjectionSpec:
        return self._projection

    def save(self, path: str) -> None:
        """Persist the index to ``path`` (``.npz`` snapshot).

        The projection matrix and the float32 reduced corpus are stored
        alongside the points, so a loaded index is query-ready with
        zero refitting and screens with the exact same bounds.
        """
        write_snapshot(
            path,
            self.kind,
            {
                "points": self._points,
                "projection": self._projection.matrix,
                "center": self._projection.center,
                "ordering": np.bytes_(self._projection.ordering.encode()),
                "reduced": self._reduced,
                "reduced_sq_norms": self._reduced_sq_norms,
                "max_centered_sq_norm": np.float64(
                    self._max_centered_sq_norm
                ),
            },
        )

    @classmethod
    def load(
        cls, path: str, *, mmap_points: bool = False
    ) -> "ProjectionScreenedIndex":
        """Load a snapshot saved by :meth:`save`; query-ready immediately.

        ``mmap_points=True`` maps the full corpus from the file instead
        of reading it into memory — the stage-1 screen touches only the
        (in-memory) reduced matrix, so under mmap a serving process
        faults in corpus pages only for the rows that survive pruning.
        """
        data = read_snapshot(
            path,
            cls.kind,
            required=(
                "points", "projection", "center", "ordering",
                "reduced", "reduced_sq_norms", "max_centered_sq_norm",
            ),
            mmap_points=mmap_points,
        )
        index = cls.__new__(cls)
        index._points = data["points"]
        index.refine_kernel = "gemm"
        index._projection = _validate_projection(
            ProjectionSpec(
                center=data["center"],
                matrix=data["projection"],
                ordering=bytes(data["ordering"]).decode(),
            ),
            index._points.shape[1],
        )
        index._reduced = np.ascontiguousarray(
            data["reduced"], dtype=np.float32
        )
        index._reduced_sq_norms = data["reduced_sq_norms"]
        # Stored scalar: recomputing it would stream the whole (possibly
        # memory-mapped) corpus at load time.
        index._max_centered_sq_norm = float(data["max_centered_sq_norm"])
        index._finish_init()
        return index

    def _screen_margin(
        self, kernel_margin: np.ndarray, q_sq_reduced: np.ndarray,
        q_sq_centered: np.ndarray,
    ) -> np.ndarray:
        """Per-query slack added to ``tau`` before the bound comparison.

        Three error sources separate a computed stage-1 score from the
        true (real-arithmetic) reduced distance it lower-bounds with:
        the float32 Gram kernel's cancellation error (covered by the
        kernel's own margin), the float32 quantization of the stored
        reduced rows (relative ~1e-7, bounded here with a 1e-6
        coefficient on the same magnitude scale), and the eigenbasis
        being orthonormal only to machine epsilon (bounded by a 1e-13
        coefficient on the *full-space* centered magnitudes, since
        ``||P^T v||^2 <= (1 + ||P^T P - I||) ||v||^2``).  The sum keeps
        the screen conservative: a true neighbor is never pruned, at
        worst a few extra rows are refined.
        """
        m = self.subspace_dim
        d = self.dimensionality
        quantization = 1e-6 * (m + 100.0) * (
            q_sq_reduced + self._scanner.max_sq_norm
        )
        orthonormality = 1e-13 * (d + 100.0) * (
            q_sq_centered + self._max_centered_sq_norm
        )
        return kernel_margin + quantization + orthonormality + 1e-30

    def _stage1_scores(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fixed-shape stage-1 scoring of a query block: (approx, margin).

        Every BLAS call here — the projection multiply and the Gram
        scan — runs on exactly ``_SCORE_CHUNK_ROWS`` rows (zero-padded),
        so each query's scores are bit-identical however the caller
        batched it; see the constant's comment for why that matters.
        Rows are routed to the float32 or float64 kernel by a *per-row*
        magnitude test, so the chunk-level dtype decision can never
        depend on a row's chunk-mates either.
        """
        b, chunk = rows.shape[0], _SCORE_CHUNK_ROWS
        centered = rows - self._projection.center
        q_sq_centered = np.einsum("qd,qd->q", centered, centered)
        reduced = np.empty((b, self.subspace_dim))
        for start in range(0, b, chunk):
            stop = min(start + chunk, b)
            block = pad_rows(centered[start:stop], chunk)
            projected = block @ self._projection.matrix
            reduced[start:stop] = projected[: stop - start]
        q_sq_reduced = np.einsum("qd,qd->q", reduced, reduced)

        approx = np.empty((b, self.n_points))
        margin = np.empty(b)
        f32_eligible = q_sq_reduced < _F32_MAGNITUDE_LIMIT
        groups = (np.flatnonzero(f32_eligible), np.flatnonzero(~f32_eligible))
        for group in groups:
            for start in range(0, group.size, chunk):
                sel = group[start : start + chunk]
                scores, kernel_margin = self._scanner.scores(
                    pad_rows(reduced[sel], chunk),
                    pad_rows(q_sq_reduced[sel], chunk),
                )
                # float32 scores upcast exactly, so comparing against
                # the float64 limit later is unchanged by this store.
                approx[sel] = scores[: sel.size]
                margin[sel] = self._screen_margin(
                    kernel_margin[: sel.size],
                    q_sq_reduced[sel],
                    q_sq_centered[sel],
                )
        return approx, margin

    def _query_block(
        self, rows: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Screen, prune, and refine one block: ``(ids, distances, stats)``."""
        n = self.n_points

        # Stage 1: blocked reduced-space scan -> lower-bound scores.
        approx, margin = self._stage1_scores(rows)

        # Stage 2: seed tau with the k reduced-nearest rows' exact
        # distances; tau is then >= the true k-th distance, so any row
        # whose lower bound beats tau (+ margin) may yet be a neighbor
        # and every other row provably is not.
        b = rows.shape[0]
        seeds = np.argpartition(approx, k - 1, axis=1)[:, :k]
        seed_rows = np.repeat(np.arange(b), k)
        seed_gaps = self._points[seeds.ravel()] - rows[seed_rows]
        seed_sq = np.sum(np.square(seed_gaps), axis=1).reshape(b, k)
        tau = seed_sq.max(axis=1)
        limit = tau + margin
        # Comparing the float32 scores against the float64 limit
        # upcasts, so no downcast can shave the margin.
        mask = approx <= limit[:, None]
        # The seeds were refined to produce tau; count them as
        # candidates exactly once via the mask (a seed's bound can
        # exceed tau when its own exact distance does).
        mask[seed_rows, seeds.ravel()] = True

        # Stage 3: exact float64 re-rank of the survivors, bit-identical
        # arithmetic and tie-breaks to BruteForceIndex.  Both kernels
        # return the same bits, so the knob never shows in the answers
        # or the stats.
        top_indices, top_squared, counts = refine_masked_candidates(
            self._points, rows, mask, k,
            block_entries=self._block_entries, kernel=self.refine_kernel,
        )
        stats = stats_block(
            b,
            points_scanned=counts,
            nodes_pruned=n - counts,
            reduced_rows_scanned=n,
            # The screen admits exactly the refined rows: funnel width
            # and refinement width coincide for this index.
            candidates_generated=counts,
        )
        return top_indices, np.sqrt(top_squared), stats

    def query(self, query, k: int = 1) -> KnnResult:
        """Exact k-NN for one query (screen, prune, refine).

        Same neighbors, distances, and tie-breaks as
        :class:`BruteForceIndex`; the stats show how little was refined.
        """
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_points)
        return KnnColumns(*self._query_block(vector.reshape(1, -1), k))[0]

    def query_batch(self, queries, k: int = 1) -> BatchKnnResult:
        """Batched exact k-NN; bit-identical to looping :meth:`query`.

        The reduced-space screen amortizes over the block (one float32
        BLAS multiply per block), and each query's counters are
        assigned exactly once regardless of how the batch splits into
        blocks — ``stats.pruning_fraction`` stays honest.
        """
        array = validate_queries(queries, self.dimensionality)
        k = validate_k(k, self.n_points)
        return blocked_query_batch(
            self._query_block, array, k,
            max(1, self._block_entries // self.n_points),
        )

    def recall_against_exact(
        self, queries, k: int = 3, *, reference=None
    ) -> float:
        """Recall vs the exact linear scan — always 1.0, by contract.

        Exactness is a contract, not a metric, for this index: the
        audit raises :class:`~repro.search.recall.ExactnessViolation`
        instead of returning a value below 1.0.  ``reference``
        optionally reuses a prebuilt exact index over the same corpus.
        """
        from repro.search.recall import recall_against_exact

        return recall_against_exact(
            self, queries, k=k, exact=True, reference=reference
        )
