"""Batch-query engine: equivalence with sequential queries, for every index.

The batch API's contract is strict: for any corpus, query set, and ``k``,
``index.query_batch(queries, k)`` returns exactly what looping
``index.query`` would — same neighbor indices, bit-identical distances,
same tie-breaks — and its aggregate stats are the per-query sums.  These
tests exercise the contract over adversarial corpora (ties, duplicates,
extreme magnitudes) where the vectorized brute-force/VA-file paths could
plausibly diverge from the scalar arithmetic.
"""

import numpy as np
import pytest

from repro.search.bruteforce import BruteForceIndex
from repro.search.idistance import IDistanceIndex
from repro.search.igrid import IGridIndex
from repro.search.kdtree import KdTreeIndex
from repro.search.lsh import LshIndex
from repro.search.pyramid import PyramidIndex
from repro.search.results import BatchKnnResult, QueryStats, combine_stats
from repro.search.rtree import RTreeIndex
from repro.search.vafile import VAFileIndex

ALL_INDEXES = [
    BruteForceIndex,
    KdTreeIndex,
    RTreeIndex,
    VAFileIndex,
    PyramidIndex,
    IDistanceIndex,
    IGridIndex,
    LshIndex,
]


def assert_batch_matches_sequential(index, queries, k, **kwargs):
    batch = index.query_batch(queries, k=k, **kwargs)
    sequential = [index.query(q, k=k) for q in np.asarray(queries)]
    assert isinstance(batch, BatchKnnResult)
    assert len(batch) == len(sequential)
    for got, expected in zip(batch, sequential):
        assert tuple(got.indices.tolist()) == tuple(expected.indices.tolist())
        # Bit-identical, not approximately equal: the batch path must
        # reproduce the sequential arithmetic exactly.
        assert tuple(got.distances.tolist()) == tuple(
            expected.distances.tolist()
        )
    expected_stats = combine_stats(r.stats for r in sequential)
    assert batch.stats.points_scanned == expected_stats.points_scanned
    assert batch.stats.nodes_visited == expected_stats.nodes_visited
    assert batch.stats.nodes_pruned == expected_stats.nodes_pruned


@pytest.mark.parametrize("cls", ALL_INDEXES)
class TestBatchSequentialEquivalence:
    def test_random_cloud(self, cls, rng):
        corpus = rng.normal(size=(150, 6))
        index = cls(corpus)
        queries = rng.normal(size=(23, 6))
        assert_batch_matches_sequential(index, queries, k=5)

    def test_self_queries_with_ties(self, cls, rng):
        # Duplicated corpus rows force distance ties on every query.
        base = rng.normal(size=(40, 4))
        corpus = np.concatenate([base, base[:20]])
        index = cls(corpus)
        assert_batch_matches_sequential(index, base[:15], k=4)

    def test_all_duplicate_corpus(self, cls):
        corpus = np.ones((30, 3))
        index = cls(corpus)
        queries = np.zeros((5, 3))
        assert_batch_matches_sequential(index, queries, k=7)

    def test_k_equals_n(self, cls, rng):
        corpus = rng.normal(size=(25, 5))
        index = cls(corpus)
        assert_batch_matches_sequential(index, rng.normal(size=(4, 5)), k=25)

    def test_single_query_batch(self, cls, rng):
        corpus = rng.normal(size=(60, 8))
        index = cls(corpus)
        assert_batch_matches_sequential(index, corpus[:1], k=3)

    def test_empty_batch(self, cls, rng):
        corpus = rng.normal(size=(20, 3))
        batch = cls(corpus).query_batch(np.empty((0, 3)), k=2)
        assert len(batch) == 0
        assert batch.stats.points_scanned == 0

    def test_rejects_1d_queries(self, cls, rng):
        corpus = rng.normal(size=(20, 4))
        with pytest.raises(ValueError, match="2-d"):
            cls(corpus).query_batch(np.zeros(4), k=1)

    def test_rejects_wrong_width(self, cls, rng):
        corpus = rng.normal(size=(20, 4))
        with pytest.raises(ValueError, match="2-d"):
            cls(corpus).query_batch(np.zeros((3, 5)), k=1)

    def test_rejects_nan_queries(self, cls, rng):
        corpus = rng.normal(size=(20, 4))
        with pytest.raises(ValueError, match="finite"):
            cls(corpus).query_batch(np.full((2, 4), np.nan), k=1)


class TestVectorizedEdgeCases:
    """Corner cases aimed at the Gram-expansion brute-force path."""

    @pytest.mark.parametrize("cls", [BruteForceIndex, VAFileIndex])
    def test_huge_magnitudes(self, cls, rng):
        corpus = rng.normal(size=(50, 3)) * 1e18
        index = cls(corpus)
        queries = rng.normal(size=(6, 3)) * 1e18
        assert_batch_matches_sequential(index, queries, k=4)

    @pytest.mark.parametrize("cls", [BruteForceIndex, VAFileIndex])
    def test_tiny_magnitudes(self, cls, rng):
        corpus = rng.normal(size=(50, 3)) * 1e-18
        index = cls(corpus)
        queries = rng.normal(size=(6, 3)) * 1e-18
        assert_batch_matches_sequential(index, queries, k=4)

    def test_near_tie_distances(self, rng):
        # Points at almost-equal distances: the candidate margin must be
        # wide enough that the exact re-ranking sees all contenders.
        center = rng.normal(size=8)
        directions = rng.normal(size=(100, 8))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = 1.0 + rng.uniform(-1e-9, 1e-9, size=(100, 1))
        corpus = center + radii * directions
        index = BruteForceIndex(corpus)
        assert_batch_matches_sequential(index, center[np.newaxis, :], k=10)

    def test_batch_larger_than_block(self, rng):
        # More query rows than one block holds, exercising the chunk loop.
        corpus = rng.normal(size=(500, 4))
        index = BruteForceIndex(corpus)
        queries = rng.normal(size=(300, 4))
        batch = index.query_batch(queries, k=2)
        assert len(batch) == 300
        sample = [0, 150, 299]
        for i in sample:
            expected = index.query(queries[i], k=2)
            assert tuple(batch[i].indices.tolist()) == tuple(
                expected.indices.tolist()
            )


class TestBatchKnnResult:
    def test_sequence_protocol(self, rng):
        corpus = rng.normal(size=(30, 3))
        index = BruteForceIndex(corpus)
        batch = index.query_batch(corpus[:5], k=2)
        assert len(batch) == 5
        assert [r.neighbors[0].index for r in batch] == [0, 1, 2, 3, 4]
        assert batch[3].neighbors[0].index == 3

    def test_matrix_views(self, rng):
        corpus = rng.normal(size=(30, 3))
        index = BruteForceIndex(corpus)
        batch = index.query_batch(corpus[:5], k=2)
        assert batch.indices.shape == (5, 2)
        assert batch.distances.shape == (5, 2)
        assert batch.indices.tolist()[0][0] == 0
        assert batch.distances[0, 0] == 0.0

    def test_aggregated_stats_sum(self, rng):
        corpus = rng.normal(size=(30, 3))
        index = BruteForceIndex(corpus)
        batch = index.query_batch(corpus[:5], k=2)
        assert batch.stats.points_scanned == 5 * 30

    def test_combine_stats_empty(self):
        total = combine_stats([])
        assert total == QueryStats()


class TestRefineKernels:
    """The fused gemm kernel must agree with the gather kernel bit for bit.

    ``refine_masked_candidates`` is the shared exact-refinement core for
    every masked index path; the two kernels differ only in how they
    traverse memory, so their outputs — indices, squared distances,
    candidate counts — must be indistinguishable on any mask, including
    empty rows, ties, duplicates, and rows narrower than ``k``.
    """

    def assert_kernels_agree(self, corpus, rows, mask, k):
        from repro.search.batch import refine_masked_candidates

        gather = refine_masked_candidates(corpus, rows, mask, k)
        gemm = refine_masked_candidates(corpus, rows, mask, k, kernel="gemm")
        for got, expected in zip(gemm, gather):
            assert np.array_equal(got, expected)
        # Bit-identical, not almost-equal: the padded distances are
        # +inf in both, the real ones must match exactly.
        assert gemm[1].tolist() == gather[1].tolist()

    def test_random_masks(self, rng):
        for trial in range(10):
            n, d = int(rng.integers(20, 300)), int(rng.integers(2, 12))
            corpus = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0)
            rows = rng.normal(size=(int(rng.integers(1, 40)), d))
            mask = rng.random((rows.shape[0], n)) < rng.uniform(0.01, 0.9)
            self.assert_kernels_agree(corpus, rows, mask, int(rng.integers(1, 8)))

    def test_tie_heavy_corpus(self, rng):
        base = rng.normal(size=(40, 3))
        corpus = np.vstack([base, base, base])  # every point thrice
        rows = base[:9]
        mask = np.ones((9, corpus.shape[0]), dtype=bool)
        self.assert_kernels_agree(corpus, rows, mask, 7)

    def test_rows_with_no_candidates(self, rng):
        corpus = rng.normal(size=(60, 4))
        rows = rng.normal(size=(5, 4))
        mask = np.zeros((5, 60), dtype=bool)
        mask[2, [4, 9]] = True  # one sparse row, the rest empty
        self.assert_kernels_agree(corpus, rows, mask, 5)

    def test_fewer_candidates_than_k(self, rng):
        corpus = rng.normal(size=(30, 5))
        rows = rng.normal(size=(4, 5))
        mask = np.zeros((4, 30), dtype=bool)
        mask[:, :3] = True  # 3 candidates, k=6
        self.assert_kernels_agree(corpus, rows, mask, 6)

    def test_block_boundaries(self, rng):
        # More rows than one 32-row tile and more union columns than one
        # 512-column tile, so both tiling loops run multiple iterations.
        corpus = rng.normal(size=(1200, 4))
        rows = rng.normal(size=(70, 4))
        mask = rng.random((70, 1200)) < 0.8
        self.assert_kernels_agree(corpus, rows, mask, 5)

    def test_rejects_unknown_kernel(self, rng):
        from repro.search.batch import refine_masked_candidates

        corpus = rng.normal(size=(10, 2))
        rows = rng.normal(size=(2, 2))
        mask = np.ones((2, 10), dtype=bool)
        with pytest.raises(ValueError, match="refine_kernel"):
            refine_masked_candidates(corpus, rows, mask, 2, kernel="simd")


class TestKernelChoiceAtIndexLevel:
    """Flipping an index's refine_kernel knob must not change any bit."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda pts: VAFileIndex(pts, bits_per_dim=3),
            lambda pts: LshIndex(pts, bucket_width=3.0, seed=0, n_probes=4),
        ],
        ids=["vafile", "lsh"],
    )
    def test_gather_and_gemm_agree(self, build, rng):
        corpus = rng.normal(size=(300, 6))
        corpus[50] = corpus[7]  # exact duplicate: tie across kernels
        a, b = build(corpus), build(corpus)
        a.refine_kernel = "gather"
        b.refine_kernel = "gemm"
        queries = np.vstack([rng.normal(size=(15, 6)), corpus[:5]])
        ra = a.query_batch(queries, k=4)
        rb = b.query_batch(queries, k=4)
        for got, expected in zip(rb, ra):
            assert np.array_equal(got.indices, expected.indices)
            assert got.distances.tolist() == expected.distances.tolist()
            assert got.stats == expected.stats

    def test_projscreen_kernels_agree(self, rng):
        from repro.search.projected import ProjectionScreenedIndex

        latent = rng.normal(size=(250, 3))
        corpus = latent @ rng.normal(size=(3, 10)) + 0.01 * rng.normal(
            size=(250, 10)
        )
        a = ProjectionScreenedIndex(corpus, refine_kernel="gather")
        b = ProjectionScreenedIndex(corpus, refine_kernel="gemm")
        queries = rng.normal(size=(12, 10))
        ra = a.query_batch(queries, k=5)
        rb = b.query_batch(queries, k=5)
        for got, expected in zip(rb, ra):
            assert np.array_equal(got.indices, expected.indices)
            assert got.distances.tolist() == expected.distances.tolist()
            assert got.stats == expected.stats
