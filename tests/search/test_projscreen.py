"""Projection-screened exact search: bit-identity is the contract.

The index may prune however it likes in the reduced space, but every
answer — neighbor indices, distance bytes, lower-index tie-breaks —
must match :class:`BruteForceIndex` exactly, on every corpus, at every
``k``, standalone and after a snapshot round-trip.  The tests here also
pin the stats contract (reduced rows vs refined rows, no double-count
across batch blocks) and the validation surface (oblique projections,
bad orderings, out-of-range subspace dimensions).
"""

import numpy as np
import pytest

from repro.search.bruteforce import BruteForceIndex
from repro.search.projected import (
    ProjectionScreenedIndex,
    ProjectionSpec,
    default_subspace_dim,
    fit_projection,
)
from repro.search.recall import ExactnessViolation, recall_against_exact


def adversarial_corpora(rng):
    """Corpora where a sloppy screen diverges first."""
    base = rng.normal(size=(30, 6))
    correlated = rng.normal(size=(80, 3)) @ rng.normal(size=(3, 12))
    correlated += 0.05 * rng.normal(size=(80, 12))
    return {
        "random": rng.normal(size=(70, 8)),
        "correlated": correlated,
        "duplicates": np.concatenate([base, base[:15]]),
        "axis_ties": np.repeat(rng.normal(size=(12, 5)), 4, axis=0),
        "single_point": rng.normal(size=(1, 3)),
        "d1": rng.normal(size=(40, 1)),
        "zero_variance": np.ones((25, 4)),
        "huge_scale": rng.normal(size=(50, 6)) * 1e8,
    }


def assert_bit_identical(index, reference, queries, k):
    got = index.query_batch(queries, k=k)
    expected = reference.query_batch(queries, k=k)
    assert np.array_equal(got.indices, expected.indices)
    assert got.distances.tobytes() == expected.distances.tobytes()
    # The single-query path shares the block core; spot-check it.
    one = index.query(queries[0], k=k)
    ref_one = reference.query(queries[0], k=k)
    assert np.array_equal(one.indices, ref_one.indices)
    assert one.distances.tobytes() == ref_one.distances.tobytes()


class TestBitIdentity:
    @pytest.mark.parametrize("ordering", ["eigen", "coherence"])
    def test_matches_bruteforce_everywhere(self, ordering, rng):
        for name, corpus in adversarial_corpora(rng).items():
            n, d = corpus.shape
            index = ProjectionScreenedIndex(corpus, ordering=ordering)
            reference = BruteForceIndex(corpus)
            queries = np.concatenate(
                [corpus[:3], rng.normal(size=(5, d)) * corpus.std()]
            )
            for k in {1, min(3, n), n}:
                assert_bit_identical(index, reference, queries, k)

    def test_tie_break_by_lower_index(self):
        index = ProjectionScreenedIndex([[1.0, 0.0]] * 4, subspace_dim=1)
        assert list(index.query([0.0, 0.0], k=3).indices) == [0, 1, 2]

    def test_every_subspace_dim_is_exact(self, rng):
        corpus = rng.normal(size=(60, 5))
        reference = BruteForceIndex(corpus)
        queries = rng.normal(size=(7, 5))
        for m in range(1, 6):
            index = ProjectionScreenedIndex(corpus, subspace_dim=m)
            assert index.subspace_dim == m
            assert_bit_identical(index, reference, queries, 4)

    def test_recall_contract_is_exact(self, rng):
        corpus = rng.normal(size=(50, 8))
        index = ProjectionScreenedIndex(corpus, subspace_dim=2)
        assert index.recall_against_exact(rng.normal(size=(10, 8)), k=5) == 1.0


class TestStatsAccounting:
    def test_reduced_vs_refined_split(self, rng):
        corpus = rng.normal(size=(80, 3)) @ rng.normal(size=(3, 12))
        index = ProjectionScreenedIndex(corpus, subspace_dim=3)
        result = index.query(corpus[0], k=3)
        stats = result.stats
        assert stats.reduced_rows_scanned == 80
        assert 3 <= stats.points_scanned <= 80
        assert stats.nodes_pruned == 80 - stats.points_scanned
        # pruning_fraction audits refinements, not reduced scans.
        assert stats.pruning_fraction(80) == 1.0 - stats.points_scanned / 80

    def test_no_double_count_across_batch_blocks(self, rng):
        corpus = rng.normal(size=(60, 3)) @ rng.normal(size=(3, 9))
        queries = rng.normal(size=(17, 9))
        whole = ProjectionScreenedIndex(corpus, subspace_dim=2)
        split = ProjectionScreenedIndex(
            corpus, projection=whole.projection
        )
        # Force many tiny blocks: the per-query stats (and answers) must
        # not change with the block split.
        split._block_entries = corpus.shape[0] * 2
        got = split.query_batch(queries, k=4)
        expected = whole.query_batch(queries, k=4)
        assert np.array_equal(got.indices, expected.indices)
        assert got.distances.tobytes() == expected.distances.tobytes()
        assert got.stats == expected.stats
        for a, b in zip(got, expected):
            assert a.stats == b.stats
        # Batch totals stay within the audit bound per query.
        assert got.stats.reduced_rows_scanned == 17 * 60
        assert got.stats.points_scanned <= 17 * 60
        got.stats.pruning_fraction(17 * 60)  # must not raise

    def test_stats_identical_across_batching(self, rng):
        # The serving layer compares per-query stats bit-for-bit between
        # the closed loop (one query() per call) and coalesced batches,
        # so the refine counters must be a pure function of each query —
        # stage 1 scores in fixed-shape chunks precisely so that BLAS
        # rounding cannot flip a borderline row with the batch shape.
        corpus = rng.normal(size=(300, 3)) @ rng.normal(size=(3, 10))
        index = ProjectionScreenedIndex(corpus, subspace_dim=3)
        queries = rng.normal(size=(50, 10))
        batch = index.query_batch(queries, k=5).results
        for row, expected in zip(queries, batch):
            got = index.query(row, k=5)
            assert got.stats == expected.stats
            assert got.indices.tolist() == expected.indices.tolist()
            assert got.distances.tobytes() == expected.distances.tobytes()

    def test_correlated_corpus_prunes_most_rows(self, rng):
        # The headline property: on correlated data at m = d/4 the
        # screen discards well over half the full-width refinements.
        corpus = rng.normal(size=(400, 4)) @ rng.normal(size=(4, 16))
        corpus += 0.05 * rng.normal(size=(400, 16))
        index = ProjectionScreenedIndex(corpus, subspace_dim=4)
        stats = index.query_batch(rng.normal(size=(20, 16)), k=3).stats
        assert stats.points_scanned / (20 * 400) < 0.5


class TestFitProjection:
    def test_default_dim_is_quarter(self):
        assert default_subspace_dim(16) == 4
        assert default_subspace_dim(3) == 1
        assert default_subspace_dim(1) == 1

    @pytest.mark.parametrize("ordering", ["eigen", "coherence"])
    def test_columns_are_orthonormal(self, ordering, rng):
        corpus = rng.normal(size=(50, 3)) @ rng.normal(size=(3, 10))
        spec = fit_projection(corpus, subspace_dim=4, ordering=ordering)
        assert spec.matrix.shape == (10, 4)
        assert spec.ordering == ordering
        assert np.allclose(
            spec.matrix.T @ spec.matrix, np.eye(4), atol=1e-10
        )

    def test_single_point_falls_back_to_axes(self):
        spec = fit_projection(np.array([[2.0, 3.0, 4.0]]), subspace_dim=2)
        assert np.array_equal(spec.matrix, np.eye(3)[:, :2])

    def test_orderings_can_differ(self, rng):
        # Not asserted equal: the coherence rule is allowed to pick a
        # different subspace than the eigenvalue rule; both must be
        # sound, which TestBitIdentity already establishes.
        corpus = rng.normal(size=(60, 3)) @ rng.normal(size=(3, 8))
        eigen = fit_projection(corpus, subspace_dim=2, ordering="eigen")
        coherent = fit_projection(
            corpus, subspace_dim=2, ordering="coherence"
        )
        assert eigen.matrix.shape == coherent.matrix.shape

    def test_rejects_bad_ordering(self, rng):
        with pytest.raises(ValueError, match="ordering"):
            fit_projection(rng.normal(size=(10, 4)), ordering="random")

    def test_rejects_out_of_range_dim(self, rng):
        with pytest.raises(ValueError, match="subspace_dim"):
            fit_projection(rng.normal(size=(10, 4)), subspace_dim=5)
        with pytest.raises(ValueError, match="subspace_dim"):
            fit_projection(rng.normal(size=(10, 4)), subspace_dim=0)


class TestValidation:
    def test_rejects_oblique_projection(self, rng):
        corpus = rng.normal(size=(20, 4))
        oblique = ProjectionSpec(
            center=np.zeros(4),
            matrix=rng.normal(size=(4, 2)),  # not orthonormal
            ordering="eigen",
        )
        with pytest.raises(ValueError, match="orthonormal"):
            ProjectionScreenedIndex(corpus, projection=oblique)

    def test_rejects_wrong_projection_shape(self, rng):
        corpus = rng.normal(size=(20, 4))
        wrong = ProjectionSpec(
            center=np.zeros(3),
            matrix=np.eye(3)[:, :2],
            ordering="eigen",
        )
        with pytest.raises(ValueError, match="projection matrix"):
            ProjectionScreenedIndex(corpus, projection=wrong)

    def test_rejects_bad_constructor_args(self, rng):
        corpus = rng.normal(size=(20, 4))
        with pytest.raises(ValueError, match="subspace_dim"):
            ProjectionScreenedIndex(corpus, subspace_dim=9)
        with pytest.raises(ValueError, match="ordering"):
            ProjectionScreenedIndex(corpus, ordering="alphabetical")

    def test_rejects_bad_queries(self, rng):
        index = ProjectionScreenedIndex(rng.normal(size=(20, 4)))
        with pytest.raises(ValueError, match="k must"):
            index.query(np.zeros(4), k=0)
        with pytest.raises(ValueError, match="query"):
            index.query(np.zeros(3), k=1)
        with pytest.raises(ValueError, match="finite"):
            index.query(np.full(4, np.nan), k=1)

    def test_properties(self, rng):
        corpus = rng.normal(size=(30, 8))
        index = ProjectionScreenedIndex(
            corpus, subspace_dim=3, ordering="coherence"
        )
        assert index.n_points == 30
        assert index.dimensionality == 8
        assert index.subspace_dim == 3
        assert index.ordering == "coherence"
        assert index.projection.matrix.shape == (8, 3)


class TestSharedRecall:
    def test_exact_flag_raises_on_shortfall(self, rng):
        corpus = rng.normal(size=(40, 5))

        class LyingIndex(BruteForceIndex):
            def query_batch(self, queries, k=1):
                batch = super().query_batch(queries, k=k)
                return batch.__class__(
                    results=(batch.results[-1],) + batch.results[1:],
                    stats=batch.stats,
                )

        liar = LyingIndex(corpus)
        with pytest.raises(ExactnessViolation, match="recall"):
            recall_against_exact(
                liar, rng.normal(size=(6, 5)), k=3, exact=True
            )

    def test_metric_mode_returns_fraction(self, rng):
        corpus = rng.normal(size=(40, 5))
        index = BruteForceIndex(corpus)
        value = recall_against_exact(index, rng.normal(size=(6, 5)), k=3)
        assert value == 1.0
