"""Tests for repro.core.pipeline.SimilaritySearchPipeline."""

import numpy as np
import pytest

from repro.core.pipeline import SimilaritySearchPipeline
from repro.core.reducer import CoherenceReducer
from repro.search.results import BatchKnnResult


class TestPipeline:
    def test_rejects_unknown_index(self):
        with pytest.raises(ValueError, match="index_type"):
            SimilaritySearchPipeline(index_type="btree")

    def test_query_before_fit_raises(self, small_dataset):
        pipeline = SimilaritySearchPipeline()
        with pytest.raises(RuntimeError, match="not fitted"):
            pipeline.query(small_dataset.features[0])

    def test_reduced_dimensionality(self, small_dataset):
        pipeline = SimilaritySearchPipeline(
            reducer=CoherenceReducer(n_components=5)
        ).fit(small_dataset.features)
        assert pipeline.reduced_dimensionality == 5

    def test_default_reducer_keeps_everything_scaled(self, small_dataset):
        pipeline = SimilaritySearchPipeline().fit(small_dataset.features)
        assert pipeline.reduced_dimensionality == small_dataset.n_dims

    @pytest.mark.parametrize(
        "index_type",
        ["bruteforce", "kdtree", "rtree", "vafile", "pyramid", "idistance"],
    )
    def test_all_index_types_agree(self, small_dataset, index_type):
        reference = SimilaritySearchPipeline(
            reducer=CoherenceReducer(n_components=4), index_type="bruteforce"
        ).fit(small_dataset.features)
        pipeline = SimilaritySearchPipeline(
            reducer=CoherenceReducer(n_components=4), index_type=index_type
        ).fit(small_dataset.features)
        for i in (0, 17, 63):
            expected = reference.query(small_dataset.features[i], k=4)
            actual = pipeline.query(small_dataset.features[i], k=4)
            assert np.array_equal(actual.indices, expected.indices)

    def test_corpus_point_is_its_own_nearest_neighbor(self, small_dataset):
        pipeline = SimilaritySearchPipeline(
            reducer=CoherenceReducer(n_components=4)
        ).fit(small_dataset.features)
        result = pipeline.query(small_dataset.features[7], k=1)
        assert result.neighbors[0].index == 7
        assert result.neighbors[0].distance == pytest.approx(0.0, abs=1e-9)

    def test_query_rejects_2d_input(self, small_dataset):
        # A batch passed to query() used to be silently answered for its
        # first row only; it must be an error pointing at query_batch.
        pipeline = SimilaritySearchPipeline(
            reducer=CoherenceReducer(n_components=3)
        ).fit(small_dataset.features)
        with pytest.raises(ValueError, match="query_batch"):
            pipeline.query(small_dataset.features[:4], k=2)

    def test_query_batch(self, small_dataset):
        pipeline = SimilaritySearchPipeline(
            reducer=CoherenceReducer(n_components=3)
        ).fit(small_dataset.features)
        results = pipeline.query_batch(small_dataset.features[:4], k=2)
        assert len(results) == 4
        for i, result in enumerate(results):
            assert result.neighbors[0].index == i

    def test_query_batch_returns_batch_result(self, small_dataset):
        pipeline = SimilaritySearchPipeline(
            reducer=CoherenceReducer(n_components=3)
        ).fit(small_dataset.features)
        batch = pipeline.query_batch(small_dataset.features[:6], k=2)
        assert isinstance(batch, BatchKnnResult)
        assert batch.indices.shape == (6, 2)
        assert batch.stats.points_scanned > 0

    def test_query_batch_rejects_1d_input(self, small_dataset):
        pipeline = SimilaritySearchPipeline(
            reducer=CoherenceReducer(n_components=3)
        ).fit(small_dataset.features)
        with pytest.raises(ValueError, match="2-d"):
            pipeline.query_batch(small_dataset.features[0], k=2)

    def test_query_batch_matches_query(self, small_dataset):
        pipeline = SimilaritySearchPipeline(
            reducer=CoherenceReducer(n_components=4), index_type="kdtree"
        ).fit(small_dataset.features)
        batch = pipeline.query_batch(small_dataset.features[:8], k=3)
        for i, result in enumerate(batch):
            expected = pipeline.query(small_dataset.features[i], k=3)
            assert np.array_equal(result.indices, expected.indices)
            # Not bit-identical at the pipeline level: the reducer
            # transforms the whole batch in one matmul, whose BLAS
            # blocking can differ from the single-row transform by ulps.
            # (Index-level bit-identity is pinned in test_batch.py.)
            assert np.allclose(
                result.distances, expected.distances, atol=1e-9
            )

    def test_neighbors_sorted_by_distance(self, small_dataset):
        pipeline = SimilaritySearchPipeline(
            reducer=CoherenceReducer(n_components=4)
        ).fit(small_dataset.features)
        distances = pipeline.query(small_dataset.features[0], k=6).distances
        assert np.all(np.diff(distances) >= 0.0)
