"""Tests for the shared search result types."""

import gc
import pickle

import numpy as np
import pytest

from repro.search.bruteforce import BruteForceIndex
from repro.search.registry import INDEX_KINDS, build_index
from repro.search.results import (
    BatchKnnResult,
    KnnResult,
    Neighbor,
    QueryStats,
    combine_stats,
    validate_corpus,
    validate_k,
    validate_query,
)


class TestQueryStats:
    def test_pruning_fraction(self):
        stats = QueryStats(points_scanned=25)
        assert stats.pruning_fraction(100) == pytest.approx(0.75)

    def test_full_scan_is_zero(self):
        assert QueryStats(points_scanned=10).pruning_fraction(10) == 0.0

    def test_overcounted_scans_raise(self):
        # Scanning more distinct points than the corpus holds is always
        # an index accounting bug; surfacing it beats a silent 0.0.
        with pytest.raises(ValueError, match="double-counted"):
            QueryStats(points_scanned=15).pruning_fraction(10)

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            QueryStats().pruning_fraction(0)

    def test_reduced_scans_do_not_count_against_pruning(self):
        # A screened index reads every reduced row but refines few full
        # rows; the pruning win is the full-width rows it skipped.
        stats = QueryStats(points_scanned=5, reduced_rows_scanned=100)
        assert stats.pruning_fraction(100) == pytest.approx(0.95)


class TestCombineStats:
    def test_all_counters_are_summed(self):
        total = combine_stats(
            [
                QueryStats(
                    points_scanned=3,
                    nodes_visited=2,
                    nodes_pruned=7,
                    reduced_rows_scanned=50,
                    candidates_generated=9,
                ),
                QueryStats(
                    points_scanned=4,
                    nodes_visited=1,
                    nodes_pruned=6,
                    reduced_rows_scanned=50,
                    candidates_generated=11,
                ),
            ]
        )
        assert total == QueryStats(
            points_scanned=7,
            nodes_visited=3,
            nodes_pruned=13,
            reduced_rows_scanned=100,
            candidates_generated=20,
        )

    def test_empty_is_zero(self):
        assert combine_stats([]) == QueryStats()


class TestKnnResult:
    def test_index_and_distance_arrays(self):
        result = KnnResult(
            neighbors=(Neighbor(3, 1.5), Neighbor(7, 2.5)),
        )
        assert np.array_equal(result.indices, [3, 7])
        assert np.allclose(result.distances, [1.5, 2.5])

    def test_empty(self):
        result = KnnResult(neighbors=())
        assert result.indices.size == 0


def _short_lsh_batch():
    """An LSH batch whose rows hold 1, 1, 1, 0, 0, 0, 0 and 0 neighbors."""
    rng = np.random.default_rng(0)
    corpus = rng.normal(size=(200, 8))
    index = build_index(
        "lsh", corpus, n_tables=1, n_hashes=8, bucket_width=0.5
    )
    queries = np.vstack([corpus[:3], rng.normal(size=(5, 8)) * 5])
    return index.query_batch(queries, k=5)


class TestBatchArrays:
    def test_short_rows_are_padded(self):
        batch = _short_lsh_batch()
        assert [len(r.neighbors) for r in batch] == [1, 1, 1, 0, 0, 0, 0, 0]
        assert batch.indices.shape == (8, 5)
        assert batch.distances.shape == (8, 5)
        for row, result in enumerate(batch):
            found = len(result.neighbors)
            assert batch.indices[row, :found].tolist() == (
                result.indices.tolist()
            )
            assert batch.distances[row, :found].tobytes() == (
                result.distances.tobytes()
            )
            assert (batch.indices[row, found:] == -1).all()
            assert (batch.distances[row, found:] == np.inf).all()

    def test_hand_built_short_rows_are_padded(self):
        batch = BatchKnnResult(
            results=(
                KnnResult(neighbors=(Neighbor(3, 1.5),)),
                KnnResult(neighbors=()),
            )
        )
        assert batch.indices.tolist() == [[3], [-1]]
        assert batch.distances.tolist() == [[1.5], [np.inf]]


def _assert_same_batch(got, want):
    assert got.indices.tolist() == want.indices.tolist()
    assert got.distances.tobytes() == want.distances.tobytes()
    assert [r.stats for r in got] == [r.stats for r in want]
    assert [r.neighbors for r in got] == [r.neighbors for r in want]
    assert got.stats == want.stats


class TestBatchPickling:
    """Answers cross a process pipe; they must arrive bit for bit."""

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_round_trip_is_bit_identical(self, kind, rng):
        corpus = rng.normal(size=(300, 6))
        corpus[7] = corpus[3]  # a distance tie
        index = build_index(kind, corpus)
        queries = np.vstack([corpus[3], rng.normal(size=(6, 6))])
        batch = index.query_batch(queries, k=4)
        _assert_same_batch(pickle.loads(pickle.dumps(batch)), batch)

    def test_short_rows_round_trip(self):
        batch = _short_lsh_batch()
        _assert_same_batch(pickle.loads(pickle.dumps(batch)), batch)

    def test_answer_unpickles_without_row_objects(self, rng):
        # The point-pooled shape: 58 rows of k=10 over 10k x 16.
        index = BruteForceIndex(rng.normal(size=(10_000, 16)))
        batch = index.query_batch(rng.normal(size=(58, 16)), k=10)
        data = pickle.dumps(batch)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            loaded = pickle.loads(data)
            created = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(loaded) == 58
        assert created < 50


class TestValidators:
    def test_validate_corpus_passes_good(self, rng):
        array = validate_corpus(rng.normal(size=(4, 2)))
        assert array.dtype == np.float64

    def test_validate_corpus_rejects_1d(self):
        with pytest.raises(ValueError, match="2-d"):
            validate_corpus([1.0, 2.0])

    def test_validate_query_checks_width(self):
        with pytest.raises(ValueError, match="length 3"):
            validate_query([1.0], 3)

    def test_validate_k_bounds(self):
        assert validate_k(3, 5) == 3
        with pytest.raises(ValueError):
            validate_k(0, 5)
        with pytest.raises(ValueError):
            validate_k(6, 5)
