"""Tests for the brute-force k-NN baseline."""

import numpy as np
import pytest

from repro.search.bruteforce import BruteForceIndex


class TestBruteForceIndex:
    def test_nearest_neighbor_on_line(self):
        index = BruteForceIndex([[0.0], [10.0], [4.0]])
        result = index.query([3.0], k=1)
        assert result.neighbors[0].index == 2
        assert result.neighbors[0].distance == pytest.approx(1.0)

    def test_k_results_sorted(self, random_points):
        index = BruteForceIndex(random_points)
        result = index.query(random_points[0], k=10)
        assert len(result.neighbors) == 10
        assert np.all(np.diff(result.distances) >= 0.0)

    def test_self_query_returns_self_first(self, random_points):
        index = BruteForceIndex(random_points)
        result = index.query(random_points[42], k=1)
        assert result.neighbors[0].index == 42
        assert result.neighbors[0].distance == 0.0

    def test_tie_break_by_lower_index(self):
        index = BruteForceIndex([[1.0], [1.0], [1.0]])
        result = index.query([0.0], k=2)
        assert list(result.indices) == [0, 1]

    def test_scans_everything(self, random_points):
        index = BruteForceIndex(random_points)
        result = index.query(random_points[0], k=3)
        assert result.stats.points_scanned == len(random_points)
        assert result.stats.pruning_fraction(len(random_points)) == 0.0

    def test_k_equals_n(self):
        index = BruteForceIndex([[0.0], [1.0], [2.0]])
        result = index.query([0.0], k=3)
        assert list(result.indices) == [0, 1, 2]

    def test_rejects_k_zero(self, random_points):
        with pytest.raises(ValueError, match="k must"):
            BruteForceIndex(random_points).query(random_points[0], k=0)

    def test_rejects_k_beyond_n(self):
        with pytest.raises(ValueError, match="k must"):
            BruteForceIndex([[0.0]]).query([0.0], k=2)

    def test_rejects_wrong_query_width(self, random_points):
        with pytest.raises(ValueError, match="query"):
            BruteForceIndex(random_points).query(np.zeros(3), k=1)

    def test_rejects_nan_query(self, random_points):
        with pytest.raises(ValueError, match="finite"):
            BruteForceIndex(random_points).query(
                np.full(random_points.shape[1], np.nan), k=1
            )

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="at least one"):
            BruteForceIndex(np.empty((0, 3)))

    def test_properties(self, random_points):
        index = BruteForceIndex(random_points)
        assert index.n_points == random_points.shape[0]
        assert index.dimensionality == random_points.shape[1]


class TestScanDtypeKnob:
    """The float32 scan selects candidates only — never answer bits."""

    def test_float32_overflow_guard_falls_back(self, rng):
        # Magnitudes whose squares pass float32 infinity must never be
        # scored in float32.
        corpus = rng.normal(size=(30, 3)) * 1e20
        index = BruteForceIndex(corpus)
        q_sq = np.einsum("qd,qd->q", corpus[:2], corpus[:2])
        assert not index._scanner.uses_float32(q_sq)
        got = index.query_batch(corpus[:4], k=3)
        for row, result in zip(corpus[:4], got):
            expected = index.query(row, k=3)
            assert np.array_equal(result.indices, expected.indices)
            assert result.distances.tobytes() == expected.distances.tobytes()

    @pytest.mark.parametrize(
        "scan_dtype", [None, "auto", "float32", "float64"]
    )
    def test_old_snapshot_answers_bit_identically(
        self, scan_dtype, rng, tmp_path
    ):
        # Older snapshots may carry a scan_dtype member (or none); it
        # never changed an answer, and loading ignores it.
        from repro.search.snapshot import write_snapshot

        corpus = rng.normal(size=(60, 5))
        corpus[40] = corpus[3]  # an exact tie
        members = {
            "points": corpus,
            "sq_norms": np.einsum("nd,nd->n", corpus, corpus),
        }
        if scan_dtype is not None:
            members["scan_dtype"] = np.bytes_(scan_dtype.encode())
        path = str(tmp_path / "old.npz")
        write_snapshot(path, "bruteforce", members)
        loaded = BruteForceIndex.load(path)
        queries = np.concatenate([corpus[:4], rng.normal(size=(6, 5))])
        got = loaded.query_batch(queries, k=4)
        for row, result in zip(queries, got):
            expected = loaded.query(row, k=4)
            assert np.array_equal(result.indices, expected.indices)
            assert result.distances.tobytes() == expected.distances.tobytes()
