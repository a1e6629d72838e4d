"""Tests for repro.linalg.covariance."""

import numpy as np
import pytest

from repro.linalg.covariance import (
    center_columns,
    correlation_matrix,
    covariance_matrix,
    studentize,
)


class TestCenterColumns:
    def test_centered_has_zero_means(self, rng):
        data = rng.normal(loc=5.0, size=(50, 4))
        centered, means = center_columns(data)
        assert np.allclose(centered.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(means, data.mean(axis=0))

    def test_roundtrip(self, rng):
        data = rng.normal(size=(10, 3))
        centered, means = center_columns(data)
        assert np.allclose(centered + means, data)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-d"):
            center_columns([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            center_columns([[1.0, float("nan")]])


class TestStudentize:
    def test_unit_variance(self, rng):
        data = rng.normal(size=(100, 5)) * np.array([1, 10, 100, 0.1, 3])
        result = studentize(data)
        assert np.allclose(result.features.std(axis=0), 1.0)
        assert np.allclose(result.features.mean(axis=0), 0.0, atol=1e-12)

    def test_drops_constant_columns(self, rng):
        data = rng.normal(size=(30, 3))
        data[:, 1] = 7.0
        result = studentize(data)
        assert result.features.shape == (30, 2)
        assert list(result.kept_columns) == [0, 2]

    def test_drops_constant_column_whose_std_is_rounding_noise(self):
        data = np.array([[0.0, 86.1], [0.0, 86.1], [1.0, 86.1]])
        assert data[:, 1].std() > 0.0  # the mean of three 86.1s rounds
        result = studentize(data)
        assert list(result.kept_columns) == [0]
        assert np.all(np.isfinite(result.apply([[0.0, 90.0]])))

    def test_all_constant_raises(self):
        with pytest.raises(ValueError, match="constant"):
            studentize(np.ones((10, 3)))

    def test_idempotent(self, rng):
        data = rng.normal(size=(40, 4)) * 100
        once = studentize(data).features
        twice = studentize(once).features
        assert np.allclose(once, twice, atol=1e-12)

    def test_apply_reproduces_training_transform(self, rng):
        data = rng.normal(loc=3.0, size=(25, 4)) * 5
        result = studentize(data)
        assert np.allclose(result.apply(data), result.features)

    def test_apply_single_row(self, rng):
        data = rng.normal(size=(25, 4))
        result = studentize(data)
        row = result.apply(data[3])
        assert row.shape == (1, 4)
        assert np.allclose(row[0], result.features[3])

    def test_apply_rejects_wrong_width(self, rng):
        result = studentize(rng.normal(size=(25, 4)))
        with pytest.raises(ValueError, match="columns"):
            result.apply(np.zeros((2, 3)))

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="rows"):
            studentize(np.ones((1, 3)))

    def test_scale_invariance_of_output(self, rng):
        # Studentizing X and studentizing 1000*X give the same features.
        data = rng.normal(size=(60, 3))
        a = studentize(data).features
        b = studentize(data * 1000.0).features
        assert np.allclose(a, b, atol=1e-10)


class TestCovarianceMatrix:
    def test_known_two_dim(self):
        data = np.array([[0.0, 0.0], [2.0, 2.0]])
        cov = covariance_matrix(data)
        assert np.allclose(cov, [[1.0, 1.0], [1.0, 1.0]])

    def test_symmetry(self, rng):
        cov = covariance_matrix(rng.normal(size=(80, 6)))
        assert np.array_equal(cov, cov.T)

    def test_positive_semidefinite(self, rng):
        cov = covariance_matrix(rng.normal(size=(40, 8)))
        eigenvalues = np.linalg.eigvalsh(cov)
        assert np.all(eigenvalues > -1e-10)

    def test_trace_equals_mean_square_deviation(self, rng):
        # The paper's identity: trace(C) = mean squared distance from the
        # centroid (rotation-invariant).
        data = rng.normal(size=(70, 5))
        cov = covariance_matrix(data)
        centered = data - data.mean(axis=0)
        msd = np.mean(np.sum(np.square(centered), axis=1))
        assert np.trace(cov) == pytest.approx(msd)

    def test_trace_invariant_under_rotation(self, rng):
        data = rng.normal(size=(50, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        before = np.trace(covariance_matrix(data))
        after = np.trace(covariance_matrix(data @ q))
        assert before == pytest.approx(after)

    def test_ddof_one(self):
        data = np.array([[0.0], [2.0]])
        assert covariance_matrix(data, ddof=1)[0, 0] == pytest.approx(2.0)

    def test_matches_numpy_cov(self, rng):
        data = rng.normal(size=(30, 3))
        ours = covariance_matrix(data, ddof=1)
        theirs = np.cov(data, rowvar=False)
        assert np.allclose(ours, theirs)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            covariance_matrix([[1.0, 2.0]])


class TestCorrelationMatrix:
    def test_unit_diagonal(self, rng):
        corr = correlation_matrix(rng.normal(size=(60, 4)) * [1, 5, 50, 500])
        assert np.allclose(np.diag(corr), 1.0)

    def test_entries_in_range(self, rng):
        corr = correlation_matrix(rng.normal(size=(60, 4)))
        assert np.all(corr <= 1.0 + 1e-12)
        assert np.all(corr >= -1.0 - 1e-12)

    def test_perfectly_correlated_columns(self, rng):
        base = rng.normal(size=50)
        data = np.column_stack([base, 3.0 * base + 1.0])
        corr = correlation_matrix(data)
        assert corr[0, 1] == pytest.approx(1.0)

    def test_scale_invariance(self, rng):
        data = rng.normal(size=(50, 3))
        scaled = data * np.array([1.0, 100.0, 0.01])
        assert np.allclose(
            correlation_matrix(data), correlation_matrix(scaled), atol=1e-10
        )

    def test_drops_constant_columns(self, rng):
        data = rng.normal(size=(50, 3))
        data[:, 1] = 2.0
        corr = correlation_matrix(data)
        assert corr.shape == (2, 2)
