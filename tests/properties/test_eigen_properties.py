"""Property-based tests for the eigensolvers and PCA machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.covariance import covariance_matrix, studentize
from repro.linalg.eigen import eigh_jacobi, eigh_numpy

# Tiny magnitudes are flushed to zero: columns that are "constant up to
# one ulp of a denormal" make variance computations bounce between zero
# and float noise, which is an arithmetic artifact, not a solver bug.
_ENTRY = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
).map(lambda v: 0.0 if abs(v) < 1e-6 else v)


@st.composite
def symmetric_matrices(draw, max_d=8):
    d = draw(st.integers(1, max_d))
    a = draw(arrays(np.float64, (d, d), elements=_ENTRY))
    return (a + a.T) / 2.0


@st.composite
def data_matrices(draw, max_n=20, max_d=6):
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, max_d))
    return draw(arrays(np.float64, (n, d), elements=_ENTRY))


class TestEigenProperties:
    @given(symmetric_matrices())
    @settings(max_examples=100, deadline=None)
    def test_jacobi_satisfies_eigen_equation(self, matrix):
        result = eigh_jacobi(matrix)
        scale = max(1.0, float(np.max(np.abs(matrix))))
        for i in range(matrix.shape[0]):
            v = result.eigenvectors[:, i]
            residual = matrix @ v - result.eigenvalues[i] * v
            assert np.max(np.abs(residual)) < 1e-8 * scale

    @given(symmetric_matrices())
    @settings(max_examples=100, deadline=None)
    def test_jacobi_orthonormality(self, matrix):
        result = eigh_jacobi(matrix)
        d = matrix.shape[0]
        gram = result.eigenvectors.T @ result.eigenvectors
        assert np.max(np.abs(gram - np.eye(d))) < 1e-9

    @given(symmetric_matrices())
    @settings(max_examples=100, deadline=None)
    def test_solvers_agree_on_spectrum(self, matrix):
        scale = max(1.0, float(np.max(np.abs(matrix))))
        ours = eigh_jacobi(matrix).eigenvalues
        reference = eigh_numpy(matrix).eigenvalues
        assert np.max(np.abs(ours - reference)) < 1e-8 * scale

    @given(symmetric_matrices())
    @settings(max_examples=100, deadline=None)
    def test_trace_preserved(self, matrix):
        result = eigh_jacobi(matrix)
        scale = max(1.0, float(np.max(np.abs(matrix))))
        assert abs(result.total_variance - np.trace(matrix)) < 1e-9 * scale * matrix.shape[0]


class TestCovarianceProperties:
    @given(data_matrices())
    @settings(max_examples=100, deadline=None)
    def test_covariance_positive_semidefinite(self, data):
        cov = covariance_matrix(data)
        eigenvalues = np.linalg.eigvalsh(cov)
        scale = max(1.0, float(np.max(np.abs(cov))))
        assert np.min(eigenvalues) > -1e-9 * scale

    @given(data_matrices())
    @settings(max_examples=100, deadline=None)
    def test_trace_is_mean_squared_deviation(self, data):
        cov = covariance_matrix(data)
        centered = data - data.mean(axis=0)
        msd = float(np.mean(np.sum(np.square(centered), axis=1)))
        assert abs(np.trace(cov) - msd) < 1e-9 * max(1.0, msd)

    @given(data_matrices())
    @settings(max_examples=100, deadline=None)
    def test_studentize_idempotent_or_rejects(self, data):
        # Constant means "all values equal": a constant column's std can be
        # float noise rather than zero when its mean rounds.
        if np.all(np.ptp(data, axis=0) == 0.0):
            with pytest.raises(ValueError, match="constant"):
                studentize(data)
            return
        once = studentize(data)
        twice = studentize(once.features)
        assert np.allclose(once.features, twice.features, atol=1e-9)
