"""Centering, studentizing, and second-moment matrices.

The paper's Section 2.2 argues that principal component analysis is very
sensitive to the relative scaling of the input dimensions, and that a
sensible normalization gives every dimension unit variance — which makes
PCA on the covariance matrix of the scaled data identical to PCA on the
*correlation* matrix of the raw data.  Dimensions with zero variance
carry no information and are discarded during studentization, exactly as
the paper prescribes ("if the initial variance is zero along any
dimension, then that dimension may be discarded").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _validate_matrix(data, min_rows: int = 1) -> np.ndarray:
    array = np.asarray(data, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"expected a 2-d data matrix, got shape {array.shape}")
    if array.shape[0] < min_rows:
        raise ValueError(
            f"need at least {min_rows} rows, got {array.shape[0]}"
        )
    if array.shape[1] == 0:
        raise ValueError("data matrix must have at least one column")
    if not np.all(np.isfinite(array)):
        raise ValueError("data matrix must be finite (no NaN or inf entries)")
    return array


def center_columns(data) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the per-column mean.

    Returns:
        ``(centered, means)`` where ``centered = data - means``.
    """
    array = _validate_matrix(data)
    means = np.mean(array, axis=0)
    return array - means, means


@dataclass(frozen=True)
class StudentizeResult:
    """Outcome of studentizing a data matrix.

    Attributes:
        features: centered data with unit variance per retained column.
        means: per-column means of the *original* matrix (all columns).
        scales: per-column standard deviations of the retained columns.
        kept_columns: indices (into the original matrix) of the columns
            that survived; constant columns are dropped.
    """

    features: np.ndarray
    means: np.ndarray
    scales: np.ndarray
    kept_columns: np.ndarray

    def apply(self, data) -> np.ndarray:
        """Apply the same centering/scaling to new rows."""
        array = np.asarray(data, dtype=np.float64)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        if array.shape[1] != self.means.size:
            raise ValueError(
                f"expected {self.means.size} columns, got {array.shape[1]}"
            )
        centered = array - self.means
        return centered[:, self.kept_columns] / self.scales


def studentize(data, ddof: int = 0) -> StudentizeResult:
    """Center every column and scale it to unit variance.

    Constant columns are dropped (they cannot be scaled and carry no
    information).  Raises if *every* column is constant.
    """
    array = _validate_matrix(data, min_rows=2)
    means = np.mean(array, axis=0)
    stds = np.std(array, axis=0, ddof=ddof)
    # A column whose values are all equal is constant even when its mean
    # rounds (three copies of 86.1 have a std of 1.4e-14); scaling
    # by that noise would map any other value of the column to ~1e14.
    kept = np.flatnonzero((np.ptp(array, axis=0) > 0.0) & (stds > 0.0))
    if kept.size == 0:
        raise ValueError("all columns are constant; nothing to studentize")
    features = (array[:, kept] - means[kept]) / stds[kept]
    return StudentizeResult(
        features=features,
        means=means,
        scales=stds[kept],
        kept_columns=kept,
    )


def covariance_matrix(data, ddof: int = 0) -> np.ndarray:
    """The ``d x d`` covariance matrix of a data matrix (rows = points).

    ``ddof=0`` (population) matches the paper's identity that the trace of
    the covariance matrix equals the mean squared Euclidean deviation of
    the data from its centroid.
    """
    array = _validate_matrix(data, min_rows=2)
    n = array.shape[0]
    if n <= ddof:
        raise ValueError(f"need more than ddof={ddof} rows, got {n}")
    centered = array - np.mean(array, axis=0)
    matrix = centered.T @ centered / (n - ddof)
    # Symmetrize to remove floating-point asymmetry before eigensolving.
    return (matrix + matrix.T) / 2.0


def correlation_matrix(data) -> np.ndarray:
    """Correlation matrix over the non-constant columns of ``data``.

    Equivalent to the covariance matrix of the studentized data; constant
    columns are excluded (their correlation is undefined), consistent
    with :func:`studentize`.
    """
    result = studentize(data)
    return covariance_matrix(result.features)
