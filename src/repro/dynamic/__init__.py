"""Dynamic-database support.

The paper positions itself against Ravi Kanth, Agrawal & Singh (SIGMOD
1998), "Dimensionality Reduction for Similarity Search in Dynamic
Databases": a production similarity index cannot refit PCA from scratch
on every insert.  This package provides the machinery that scenario
needs —

* :class:`IncrementalMoments` — exact streaming mean/covariance
  (Welford/Chan parallel updates), insert one row or a batch;
* :class:`IncrementalPCA` — an updatable PCA view over those moments,
  re-diagonalizing lazily;
* :class:`DriftMonitor` — detects when the incoming distribution has
  rotated away from the fitted subspace enough that the retained basis
  (and its coherence ranking) should be recomputed;
* :class:`DynamicReducer` — glues the three behind the familiar
  fit/transform interface with an automatic refit policy.
"""

from repro.dynamic.moments import IncrementalMoments
from repro.dynamic.incremental_pca import IncrementalPCA
from repro.dynamic.drift import DriftMonitor
from repro.dynamic.reducer import DynamicReducer

__all__ = [
    "DriftMonitor",
    "DynamicReducer",
    "IncrementalMoments",
    "IncrementalPCA",
]
