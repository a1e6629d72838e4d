"""End-to-end similarity search with coherence-aware reduction.

The paper's closing argument is operational: aggressive, coherence-guided
reduction makes high-dimensional similarity search both *better* (more
meaningful neighbors) and *indexable* (low enough dimensionality for
partition pruning to work).  :class:`SimilaritySearchPipeline` is that
argument as an API — fit a reducer on a corpus, build an index in the
reduced space, answer queries given in the *original* space.
"""

from __future__ import annotations

import numpy as np

from repro.core.reducer import CoherenceReducer
from repro.search.registry import EXACT_KINDS, build_index
from repro.search.results import BatchKnnResult, KnnResult


class SimilaritySearchPipeline:
    """Reduce, index, and query a high-dimensional corpus.

    Args:
        reducer: a (possibly unfitted) :class:`CoherenceReducer`; a
            default coherence-ordered, scaled reducer is created when
            omitted.
        index_type: any exact kind from the registry
            (:data:`repro.search.EXACT_KINDS`) — approximate (LSH) and
            non-Euclidean (IGrid) structures have different result
            semantics and are used directly rather than through the
            pipeline.

    Example::

        pipeline = SimilaritySearchPipeline(
            reducer=CoherenceReducer(n_components=8, scale=True),
            index_type="rtree",
        )
        pipeline.fit(corpus)
        result = pipeline.query(some_original_space_vector, k=3)
    """

    def __init__(
        self,
        reducer: CoherenceReducer | None = None,
        index_type: str = "kdtree",
    ) -> None:
        if index_type not in EXACT_KINDS:
            raise ValueError(
                f"unknown index_type {index_type!r}; choose from "
                f"{sorted(EXACT_KINDS)}"
            )
        self.reducer = reducer if reducer is not None else CoherenceReducer(
            ordering="coherence", scale=True
        )
        self.index_type = index_type
        self._index = None
        self._reduced_corpus: np.ndarray | None = None

    def fit(self, corpus) -> "SimilaritySearchPipeline":
        """Fit the reducer on the corpus and index its reduced image."""
        self._reduced_corpus = self.reducer.fit_transform(corpus)
        self._index = build_index(self.index_type, self._reduced_corpus)
        return self

    def _require_fitted(self) -> None:
        if self._index is None:
            raise RuntimeError("pipeline is not fitted; call fit() first")

    @property
    def reduced_dimensionality(self) -> int:
        self._require_fitted()
        return self._reduced_corpus.shape[1]

    def query(self, query, k: int = 1) -> KnnResult:
        """k-NN of a single original-space query in the reduced space.

        Neighbor indices refer to rows of the fitted corpus.  ``query``
        must be one-dimensional; a batch of queries belongs in
        :meth:`query_batch` (silently accepting a 2-d array here and
        answering for its first row hid real caller bugs).
        """
        self._require_fitted()
        vector = np.asarray(query, dtype=np.float64)
        if vector.ndim != 1:
            raise ValueError(
                f"query must be 1-d, got shape {vector.shape}; "
                f"use query_batch() for multiple queries"
            )
        reduced = self.reducer.transform(vector[np.newaxis, :])[0]
        return self._index.query(reduced, k=k)

    def query_batch(self, queries, k: int = 1) -> BatchKnnResult:
        """k-NN for each row of ``queries`` via the index's batch engine.

        Returns a :class:`BatchKnnResult` — iterable of per-query
        :class:`KnnResult` objects (so existing ``for result in …`` code
        keeps working) with aggregated :class:`QueryStats` on top.
        """
        self._require_fitted()
        array = np.asarray(queries, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError(
                f"queries must be 2-d (one query per row), got shape "
                f"{array.shape}"
            )
        reduced = self.reducer.transform(array)
        return self._index.query_batch(reduced, k=k)
