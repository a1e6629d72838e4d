"""Recall measurement against the exact linear-scan reference.

Every index in this package answers queries over a corpus it holds as
``_points``; :func:`recall_against_exact` builds a
:class:`~repro.search.bruteforce.BruteForceIndex` over that same corpus
and reports the mean fraction of true k-nearest neighbors the index
retrieved over a query batch.

The function serves two different contracts:

* For the approximate index (LSH), recall is a *metric* — a float in
  ``[0, 1]`` that parameter sweeps tune against scan cost.
* For the exact indexes (brute force, trees, VA-file, iDistance, iGrid,
  and the projection-screened index), recall is a *contract* — anything
  below 1.0 is a correctness bug, not a quality trade-off.  Passing
  ``exact=True`` turns a shortfall into :class:`ExactnessViolation`
  (an ``AssertionError`` subclass, so plain ``assert``-style test
  harnesses and production sanity sweeps both trip on it) instead of
  returning a number a caller might average away.
"""

from __future__ import annotations

import numpy as np


class ExactnessViolation(AssertionError):
    """An index that promises exact answers returned recall below 1.0."""


def recall_against_exact(
    index,
    queries,
    k: int = 3,
    *,
    exact: bool = False,
    reference=None,
) -> float:
    """Mean fraction of true k-NN retrieved by ``index`` over ``queries``.

    Args:
        index: any index from this package (must expose ``_points`` and
            ``query_batch``).
        queries: ``(q, d)`` batch, or a single ``(d,)`` vector.
        k: neighbors per query.
        exact: when True, a recall below 1.0 raises
            :class:`ExactnessViolation` naming the worst query instead of
            returning — exactness is a contract, not a metric.
        reference: optional prebuilt exact index over the same corpus.
            Parameter sweeps (probes x tables x recall) audit many
            configurations against one ground truth; rebuilding the
            brute-force reference per configuration would dominate the
            sweep, so callers may build it once and pass it in.

    Returns:
        Mean recall in ``[0, 1]`` (always 1.0 when ``exact=True``
        returns at all).
    """
    from repro.search.bruteforce import BruteForceIndex

    if reference is None:
        reference = BruteForceIndex(index._points)
    batch = np.asarray(queries, dtype=np.float64)
    if batch.ndim == 1:
        batch = batch.reshape(1, -1)
    truth_batch = reference.query_batch(batch, k=k)
    mine_batch = index.query_batch(batch, k=k)
    recalls = [
        len(set(truth.indices.tolist()) & set(mine.indices.tolist())) / k
        for truth, mine in zip(truth_batch.results, mine_batch.results)
    ]
    mean = float(np.mean(recalls))
    if exact and mean < 1.0:
        worst = int(np.argmin(recalls))
        raise ExactnessViolation(
            f"{type(index).__name__} promises exact answers but reached "
            f"recall {mean:.6f} (worst query row {worst}: "
            f"{recalls[worst]:.6f}) at k={k}"
        )
    return mean
