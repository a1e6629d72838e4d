"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets import Dataset, ionosphere_like, latent_concept_dataset


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """A small, fast latent-concept dataset for integration-ish tests."""
    return latent_concept_dataset(
        n_samples=120,
        n_dims=20,
        n_concepts=4,
        n_classes=2,
        clusters_per_class=2,
        class_separation=6.0,
        concept_std=1.0,
        noise_std=1.0,
        seed=42,
        name="small",
    )


@pytest.fixture(scope="session")
def ionosphere() -> Dataset:
    """The ionosphere-like preset (session-cached: generation is cheap but
    the dataset is used by many tests)."""
    return ionosphere_like(seed=0)


@pytest.fixture(scope="session")
def random_points(rng) -> np.ndarray:
    """A generic unlabeled point cloud for index and metric tests."""
    return rng.normal(size=(200, 5))


class BusyLoader:
    """An in-process ``index_loader`` whose first batch waits for :meth:`release`.

    A server with ``n_workers=0`` answers on its batcher thread, one
    batch at a time, so while that first batch waits the backend is busy
    and every later request stays queued in the batcher: the test
    decides when queued work may run.  ``inner`` is the loader being
    wrapped (default: the plain snapshot load).  The wait gives up after
    ``_BUSY_SECONDS``, so a test that fails before releasing still
    closes its server.
    """

    _BUSY_SECONDS = 10.0

    def __init__(self, inner=None) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self._held = False
        self._entered = threading.Event()
        self._released = threading.Event()

    def __call__(self, snapshot_path, mmap_points):
        from repro.search.snapshot import load_index

        if self._inner is not None:
            index = self._inner(snapshot_path, mmap_points)
        else:
            index = load_index(snapshot_path, mmap_points=mmap_points)
        return _BusyIndex(index, self)

    def occupy(self, server):
        """Submit the batch that waits; return its future once it runs.

        Its explicit hour-long deadline keeps a server-wide default
        deadline from failing it.
        """
        future = server.submit(
            np.zeros(server.dimensionality), k=1, deadline_ms=3_600_000
        )
        assert self._entered.wait(self._BUSY_SECONDS), "backend never got busy"
        return future

    def release(self) -> None:
        self._released.set()

    def _hold(self) -> None:
        with self._lock:
            first, self._held = not self._held, True
        if first:
            self._entered.set()
            self._released.wait(self._BUSY_SECONDS)


class _BusyIndex:
    def __init__(self, index, loader: BusyLoader) -> None:
        self._index = index
        self._loader = loader

    n_points = property(lambda self: self._index.n_points)
    dimensionality = property(lambda self: self._index.dimensionality)

    def query_batch(self, queries, k: int = 1):
        self._loader._hold()
        return self._index.query_batch(queries, k=k)


@pytest.fixture
def busy_loader():
    """Factory of :class:`BusyLoader`s, each released at teardown."""
    made: list[BusyLoader] = []

    def make(inner=None) -> BusyLoader:
        made.append(BusyLoader(inner))
        return made[-1]

    yield make
    for loader in made:
        loader.release()
