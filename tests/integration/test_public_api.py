"""Tests of the top-level public API surface."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro

# ``repro`` and every subpackage that declares ``__all__``: a name left
# in an export list after its definition is deleted fails here.
_EXPORTING_PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.iter_modules(repro.__path__, prefix="repro.")
    if info.ispkg
    and hasattr(importlib.import_module(info.name), "__all__")
]


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("package_name", _EXPORTING_PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert getattr(package, name) is not None, (package_name, name)

    def test_readme_quickstart_runs(self):
        # The snippet from the package docstring / README, verbatim.
        from repro import CoherenceReducer, ionosphere_like
        from repro import corrupt_with_uniform, feature_stripping_accuracy

        data = ionosphere_like(seed=7)
        noisy = corrupt_with_uniform(data, n_dims=10, amplitude=60.0, seed=7)

        reducer = CoherenceReducer(n_components=5, ordering="coherence")
        reduced = reducer.fit_transform(noisy.features)
        accuracy = feature_stripping_accuracy(reduced, noisy.labels, k=3)
        assert 0.0 <= accuracy <= 1.0

    def test_end_to_end_pipeline(self):
        data = repro.ionosphere_like(seed=1)
        pipeline = repro.SimilaritySearchPipeline(
            reducer=repro.CoherenceReducer(n_components=6, scale=True),
            index_type="rtree",
        ).fit(data.features)
        result = pipeline.query(data.features[10], k=3)
        assert result.neighbors[0].index == 10
        assert len(result.neighbors) == 3

    def test_diagnosis_then_reduction_workflow(self):
        data = repro.musk_like(seed=2)
        diagnosis = repro.diagnose_reducibility(data.features)
        assert diagnosis.verdict == "reducible"
        reducer = repro.CoherenceReducer(
            n_components=max(1, diagnosis.n_concepts), scale=True
        )
        reduced = reducer.fit_transform(data.features)
        assert reduced.shape[1] == max(1, diagnosis.n_concepts)

    def test_uniform_baseline_exported(self):
        assert repro.UNIFORM_BASELINE_CP == pytest.approx(0.6827, abs=1e-4)

    def test_dataset_roundtrip_through_reduction(self):
        data = repro.latent_concept_dataset(60, 10, 2, seed=0)
        reducer = repro.CoherenceReducer(n_components=2)
        reduced_dataset = data.with_features(
            reducer.fit_transform(data.features), name="reduced"
        )
        assert reduced_dataset.n_dims == 2
        assert np.array_equal(reduced_dataset.labels, data.labels)
