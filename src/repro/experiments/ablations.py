"""Runners for the ablation experiments.

The paper's tables and figures live in :mod:`repro.experiments.paper`;
these runners cover the ablations DESIGN.md calls out — the design
choices behind the reproduction, the paper's Section 1.1 motivation, and
the sibling papers it cites ([1] fractional metrics, [2] ORCLUS, [3]
IGrid, [17] dynamic databases).  Each returns an
:class:`~repro.experiments.registry.ExperimentResult` with the same
report text the benchmark harness prints.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.random_projection import RandomProjectionReducer
from repro.baselines.svd_reduction import SVDReducer
from repro.clustering.projected import ProjectedClustering, per_cluster_reduction
from repro.core.coherence import UNIFORM_BASELINE_CP, analyze_coherence
from repro.core.reducer import CoherenceReducer
from repro.datasets.corruption import corrupt_with_uniform
from repro.datasets.synthetic import latent_concept_dataset
from repro.datasets.uci_like import _studentized_copy, ionosphere_like
from repro.distances.contrast import relative_contrast, relative_contrast_profile
from repro.dynamic.reducer import DynamicReducer
from repro.evaluation.feature_stripping import feature_stripping_accuracy
from repro.evaluation.reporting import format_table
from repro.evaluation.stability import nearest_neighbor_churn, rank_displacement
from repro.evaluation.sweeps import accuracy_sweep
from repro.experiments import data
from repro.experiments.registry import ExperimentResult
from repro.linalg.covariance import correlation_matrix
from repro.linalg.eigen import eigh_jacobi, eigh_numpy
from repro.linalg.pca import fit_pca
from repro.search.igrid import IGridIndex
from repro.search.kdtree import KdTreeIndex
from repro.search.lsh import LshIndex
from repro.search.rtree import RTreeIndex
from repro.search.vafile import VAFileIndex

_INDEX_FAMILIES = [
    ("kd-tree", KdTreeIndex),
    ("R-tree", RTreeIndex),
    ("VA-file", VAFileIndex),
]


def contrast_experiment(seed: int = 0) -> ExperimentResult:
    """§1.1 — relative contrast collapses with d; reduction restores it."""
    profile = relative_contrast_profile(
        [2, 5, 10, 20, 50, 100, 200], n_points=400, n_queries=15, seed=seed
    )

    dataset = data.dataset("musk", seed)
    rng = np.random.default_rng(seed)
    query_rows = rng.choice(dataset.n_samples, size=15, replace=False)

    def mean_contrast(features):
        values = []
        for row in query_rows:
            corpus = np.delete(features, row, axis=0)
            values.append(
                relative_contrast(corpus, features[row]).relative_contrast
            )
        return float(np.mean(values))

    full = mean_contrast(data.pca("musk", True, seed).transform(dataset.features))
    reducer = CoherenceReducer(n_components=13, ordering="coherence", scale=True)
    reduced = mean_contrast(reducer.fit_transform(dataset.features))

    report = format_table(
        ["dimensionality", "mean relative contrast"],
        profile,
        title="Relative contrast of uniform data vs dimensionality (Beyer et al.)",
    )
    report += (
        f"\n\nmusk-like, mean relative contrast over 15 queries:"
        f"\n  full dimensionality (166): {full:.4f}"
        f"\n  coherence-reduced (13):    {reduced:.4f}"
    )
    return ExperimentResult(
        report=report,
        data={"profile": profile, "musk_full": full, "musk_reduced": reduced},
    )


def _mean_pruning(index_cls, corpus, queries, k=3):
    index = index_cls(corpus)
    fractions = [
        index.query(q, k=k).stats.pruning_fraction(corpus.shape[0])
        for q in queries
    ]
    return float(np.mean(fractions))


def index_pruning_experiment(seed: int = 0) -> ExperimentResult:
    """§1.1 — index pruning vs dimensionality, and its restoration."""
    rng = np.random.default_rng(seed)
    uniform_rows = []
    for d in (2, 8, 32, 128):
        corpus = rng.uniform(size=(2000, d))
        queries = rng.uniform(size=(10, d))
        uniform_rows.append(
            tuple(
                [d]
                + [_mean_pruning(cls, corpus, queries) for _, cls in _INDEX_FAMILIES]
            )
        )

    dataset = data.dataset("musk", seed)
    query_rows = rng.choice(dataset.n_samples, size=10, replace=False)
    full = data.pca("musk", True, seed).transform(dataset.features)
    reduced = CoherenceReducer(
        n_components=13, ordering="coherence", scale=True
    ).fit_transform(dataset.features)
    musk_rows = []
    for label, features in (("full (166d)", full), ("reduced (13d)", reduced)):
        queries = features[query_rows]
        musk_rows.append(
            tuple(
                [label]
                + [_mean_pruning(cls, features, queries) for _, cls in _INDEX_FAMILIES]
            )
        )

    names = [name for name, _ in _INDEX_FAMILIES]
    report = format_table(
        ["dimensionality"] + [f"{n} pruned" for n in names],
        uniform_rows,
        title="Pruning fraction on uniform data (2000 points, k=3)",
    )
    report += "\n\n" + format_table(
        ["representation"] + [f"{n} pruned" for n in names],
        musk_rows,
        title="Pruning fraction on musk-like data, before/after reduction",
    )
    return ExperimentResult(
        report=report, data={"uniform_rows": uniform_rows, "musk_rows": musk_rows}
    )


def scaling_experiment(seed: int = 0) -> ExperimentResult:
    """§2.2 — covariance vs correlation PCA across scale spreads."""
    rows = []
    for spread in (0.0, 0.5, 1.0, 2.0, 3.0):
        dataset = latent_concept_dataset(
            n_samples=300, n_dims=30, n_concepts=6, clusters_per_class=4,
            class_separation=7.0, concept_std=1.2, noise_std=1.5,
            scale_spread=spread, seed=seed,
        )
        raw_cp = analyze_coherence(
            fit_pca(dataset.features), dataset.features
        ).coherence_probabilities[:6].mean()
        scaled_cp = analyze_coherence(
            fit_pca(dataset.features, scale=True), dataset.features
        ).coherence_probabilities[:6].mean()
        raw_acc = accuracy_sweep(dataset, ordering="eigenvalue", scale=False).optimal()[1]
        scaled_acc = accuracy_sweep(dataset, ordering="eigenvalue", scale=True).optimal()[1]
        rows.append((spread, float(raw_cp), float(scaled_cp), raw_acc, scaled_acc))
    report = format_table(
        [
            "scale spread (decades)", "raw concept CP", "scaled concept CP",
            "raw optimal acc", "scaled optimal acc",
        ],
        rows,
        title="Scaling ablation: covariance vs correlation PCA by scale spread",
    )
    return ExperimentResult(report=report, data={"rows": rows})


def k_sensitivity_experiment(seed: int = 0) -> ExperimentResult:
    """Is the protocol's k = 3 load-bearing?"""
    clean = data.dataset("ionosphere", seed)
    noisy = data.dataset("noisy-A", seed)
    rows = []
    for k in (1, 3, 5, 10):
        clean_sweep = accuracy_sweep(clean, ordering="eigenvalue", scale=True, k=k)
        opt_dims, opt_acc = clean_sweep.optimal()
        noisy_coherent = accuracy_sweep(noisy, ordering="coherence", scale=False, k=k)
        noisy_classical = accuracy_sweep(noisy, ordering="eigenvalue", scale=False, k=k)
        rows.append(
            (
                k, opt_dims, opt_acc, clean_sweep.full_dimensional_accuracy,
                noisy_coherent.optimal()[1], noisy_classical.optimal()[1],
            )
        )
    report = format_table(
        [
            "k", "iono optimal dims", "iono optimal acc", "iono full acc",
            "noisy-A coherence opt", "noisy-A eigenvalue opt",
        ],
        rows,
        title="k-sensitivity of the feature-stripping protocol",
    )
    return ExperimentResult(report=report, data={"rows": rows})


def noise_amplitude_experiment(seed: int = 0) -> ExperimentResult:
    """Where does the eigenvalue ordering start losing?"""
    base = _studentized_copy(ionosphere_like(seed=seed))
    rows = []
    for amplitude in (1.0, 4.0, 10.0, 30.0, 60.0):
        noisy = corrupt_with_uniform(base, n_dims=10, amplitude=amplitude, seed=seed)
        coherent = accuracy_sweep(noisy, ordering="coherence", scale=False)
        classical = accuracy_sweep(noisy, ordering="eigenvalue", scale=False)
        rows.append(
            (
                amplitude, amplitude**2 / 12.0,
                coherent.accuracy_at(10), classical.accuracy_at(10),
                coherent.optimal()[1], classical.optimal()[1],
            )
        )
    report = format_table(
        [
            "amplitude", "noise variance", "coherence acc@10",
            "eigenvalue acc@10", "coherence best", "eigenvalue best",
        ],
        rows,
        title="Corruption-amplitude ablation (ionosphere base, 10 of 34 dims)",
    )
    return ExperimentResult(report=report, data={"rows": rows})


def eigensolver_experiment(seed: int = 0) -> ExperimentResult:
    """Cyclic Jacobi vs LAPACK: agreement and cost."""
    matrix = correlation_matrix(data.dataset("ionosphere", seed).features)

    start = time.perf_counter()
    numpy_result = eigh_numpy(matrix)
    numpy_seconds = time.perf_counter() - start
    start = time.perf_counter()
    jacobi_result = eigh_jacobi(matrix)
    jacobi_seconds = time.perf_counter() - start

    spectrum_gap = float(
        np.max(np.abs(numpy_result.eigenvalues - jacobi_result.eigenvalues))
    )
    trace_gap = abs(numpy_result.total_variance - jacobi_result.total_variance)
    report = format_table(
        ["solver", "seconds", "max |eigenvalue gap|", "trace gap"],
        [
            ("numpy (LAPACK)", numpy_seconds, 0.0, 0.0),
            ("jacobi (from scratch)", jacobi_seconds, spectrum_gap, trace_gap),
        ],
        title="Eigensolver ablation on the ionosphere correlation matrix (34x34)",
    )
    return ExperimentResult(
        report=report,
        data={"spectrum_gap": spectrum_gap, "trace_gap": trace_gap},
    )


def projected_clustering_experiment(seed: int = 0) -> ExperimentResult:
    """§3.1 — decompose into projected clusters, then reduce per cluster."""
    first = latent_concept_dataset(
        220, 40, 4, clusters_per_class=3, class_separation=7.0,
        concept_std=1.2, noise_std=1.0, seed=seed, name="pop-1",
    )
    second = latent_concept_dataset(
        220, 40, 4, clusters_per_class=3, class_separation=7.0,
        concept_std=1.2, noise_std=1.0, seed=seed + 1, name="pop-2",
    )
    features = np.zeros((440, 80))
    features[:220, :40] = first.features
    features[:220, 40:] = np.random.default_rng(seed).normal(size=(220, 40))
    features[220:, 40:] = second.features
    features[220:, :40] = np.random.default_rng(seed + 1).normal(size=(220, 40))
    labels = np.concatenate([first.labels, second.labels])

    global_reduced = CoherenceReducer(
        n_components=4, ordering="coherence", scale=True
    ).fit_transform(features)
    global_accuracy = feature_stripping_accuracy(global_reduced, labels)

    clustering = ProjectedClustering(n_clusters=2, n_dims=20, seed=seed).fit(features)
    per_cluster = per_cluster_reduction(
        features, clustering, n_components=4, ordering="coherence", scale=True
    )
    accuracies, sizes = [], []
    for members, reducer in per_cluster:
        reduced = reducer.transform(features[members])
        accuracies.append(feature_stripping_accuracy(reduced, labels[members]))
        sizes.append(members.size)
    local_accuracy = float(np.average(accuracies, weights=sizes))

    report = format_table(
        ["strategy", "accuracy (k=3)"],
        [
            ("global coherence reduction (4 comps)", global_accuracy),
            ("projected clusters, then per-cluster reduction", local_accuracy),
        ],
        title="Section 3.1 extension: decompose before reducing",
    )
    report += f"\ncluster sizes found: {sizes}"
    return ExperimentResult(
        report=report,
        data={"global": global_accuracy, "local": local_accuracy, "sizes": sizes},
    )


def baselines_experiment(seed: int = 0) -> ExperimentResult:
    """Coherence vs eigenvalue PCA vs SVD vs random projection."""

    def score(reducer, dataset):
        return feature_stripping_accuracy(
            reducer.fit_transform(dataset.features), dataset.labels
        )

    rows = []
    for name, budget in (("ionosphere", 10), ("noisy-A", 4)):
        dataset = data.dataset(name, seed)
        scale = name == "ionosphere"
        rows.append(
            (
                name, budget,
                score(CoherenceReducer(n_components=budget, ordering="coherence", scale=scale), dataset),
                score(CoherenceReducer(n_components=budget, ordering="eigenvalue", scale=scale), dataset),
                score(SVDReducer(n_components=budget), dataset),
                score(RandomProjectionReducer(n_components=budget, seed=seed), dataset),
                feature_stripping_accuracy(dataset.features, dataset.labels),
            )
        )
    report = format_table(
        [
            "dataset", "budget", "coherence PCA", "eigenvalue PCA",
            "truncated SVD", "random proj", "full dim",
        ],
        rows,
        title="Baseline comparison at matched component budgets (k=3 accuracy)",
    )
    return ExperimentResult(report=report, data={"rows": rows})


def dynamic_experiment(seed: int = 0) -> ExperimentResult:
    """Ref [17] — streaming inserts, drift, automatic refit."""
    first = latent_concept_dataset(
        400, 24, 3, noise_std=0.8, seed=seed, name="segment-1"
    )
    second = latent_concept_dataset(
        400, 24, 3, noise_std=0.8, seed=seed + 100, name="segment-2"
    )
    permutation = np.random.default_rng(seed).permutation(24)
    second = second.with_features(second.features[:, permutation])

    static = CoherenceReducer(n_components=3, ordering="coherence")
    static.fit(first.features)
    static_quality = feature_stripping_accuracy(
        static.transform(second.features), second.labels
    )

    dynamic = DynamicReducer(
        n_dims=24, n_components=3, drift_threshold=0.9,
        reservoir_size=400, seed=seed,
    )
    for start in range(0, 400, 50):
        dynamic.insert(first.features[start : start + 50])
    refits_before = dynamic.refit_count
    for start in range(0, 400, 50):
        dynamic.insert(second.features[start : start + 50])
    dynamic_quality = feature_stripping_accuracy(
        dynamic.transform(second.features), second.labels
    )

    report = format_table(
        ["strategy", "post-drift accuracy"],
        [
            ("static basis (frozen on segment 1)", static_quality),
            ("dynamic reducer (drift-triggered refit)", dynamic_quality),
        ],
        title="Dynamic reduction under a mid-stream subspace change",
    )
    report += (
        f"\nrefits: {refits_before} during the stationary segment, "
        f"{dynamic.refit_count - refits_before} more after the drift "
        f"(total {dynamic.refit_count}); final drift level "
        f"{dynamic.drift_level():.3f}"
    )
    return ExperimentResult(
        report=report,
        data={
            "static": static_quality,
            "dynamic": dynamic_quality,
            "refits_before_drift": refits_before,
            "refits_total": dynamic.refit_count,
        },
    )


def lsh_experiment(seed: int = 0) -> ExperimentResult:
    """Approximate LSH in full d vs reduce-then-exact."""
    dataset = data.dataset("musk", seed)
    labels = dataset.labels
    rng = np.random.default_rng(seed)
    query_rows = rng.choice(dataset.n_samples, size=40, replace=False)
    full = data.pca("musk", True, seed).transform(dataset.features)

    def label_match(results):
        matches = total = 0
        for row, result in zip(query_rows, results):
            for neighbor in result.neighbors:
                if neighbor.index == row:
                    continue
                total += 1
                matches += int(labels[neighbor.index] == labels[row])
        return matches / max(1, total)

    scale = float(np.median(np.linalg.norm(full - full.mean(axis=0), axis=1)))
    lsh = LshIndex(full, n_tables=12, n_hashes=3, bucket_width=scale, seed=seed)
    lsh_results = [lsh.query(full[row], k=4) for row in query_rows]
    rows = [
        (
            "LSH on full 166d",
            float(np.mean([r.stats.points_scanned for r in lsh_results])),
            label_match(lsh_results),
            float(lsh.recall_against_exact(full[query_rows], k=3)),
        )
    ]

    reduced = CoherenceReducer(
        n_components=13, ordering="coherence", scale=True
    ).fit_transform(dataset.features)
    tree = KdTreeIndex(reduced)
    tree_results = [tree.query(reduced[row], k=4) for row in query_rows]
    rows.append(
        (
            "exact kd-tree on coherence-reduced 13d",
            float(np.mean([r.stats.points_scanned for r in tree_results])),
            label_match(tree_results),
            1.0,
        )
    )
    report = format_table(
        [
            "strategy", "points scanned / query",
            "neighbor label match", "recall vs exact (own space)",
        ],
        rows,
        title="Approximate LSH vs aggressive reduction + exact search (musk)",
    )
    return ExperimentResult(report=report, data={"rows": rows})


def igrid_experiment(seed: int = 0) -> ExperimentResult:
    """Ref [3] — change the metric (IGrid) vs change the data (reduction)."""
    noisy = data.dataset("noisy-A", seed)

    index = IGridIndex(noisy.features, ranges_per_dim=4)
    rng = np.random.default_rng(seed)
    query_rows = rng.choice(noisy.n_samples, size=100, replace=False)
    matches = total = 0
    for row in query_rows:
        result = index.query(noisy.features[row], k=4)
        for neighbor in result.neighbors:
            if neighbor.index == row:
                continue
            total += 1
            matches += int(noisy.labels[neighbor.index] == noisy.labels[row])
    igrid_accuracy = matches / max(1, total)

    reduced = CoherenceReducer(
        n_components=4, ordering="coherence", scale=False
    ).fit_transform(noisy.features)
    rows = [
        (
            "Euclidean, raw 34d (10 noise dims)",
            feature_stripping_accuracy(noisy.features, noisy.labels),
        ),
        ("IGrid similarity, raw 34d", igrid_accuracy),
        (
            "Euclidean, coherence-reduced 4d",
            feature_stripping_accuracy(reduced, noisy.labels),
        ),
    ]
    report = format_table(
        ["method", "neighbor label accuracy (k=3)"],
        rows,
        title="Changing the metric (IGrid) vs changing the data (reduction), noisy A",
    )
    return ExperimentResult(report=report, data={"rows": rows})


def fractional_metrics_experiment(seed: int = 0) -> ExperimentResult:
    """Ref [1] — relative contrast by Minkowski exponent."""
    metrics = [
        ("L_0.5 (fractional)", "minkowski", 0.5),
        ("L_1 (manhattan)", "manhattan", None),
        ("L_2 (euclidean)", "euclidean", None),
        ("L_inf (chebyshev)", "chebyshev", None),
    ]
    rng = np.random.default_rng(seed)
    rows = []
    for d in (2, 10, 50, 200):
        corpus = rng.uniform(size=(300, d))
        queries = rng.uniform(size=(10, d))
        contrasts = []
        for _, metric, p in metrics:
            values = [
                relative_contrast(corpus, q, metric=metric, p=p).relative_contrast
                for q in queries
            ]
            contrasts.append(float(np.mean(values)))
        rows.append(tuple([d] + contrasts))
    report = format_table(
        ["dimensionality"] + [name for name, _, _ in metrics],
        rows,
        title="Relative contrast by Minkowski exponent (uniform data)",
    )
    return ExperimentResult(report=report, data={"rows": rows})


def text_lsi_experiment(seed: int = 0) -> ExperimentResult:
    """The motivating LSI observation on a synthetic topical corpus."""
    from repro.text.corpus import synthetic_topic_corpus
    from repro.text.lsi import LatentSemanticIndex
    from repro.text.vectorize import CountVectorizer, tfidf_weight

    corpus = synthetic_topic_corpus(n_documents=300, n_topics=5, seed=seed)
    vectorizer = CountVectorizer().fit(corpus.documents)
    tfidf, _ = tfidf_weight(vectorizer.transform(corpus.documents))
    rows = [
        (
            "raw TF-IDF",
            tfidf.shape[1],
            feature_stripping_accuracy(tfidf, corpus.labels, k=3),
        )
    ]
    coherence = None
    for k in (3, 5, 10, 25):
        lsi = LatentSemanticIndex(n_concepts=k).fit(corpus.documents)
        rows.append(
            (
                f"LSI (k={k})",
                k,
                feature_stripping_accuracy(lsi.document_vectors_, corpus.labels, k=3),
            )
        )
        if k == 5:
            coherence = lsi.concept_coherence()
    report = format_table(
        ["representation", "dimensionality", "topic prediction accuracy"],
        rows,
        title="Text retrieval: raw terms vs latent semantic concepts (5 topics)",
    )
    report += (
        f"\ncoherence probability of the 5 kept singular directions: "
        f"{np.round(coherence, 4).tolist()} "
        f"(uniform baseline {UNIFORM_BASELINE_CP:.4f})"
    )
    return ExperimentResult(
        report=report, data={"rows": rows, "coherence": coherence}
    )


def stability_experiment(seed: int = 0) -> ExperimentResult:
    """§1.1 — adversarial query instability and its repair."""
    rng = np.random.default_rng(seed)
    uniform_rows = []
    for d in (2, 10, 50, 200):
        cloud = rng.uniform(size=(500, d))
        uniform_rows.append(
            (
                d,
                rank_displacement(cloud, 0.5, direction="away", seed=seed),
                rank_displacement(cloud, 0.5, direction="random", seed=seed),
                nearest_neighbor_churn(cloud, 0.5, direction="away", seed=seed),
            )
        )

    dataset = data.dataset("musk", seed)
    full = data.pca("musk", True, seed).transform(dataset.features)
    reduced = CoherenceReducer(
        n_components=13, ordering="coherence", scale=True
    ).fit_transform(dataset.features)
    musk_rows = [
        (
            "full 166d",
            rank_displacement(full, 0.5, direction="away", seed=seed),
            nearest_neighbor_churn(full, 0.5, direction="away", seed=seed),
        ),
        (
            "coherence-reduced 13d",
            rank_displacement(reduced, 0.5, direction="away", seed=seed),
            nearest_neighbor_churn(reduced, 0.5, direction="away", seed=seed),
        ),
    ]
    report = format_table(
        [
            "dimensionality", "old-NN rank (away)",
            "old-NN rank (random)", "NN churn (away)",
        ],
        uniform_rows,
        title=(
            "Query instability on uniform data (perturbation = 0.5 x NN "
            "distance), Section 1.1"
        ),
    )
    report += "\n\n" + format_table(
        ["representation", "old-NN rank (away)", "NN churn (away)"],
        musk_rows,
        title="Query instability on musk-like data, before/after reduction",
    )
    return ExperimentResult(
        report=report,
        data={"uniform_rows": uniform_rows, "musk_rows": musk_rows},
    )


def whitening_experiment(seed: int = 0) -> ExperimentResult:
    """Should the retained concepts be whitened?  A measured negative."""
    cases = [
        ("musk", 13, True),
        ("ionosphere", 10, True),
        ("arrhythmia", 10, True),
        ("noisy-A", 4, False),
    ]
    rows = []
    for name, budget, scale in cases:
        dataset = data.dataset(name, seed)
        plain = feature_stripping_accuracy(
            CoherenceReducer(
                n_components=budget, ordering="coherence", scale=scale
            ).fit_transform(dataset.features),
            dataset.labels,
        )
        whitened = feature_stripping_accuracy(
            CoherenceReducer(
                n_components=budget, ordering="coherence", scale=scale,
                whiten=True,
            ).fit_transform(dataset.features),
            dataset.labels,
        )
        rows.append((name, budget, plain, whitened, whitened - plain))
    report = format_table(
        ["dataset", "budget", "plain accuracy", "whitened accuracy", "delta"],
        rows,
        title="Whitening the retained concepts: does equal weighting help?",
    )
    return ExperimentResult(report=report, data={"rows": rows})
