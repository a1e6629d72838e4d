"""Ablation — projection-screened exact search vs the brute-force scan.

The projection-screened index claims the paper's reduced subspace is an
exact-search accelerator, not an approximation: scan cheap float32
reduced rows, prune against the running k-th exact distance, refine only
the survivors — and answer bit-identically to the full scan.  This
bench runs the bound-tightness experiment the paper implies but never
runs, across the screening dimension m ∈ {2, 4, 8, 16} and both
subspace orderings (eigenvalue vs the paper's coherence probability),
on a correlated synthetic corpus (latent rank 4 mixed into d=16) where
reduction has structure to find:

* **pruning fraction** — corpus rows never refined at full width,
  audited through :meth:`QueryStats.pruning_fraction`;
* **bound tightness** — mean reduced/full distance ratio over sampled
  query-point pairs (1.0 = the lower bound is the distance itself);
* **bytes scanned** — float32 reduced bytes + float64 refined bytes vs
  the brute-force corpus sweep;
* **served QPS** — the end-to-end serving comparison via
  :func:`repro.serve.bench.compare_serving`, identity-checked on every
  run.

Results land in ``benchmarks/results/BENCH_projection_screen.json``
(schema ``bench_projection_screen/v1``) plus a human-readable report.
Set ``REPRO_BENCH_PROJSCREEN_SCALE=smoke`` for the tiny CI
configuration — the exactness assertions hold at every scale.
"""

import json
import os
import tempfile

import numpy as np

import _experiments as exp
from repro.evaluation.reporting import format_table
from repro.search import BruteForceIndex, ProjectionScreenedIndex
from repro.serve import BatchPolicy
from repro.serve.bench import compare_serving

_SMOKE = (
    os.environ.get("REPRO_BENCH_PROJSCREEN_SCALE", "").lower() == "smoke"
)
_K = 10
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_JSON_NAME = "BENCH_projection_screen.json"

_D = 16
_LATENT = 4
_NOISE = 0.05
if _SMOKE:
    _N = 800
    _N_QUERIES = 60
else:
    _N = 50_000
    _N_QUERIES = 400

_SUBSPACE_DIMS = (2, 4, 8, 16)
_ORDERINGS = ("eigen", "coherence")
# Pairs sampled for the bound-tightness ratio (full scale would be
# n_queries * n ratios; a bounded sample keeps the bench honest without
# dominating its runtime).
_TIGHTNESS_QUERIES = 40
_TIGHTNESS_POINTS = 2_000


def _correlated_corpus(rng):
    """Latent rank-_LATENT corpus mixed into _D dims plus mild noise."""
    latent = rng.standard_normal((_N, _LATENT))
    mixing = rng.standard_normal((_LATENT, _D))
    return latent @ mixing + _NOISE * rng.standard_normal((_N, _D))


def _bound_tightness(index, corpus, queries):
    """Mean reduced/full distance ratio over sampled query-point pairs."""
    q_sample = queries[: min(len(queries), _TIGHTNESS_QUERIES)]
    p_sample = corpus[: min(len(corpus), _TIGHTNESS_POINTS)]
    spec = index.projection
    reduced_q = spec.reduce(q_sample)
    reduced_p = spec.reduce(p_sample)
    full = np.sqrt(
        np.sum(
            np.square(q_sample[:, None, :] - p_sample[None, :, :]), axis=2
        )
    )
    reduced = np.sqrt(
        np.sum(
            np.square(reduced_q[:, None, :] - reduced_p[None, :, :]), axis=2
        )
    )
    nonzero = full > 0
    return float(np.mean(reduced[nonzero] / full[nonzero]))


def _run():
    rng = np.random.default_rng(exp.SEED)
    corpus = _correlated_corpus(rng)
    queries = rng.standard_normal((_N_QUERIES, _D)) @ np.diag(
        np.full(_D, corpus.std())
    )
    policy = BatchPolicy(max_batch=64)
    reference = BruteForceIndex(corpus)

    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        # Brute-force baseline row: the bytes and QPS every screened
        # configuration is normalized against.
        path = os.path.join(workdir, "bruteforce.npz")
        reference.save(path)
        comparison = compare_serving(
            reference, path, queries, _K, n_workers=0, policy=policy
        )
        rows.append(
            {
                "kind": "bruteforce",
                "subspace_dim": None,
                "ordering": None,
                "pruning_fraction": 0.0,
                "bound_tightness": 1.0,
                "reduced_bytes": 0,
                "refined_bytes": _N_QUERIES * _N * _D * 8,
                "total_bytes": _N_QUERIES * _N * _D * 8,
                "closed_loop_qps": comparison.closed_loop_qps,
                "served_qps": comparison.served_qps,
                "identical": comparison.identical,
            }
        )
        for ordering in _ORDERINGS:
            for m in _SUBSPACE_DIMS:
                index = ProjectionScreenedIndex(
                    corpus, subspace_dim=m, ordering=ordering
                )
                stats = index.query_batch(queries, k=_K).stats
                pruning = stats.pruning_fraction(_N_QUERIES * _N)
                reduced_bytes = stats.reduced_rows_scanned * m * 4
                refined_bytes = stats.points_scanned * _D * 8
                path = os.path.join(workdir, f"{ordering}-{m}.npz")
                index.save(path)
                comparison = compare_serving(
                    index, path, queries, _K, n_workers=0, policy=policy
                )
                rows.append(
                    {
                        "kind": "projscreen",
                        "subspace_dim": m,
                        "ordering": ordering,
                        "pruning_fraction": pruning,
                        "bound_tightness": _bound_tightness(
                            index, corpus, queries
                        ),
                        "reduced_bytes": reduced_bytes,
                        "refined_bytes": refined_bytes,
                        "total_bytes": reduced_bytes + refined_bytes,
                        "closed_loop_qps": comparison.closed_loop_qps,
                        "served_qps": comparison.served_qps,
                        "identical": comparison.identical,
                    }
                )
    return rows


def _emit_json(rows):
    payload = {
        "schema": "bench_projection_screen/v1",
        "config": {
            "scale": "smoke" if _SMOKE else "full",
            "corpus_size": _N,
            "dims": _D,
            "latent_rank": _LATENT,
            "noise": _NOISE,
            "n_queries": _N_QUERIES,
            "k": _K,
            "subspace_dims": list(_SUBSPACE_DIMS),
            "orderings": list(_ORDERINGS),
            "seed": exp.SEED,
        },
        "runs": rows,
    }
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, _JSON_NAME), "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def test_ablation_projection_screen(benchmark, capsys):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    _emit_json(rows)

    brute_bytes = rows[0]["total_bytes"]
    table = format_table(
        [
            "kind", "m", "ordering", "pruned", "tightness",
            "bytes vs brute", "served q/s", "bit-identical",
        ],
        [
            (
                row["kind"],
                row["subspace_dim"] if row["subspace_dim"] else "-",
                row["ordering"] or "-",
                f"{row['pruning_fraction']:.3f}",
                f"{row['bound_tightness']:.3f}",
                f"{row['total_bytes'] / brute_bytes:.3f}x",
                f"{row['served_qps']:.0f}",
                "yes" if row["identical"] else "NO",
            )
            for row in rows
        ],
        title=(
            "Projection-screened exact search vs brute force "
            f"({_N:,} x {_D} corpus, latent rank {_LATENT}, "
            f"{_N_QUERIES} queries, k={_K})"
        ),
    )
    exp.emit(table, "ablation_projection_screen", capsys)

    # Exactness holds in EVERY run at EVERY scale: a screened serving
    # deployment never answers differently from the full scan.
    for row in rows:
        assert row["identical"], (
            f"m={row['subspace_dim']} ({row['ordering']}) delivered "
            "answers that differ from the brute-force scan"
        )
    # The headline claim: at m = d/4 on the correlated corpus, both
    # orderings prune at least half of the full-width refinements.
    quarter = {
        row["ordering"]: row["pruning_fraction"]
        for row in rows
        if row["kind"] == "projscreen" and row["subspace_dim"] == _D // 4
    }
    assert set(quarter) == set(_ORDERINGS)
    for ordering, fraction in quarter.items():
        assert fraction >= 0.5, (
            f"pruning fraction {fraction:.3f} < 0.5 at m={_D // 4} "
            f"({ordering}-ordered)"
        )
    # Monotone bytes sanity: every screened run moves fewer bytes than
    # the brute-force sweep.
    for row in rows[1:]:
        assert row["total_bytes"] < brute_bytes
