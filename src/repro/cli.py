"""Command-line interface.

Four subcommands covering the workflow of the paper:

* ``repro diagnose <dataset>`` — is the dataset amenable to reduction?
* ``repro evaluate <dataset>`` — the Table-1 row: full vs. optimal vs.
  1%-threshold accuracy.
* ``repro sweep <dataset>`` — the full accuracy-vs-dimensionality curve.
* ``repro reduce <dataset> -o out.csv`` — write the reduced
  representation (plus labels) as CSV.
* ``repro index build <dataset> -o out.npz --index kdtree`` — build a
  similarity-search index over the dataset and snapshot it to disk
  (``--kind`` is an alias for ``--index``; ``--kind projscreen
  --subspace-dim m --ordering {eigen,coherence}`` builds the
  projection-screened exact index).
* ``repro index info out.npz`` — inspect a snapshot without rebuilding
  anything.
* ``repro serve-bench --index bruteforce --workers 4`` — measure the
  micro-batched serving layer against the closed-loop one-query-per-call
  baseline on a synthetic corpus; ``--shards S`` serves the same corpus
  through the scatter-gather coordinator instead (still checked
  bit-identical against the unsharded baseline).
* ``repro shard build <dataset> -o out_dir --shards 4`` — partition a
  dataset into shard snapshots plus a ``shards.json`` manifest for
  :class:`repro.shard.ShardedIndexServer`.

``<dataset>`` is either a built-in preset name (``musk``, ``ionosphere``,
``arrhythmia``, ``noisy-a``, ``noisy-b``, ``uniform``) or a path to a
UCI-style CSV (label in the last column by default, ``?`` for missing).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.core.diagnosis import diagnose_reducibility
from repro.core.reducer import CoherenceReducer
from repro.datasets.loaders import load_csv_dataset
from repro.datasets.synthetic import uniform_cube
from repro.datasets.types import Dataset
from repro.datasets.uci_like import (
    arrhythmia_like,
    ionosphere_like,
    musk_like,
    noisy_dataset_a,
    noisy_dataset_b,
)
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.summary import reduction_summary
from repro.evaluation.sweeps import accuracy_sweep
from repro.search.registry import INDEX_KINDS as _INDEX_KINDS
from repro.search.registry import iter_specs as _iter_index_specs

_PRESETS = {
    "musk": musk_like,
    "ionosphere": ionosphere_like,
    "arrhythmia": arrhythmia_like,
    "noisy-a": noisy_dataset_a,
    "noisy-b": noisy_dataset_b,
}


def _resolve_dataset(name: str, seed: int, label_column: int) -> Dataset:
    key = name.lower()
    if key in _PRESETS:
        return _PRESETS[key](seed=seed)
    if key == "uniform":
        return uniform_cube(500, 50, seed=seed)
    if os.path.exists(name):
        return load_csv_dataset(name, label_column=label_column)
    raise SystemExit(
        f"error: {name!r} is neither a preset "
        f"({', '.join(sorted(_PRESETS) + ['uniform'])}) nor an existing file"
    )


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "dataset",
        help="preset name (musk, ionosphere, arrhythmia, noisy-a, noisy-b, "
        "uniform) or path to a CSV file",
    )
    parser.add_argument("--seed", type=int, default=0, help="preset RNG seed")
    parser.add_argument(
        "--label-column",
        type=int,
        default=-1,
        help="label column index for CSV input (default: last)",
    )


def _command_diagnose(args) -> int:
    data = _resolve_dataset(args.dataset, args.seed, args.label_column)
    diagnosis = diagnose_reducibility(data.features, scale=not args.no_scale)
    print(f"dataset: {data.name} ({data.n_samples} x {data.n_dims})")
    print(diagnosis.summary())
    rows = [
        (i, float(diagnosis.eigenvalues[i]), float(diagnosis.coherence_probabilities[i]))
        for i in range(min(args.top, diagnosis.n_components))
    ]
    print()
    print(
        format_table(
            ["component", "eigenvalue", "coherence probability"],
            rows,
            title=f"top {len(rows)} components",
        )
    )
    return 0


def _command_evaluate(args) -> int:
    data = _resolve_dataset(args.dataset, args.seed, args.label_column)
    summary = reduction_summary(
        data, ordering=args.ordering, scale=not args.no_scale, k=args.k
    )
    print(
        format_table(
            ["metric", "value"],
            [
                ("dataset", summary.dataset_name),
                ("full dimensionality", summary.full_dimensionality),
                ("full accuracy", summary.full_accuracy),
                ("optimal accuracy", summary.optimal_accuracy),
                ("optimal dimensionality", summary.optimal_dimensionality),
                ("1%-threshold accuracy", summary.threshold_accuracy),
                ("1%-threshold dimensionality", summary.threshold_dimensionality),
                ("variance kept at optimum", summary.variance_retained_at_optimum),
                ("precision vs full-dim NN", summary.precision_at_optimum),
            ],
            title="reduction summary (Table 1 row)",
        )
    )
    return 0


def _command_sweep(args) -> int:
    data = _resolve_dataset(args.dataset, args.seed, args.label_column)
    sweep = accuracy_sweep(
        data, ordering=args.ordering, scale=not args.no_scale, k=args.k
    )
    step = max(1, sweep.dims.size // args.points)
    grid = sweep.dims[::step]
    print(
        format_series(
            grid.tolist(),
            {"accuracy": [sweep.accuracy_at(int(m)) for m in grid]},
            x_label="dims",
            title=(
                f"{data.name}: accuracy vs dimensionality "
                f"({args.ordering} ordering, "
                f"{'raw' if args.no_scale else 'studentized'})"
            ),
        )
    )
    best_dims, best = sweep.optimal()
    print(f"\noptimum: {best:.4f} at {best_dims} dims "
          f"(full-dim {sweep.full_dimensional_accuracy:.4f})")
    return 0


def _command_experiment(args) -> int:
    from repro.experiments import (
        get_experiment,
        list_experiments,
        run_experiment,
    )

    if args.experiment_id == "list":
        print(
            format_table(
                ["id", "paper artifact", "description"],
                [
                    (e.experiment_id, e.paper_artifact, e.description)
                    for e in list_experiments()
                ],
                title="registered paper experiments",
            )
        )
        return 0
    if args.experiment_id == "all":
        ids = [e.experiment_id for e in list_experiments()]
    else:
        ids = [part for part in args.experiment_id.split(",") if part]
    if args.jobs < 1:
        raise SystemExit(f"error: --jobs must be positive, got {args.jobs}")
    # Validate every id before spending time on any of them.
    for experiment_id in ids:
        try:
            get_experiment(experiment_id)
        except KeyError as error:
            raise SystemExit(f"error: {error.args[0]}") from None
    if args.save_dir:
        os.makedirs(args.save_dir, exist_ok=True)
    if args.jobs > 1 and len(ids) > 1:
        # Fan the experiments out over a process pool.  map() preserves
        # input order, so reports print deterministically no matter
        # which worker finishes first.
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        with ProcessPoolExecutor(
            max_workers=min(args.jobs, len(ids))
        ) as pool:
            results = list(
                pool.map(partial(run_experiment, seed=args.seed), ids)
            )
    else:
        results = [
            run_experiment(experiment_id, seed=args.seed)
            for experiment_id in ids
        ]
    for experiment_id, result in zip(ids, results):
        print(result.report)
        print()
        if args.save_dir:
            report_path = os.path.join(args.save_dir, f"{experiment_id}.txt")
            with open(report_path, "w") as handle:
                handle.write(result.report + "\n")
    if args.save_dir:
        print(f"reports written to {args.save_dir}/")
    return 0


def _index_classes():
    """Kind → class map (deprecated thin wrapper over the registry)."""
    from repro.search.registry import INDEX_KINDS, index_class

    return {kind: index_class(kind) for kind in INDEX_KINDS}


# Kind-specific constructor flags, derived from the registry's per-kind
# parameter specs: each entry maps a CLI flag to the index kind it
# configures and the constructor keyword it populates.  Flags are
# meaningful only for their kind; passing one with another kind is a
# usage error, not something to silently ignore.
_KIND_FLAGS = tuple(
    (param.name, param.flag, spec.kind, param.name)
    for spec in _iter_index_specs()
    for param in spec.params
)


def _index_kwargs(args) -> dict:
    """Constructor keywords from the kind-specific CLI flags."""
    kwargs: dict = {}
    for attr, flag, kind, keyword in _KIND_FLAGS:
        value = getattr(args, attr)
        if value is None:
            continue
        if args.index != kind:
            raise SystemExit(
                f"error: {flag} only applies to --kind {kind}, "
                f"not {args.index!r}"
            )
        kwargs[keyword] = value
    return kwargs


def _add_index_arguments(parser: argparse.ArgumentParser) -> None:
    """Add every registry-declared kind parameter as a CLI flag.

    Defaults stay ``None`` (flag absent) so :func:`_index_kwargs` can
    tell "not given" from any real value and reject wrong-kind usage.
    """
    for spec in _iter_index_specs():
        for param in spec.params:
            parser.add_argument(
                param.flag,
                dest=param.name,
                type=param.type,
                default=None,
                choices=list(param.choices) if param.choices else None,
                help=param.help,
            )


def _command_index_build(args) -> int:
    data = _resolve_dataset(args.dataset, args.seed, args.label_column)
    cls = _index_classes()[args.index]
    try:
        index = cls(data.features, **_index_kwargs(args))
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    index.save(args.output)
    size = os.path.getsize(args.output)
    detail = ""
    if args.index == "projscreen":
        detail = (
            f" [screen {index.subspace_dim}/{index.dimensionality} dims, "
            f"{index.ordering}-ordered]"
        )
    print(
        f"built {args.index} over {data.name} "
        f"({data.n_samples} x {data.n_dims}) -> {args.output} "
        f"({size / 1024:.1f} KiB){detail}"
    )
    return 0


def _command_index_info(args) -> int:
    from repro.search import SnapshotError, load_index, snapshot_kind

    try:
        kind = snapshot_kind(args.path)
        # mmap keeps the corpus on disk: inspecting a snapshot should
        # not cost a full load of its points.
        index = load_index(args.path, mmap_points=True)
    except SnapshotError as error:
        raise SystemExit(f"error: {error}") from None
    print(
        format_table(
            ["field", "value"],
            [
                ("path", args.path),
                ("kind", kind),
                ("class", type(index).__name__),
                ("points", index.n_points),
                ("dimensionality", index.dimensionality),
                ("file size", f"{os.path.getsize(args.path) / 1024:.1f} KiB"),
            ],
            title="index snapshot",
        )
    )
    return 0


def _command_serve_bench_mutate(args) -> int:
    import tempfile

    from repro.serve.bench import compare_mutable_serving
    from repro.serve.mutation import MutationError

    if args.workers < 0:
        raise SystemExit(
            f"error: --workers must be non-negative, got {args.workers}"
        )
    if args.mutate_ops < 1:
        raise SystemExit(
            f"error: --mutate-ops must be positive, got {args.mutate_ops}"
        )
    if not 0.0 <= args.insert_fraction + args.delete_fraction <= 1.0:
        raise SystemExit(
            "error: --insert-fraction + --delete-fraction must lie in "
            f"[0, 1], got {args.insert_fraction} + {args.delete_fraction}"
        )
    if args.shards > 1:
        raise SystemExit(
            "error: --mutate measures the single mutable server; "
            "it does not combine with --shards"
        )
    wal_sync = args.wal_sync if args.wal_sync is not None else "always"
    rng = np.random.default_rng(args.seed)
    corpus = rng.standard_normal((args.n, args.dims))
    queries = rng.standard_normal((args.queries, args.dims))
    try:
        with tempfile.TemporaryDirectory() as workdir:
            comparison = compare_mutable_serving(
                os.path.join(workdir, "generations"),
                corpus,
                queries,
                args.k,
                kind=args.index,
                index_kwargs=_index_kwargs(args),
                n_ops=args.mutate_ops,
                insert_fraction=args.insert_fraction,
                delete_fraction=args.delete_fraction,
                compact_every=args.compact_every,
                drift_threshold=args.drift_threshold,
                n_workers=args.workers,
                deadline_ms=args.deadline_ms,
                wal_sync=wal_sync,
                seed=args.seed,
            )
    except (MutationError, ValueError) as error:
        raise SystemExit(f"error: {error}") from None
    rows = [
        ("index", args.index),
        ("initial corpus", f"{args.n} x {args.dims}"),
        ("trace ops (ins/del/query)",
         f"{comparison.n_ops} ({comparison.n_inserts} / "
         f"{comparison.n_deletes} / {comparison.n_queries})"),
        ("compactions (drift)",
         f"{comparison.n_compactions} ({comparison.n_drift_compactions})"),
        ("generations on disk", comparison.n_generations),
        ("queries in flight across swaps", comparison.swap_inflight_queries),
        ("wal sync policy", comparison.wal_sync),
        ("query throughput", f"{comparison.query_qps:.0f} q/s"),
        ("bit-identical to fresh rebuild",
         "yes" if comparison.identical else "NO"),
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title="mutable serving vs fresh-rebuild reference",
        )
    )
    return 0 if comparison.identical else 1


def _command_serve_bench(args) -> int:
    import tempfile

    from repro.serve import BatchPolicy
    from repro.serve.bench import compare_serving

    if args.mutate:
        return _command_serve_bench_mutate(args)
    if args.wal_sync is not None:
        raise SystemExit("error: --wal-sync requires --mutate")
    if args.workers < 0:
        raise SystemExit(
            f"error: --workers must be non-negative, got {args.workers}"
        )
    if args.shards < 1:
        raise SystemExit(
            f"error: --shards must be positive, got {args.shards}"
        )
    sharded = args.shards > 1
    try:
        policy = BatchPolicy(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_pending=args.max_pending,
            shed_policy=args.shed_policy,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        raise SystemExit(
            f"error: --deadline-ms must be positive, got {args.deadline_ms}"
        )
    rng = np.random.default_rng(args.seed)
    corpus = rng.standard_normal((args.n, args.dims))
    queries = rng.standard_normal((args.queries, args.dims))
    index = _index_classes()[args.index](corpus)
    heartbeat = args.heartbeat_timeout if args.heartbeat_timeout > 0 else None
    with tempfile.TemporaryDirectory() as workdir:
        if sharded:
            from repro.shard import build_shards
            from repro.shard.bench import compare_sharded_serving

            manifest = build_shards(
                corpus,
                os.path.join(workdir, "shards"),
                args.shards,
                kind=args.index,
                method=args.shard_method,
                seed=args.seed,
            )
            comparison = compare_sharded_serving(
                index,
                manifest,
                queries,
                args.k,
                n_workers=args.workers,
                policy=policy,
                cache_capacity=args.cache_size,
                deadline_ms=args.deadline_ms,
                heartbeat_timeout=heartbeat,
            )
        else:
            path = os.path.join(workdir, f"{args.index}.npz")
            index.save(path)
            comparison = compare_serving(
                index,
                path,
                queries,
                args.k,
                n_workers=args.workers,
                policy=policy,
                cache_capacity=args.cache_size,
                deadline_ms=args.deadline_ms,
                heartbeat_timeout=heartbeat,
            )
    report = comparison.report
    histogram = ", ".join(
        f"{size}x{count}"
        for size, count in sorted(report.batch_size_histogram.items())
    )
    rows = [
        ("index", args.index),
        ("corpus", f"{args.n} x {args.dims}"),
        ("queries / k", f"{args.queries} / {args.k}"),
        ("workers", args.workers or "in-process"),
        ("policy", f"max_batch={args.max_batch}, "
                   f"max_wait_ms={args.max_wait_ms}"),
    ]
    if sharded:
        rows.append(("shards", f"{args.shards} ({args.shard_method})"))
    rows += [
        ("closed-loop throughput",
         f"{comparison.closed_loop_qps:.0f} q/s"),
        ("served throughput", f"{comparison.served_qps:.0f} q/s"),
        ("speedup", f"{comparison.speedup:.1f}x"),
        ("latency p50/p95/p99",
         f"{report.latency_p50_ms:.2f} / {report.latency_p95_ms:.2f}"
         f" / {report.latency_p99_ms:.2f} ms"),
        ("batches (size x count)", histogram or "none"),
        ("mean batch size", f"{report.mean_batch_size:.1f}"),
        ("cache hits/misses/evictions",
         f"{report.cache_hits} / {report.cache_misses} / "
         f"{report.cache_evictions}"),
        ("points scanned", report.query_stats.points_scanned),
        ("answered / shed / deadline / failed / cancelled",
         f"{report.n_requests} / {report.n_shed} / "
         f"{report.n_deadline_exceeded} / {report.n_failed} / "
         f"{report.n_cancelled}"),
        ("restarts / hung kills / resubmitted",
         f"{report.n_restarts} / {report.n_hung_kills} / "
         f"{report.n_resubmitted}"),
        ("bit-identical to sequential",
         "yes" if comparison.identical else "NO"),
    ]
    title = (
        "sharded scatter-gather serving vs closed-loop baseline"
        if sharded
        else "micro-batched serving vs closed-loop baseline"
    )
    print(format_table(["metric", "value"], rows, title=title))
    return 0 if comparison.identical else 1


def _command_shard_build(args) -> int:
    from repro.shard import ShardManifestError, build_shards

    data = _resolve_dataset(args.dataset, args.seed, args.label_column)
    try:
        manifest = build_shards(
            data.features,
            args.output,
            args.shards,
            kind=args.index,
            method=args.method,
            seed=args.seed,
            # projscreen: build_shards fits one projection on the full
            # corpus from these and hands it to every shard.
            index_kwargs=_index_kwargs(args),
        )
    except (ValueError, ShardManifestError) as error:
        raise SystemExit(f"error: {error}") from None
    print(
        format_table(
            ["shard", "snapshot", "points"],
            [
                (position, os.path.basename(spec.snapshot_path),
                 spec.n_points)
                for position, spec in enumerate(manifest.shards)
            ],
            title=(
                f"{manifest.n_shards} x {args.index} shards over "
                f"{data.name} ({manifest.n_points} x "
                f"{manifest.dimensionality}, {manifest.method}) -> "
                f"{args.output}/{os.path.basename(manifest.path)}"
            ),
        )
    )
    return 0


def _command_reduce(args) -> int:
    data = _resolve_dataset(args.dataset, args.seed, args.label_column)
    if args.components is not None:
        reducer = CoherenceReducer(
            n_components=args.components,
            ordering=args.ordering,
            scale=not args.no_scale,
        )
    else:
        reducer = CoherenceReducer(ordering="automatic", scale=not args.no_scale)
    reduced = reducer.fit_transform(data.features)

    header = ",".join(
        [f"component_{int(i)}" for i in reducer.selected_] + ["label"]
    )
    body = np.hstack([reduced, data.labels.reshape(-1, 1).astype(float)])
    np.savetxt(
        args.output, body, delimiter=",", header=header, comments=""
    )
    print(
        f"wrote {reduced.shape[0]} rows x {reduced.shape[1]} components "
        f"(+ label) to {args.output}; variance kept "
        f"{reducer.retained_variance_fraction():.1%}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="coherence-guided dimensionality reduction "
        "(Aggarwal, PODS 2001)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    diagnose = commands.add_parser(
        "diagnose", help="is this dataset amenable to reduction?"
    )
    _add_dataset_arguments(diagnose)
    diagnose.add_argument("--no-scale", action="store_true",
                          help="skip studentization")
    diagnose.add_argument("--top", type=int, default=15,
                          help="components to print")
    diagnose.set_defaults(handler=_command_diagnose)

    evaluate = commands.add_parser(
        "evaluate", help="full vs optimal vs 1%%-threshold accuracy"
    )
    _add_dataset_arguments(evaluate)
    evaluate.add_argument("--ordering", default="eigenvalue",
                          choices=["eigenvalue", "coherence"])
    evaluate.add_argument("--no-scale", action="store_true")
    evaluate.add_argument("--k", type=int, default=3, help="neighbors per query")
    evaluate.set_defaults(handler=_command_evaluate)

    sweep = commands.add_parser(
        "sweep", help="accuracy vs dimensionality curve"
    )
    _add_dataset_arguments(sweep)
    sweep.add_argument("--ordering", default="eigenvalue",
                       choices=["eigenvalue", "coherence"])
    sweep.add_argument("--no-scale", action="store_true")
    sweep.add_argument("--k", type=int, default=3)
    sweep.add_argument("--points", type=int, default=20,
                       help="measurement rows to print")
    sweep.set_defaults(handler=_command_sweep)

    experiment = commands.add_parser(
        "experiment",
        help="reproduce a paper table/figure ('list' shows ids, 'all' runs everything)",
    )
    experiment.add_argument(
        "experiment_id",
        help="experiment id (e.g. fig13, table1, sec3), 'list', or 'all'",
    )
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--save-dir",
        default=None,
        help="also write each report to <save-dir>/<id>.txt",
    )
    experiment.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run experiments across a process pool of N workers "
        "(reports still print in input order)",
    )
    experiment.set_defaults(handler=_command_experiment)

    serve_bench = commands.add_parser(
        "serve-bench",
        help="micro-batched serving vs closed-loop one-query-per-call",
    )
    serve_bench.add_argument("--index", default="bruteforce",
                             choices=list(_INDEX_KINDS))
    serve_bench.add_argument("--n", type=int, default=10_000,
                             help="synthetic corpus size")
    serve_bench.add_argument("--dims", type=int, default=16,
                             help="corpus dimensionality")
    serve_bench.add_argument("--queries", type=int, default=2_000,
                             help="single-query requests to serve")
    serve_bench.add_argument("--k", type=int, default=3)
    serve_bench.add_argument("--workers", type=int, default=2,
                             help="worker processes (0 = in-process)")
    serve_bench.add_argument("--max-batch", type=int, default=128,
                             help="micro-batch flush size")
    serve_bench.add_argument("--max-wait-ms", type=float, default=2.0,
                             help="micro-batch flush deadline")
    serve_bench.add_argument("--max-pending", type=int, default=None,
                             help="admission bound on queued requests "
                                  "(default: unbounded)")
    serve_bench.add_argument("--shed-policy", default="reject-new",
                             choices=["reject-new", "drop-oldest"],
                             help="what to shed when the admission queue "
                                  "is full")
    serve_bench.add_argument("--deadline-ms", type=float, default=None,
                             help="end-to-end deadline per request; past "
                                  "it the request fails with "
                                  "DeadlineExceeded (default: none)")
    serve_bench.add_argument("--heartbeat-timeout", type=float, default=30.0,
                             help="seconds a worker may hold unanswered "
                                  "work without responding before it is "
                                  "killed and replaced; "
                                  "<= 0 disables hang detection")
    serve_bench.add_argument("--cache-size", type=int, default=0,
                             help="LRU result-cache entries (0 = off)")
    serve_bench.add_argument("--shards", type=int, default=1,
                             help="serve through S shard snapshots via the "
                                  "scatter-gather coordinator (1 = the "
                                  "unsharded server)")
    serve_bench.add_argument("--shard-method", default="round-robin",
                             choices=["round-robin", "projected"],
                             help="corpus-to-shard assignment "
                                  "(projected = PROCLUS-style clusters)")
    serve_bench.add_argument("--mutate", action="store_true",
                             help="run an insert/delete/query mutation "
                                  "trace against the mutable server and "
                                  "check every answer bit-identical to a "
                                  "fresh rebuild (exact kinds only)")
    serve_bench.add_argument("--mutate-ops", type=int, default=200,
                             help="trace length in operations "
                                  "(default: 200)")
    serve_bench.add_argument("--insert-fraction", type=float, default=0.5,
                             help="fraction of trace ops that insert "
                                  "(default: 0.5)")
    serve_bench.add_argument("--delete-fraction", type=float, default=0.2,
                             help="fraction of trace ops that delete "
                                  "(default: 0.2)")
    serve_bench.add_argument("--compact-every", type=int, default=64,
                             help="compact (and hot-swap under in-flight "
                                  "queries) every N mutations "
                                  "(default: 64)")
    serve_bench.add_argument("--drift-threshold", type=float, default=None,
                             help="captured-energy ratio that triggers a "
                                  "drift re-reduction rebuild (projscreen "
                                  "only; default: off)")
    serve_bench.add_argument("--wal-sync", default=None,
                             choices=["always", "group", "off"],
                             help="write-ahead-log fsync policy for the "
                                  "mutation trace: always = fsync every "
                                  "op (no acked op ever lost), group = "
                                  "group commit, off = OS-paced "
                                  "(default: always; requires --mutate)")
    _add_index_arguments(serve_bench)
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.set_defaults(handler=_command_serve_bench)

    reduce = commands.add_parser(
        "reduce", help="write the reduced representation as CSV"
    )
    _add_dataset_arguments(reduce)
    reduce.add_argument("--components", type=int, default=None,
                        help="components to keep (default: automatic cut-off)")
    reduce.add_argument("--ordering", default="coherence",
                        choices=["eigenvalue", "coherence"])
    reduce.add_argument("--no-scale", action="store_true")
    reduce.add_argument("-o", "--output", required=True, help="output CSV path")
    reduce.set_defaults(handler=_command_reduce)

    index = commands.add_parser(
        "index", help="build or inspect similarity-search index snapshots"
    )
    index_commands = index.add_subparsers(dest="index_command", required=True)

    index_build = index_commands.add_parser(
        "build", help="build an index over a dataset and snapshot it"
    )
    _add_dataset_arguments(index_build)
    index_build.add_argument(
        "--index", "--kind",
        default="kdtree",
        choices=list(_INDEX_KINDS),
        help="index structure to build (default: kdtree); "
             "--kind is an alias",
    )
    _add_index_arguments(index_build)
    index_build.add_argument(
        "-o", "--output", required=True, help="output .npz snapshot path"
    )
    index_build.set_defaults(handler=_command_index_build)

    index_info = index_commands.add_parser(
        "info", help="describe a snapshot without rebuilding anything"
    )
    index_info.add_argument("path", help="path to a .npz index snapshot")
    index_info.set_defaults(handler=_command_index_info)

    shard = commands.add_parser(
        "shard", help="partition a corpus into shard snapshots"
    )
    shard_commands = shard.add_subparsers(dest="shard_command", required=True)

    shard_build = shard_commands.add_parser(
        "build",
        help="split a dataset into S shard snapshots plus a manifest",
    )
    _add_dataset_arguments(shard_build)
    shard_build.add_argument(
        "--shards", type=int, default=4, help="number of shards"
    )
    shard_build.add_argument(
        "--index", "--kind",
        default="kdtree",
        choices=list(_INDEX_KINDS),
        help="index structure to build per shard (default: kdtree); "
             "--kind is an alias",
    )
    _add_index_arguments(shard_build)
    shard_build.add_argument(
        "--method",
        default="round-robin",
        choices=["round-robin", "projected"],
        help="corpus-to-shard assignment "
             "(projected = PROCLUS-style clusters)",
    )
    shard_build.add_argument(
        "-o", "--output", required=True,
        help="output directory for shard snapshots and shards.json",
    )
    shard_build.set_defaults(handler=_command_shard_build)

    return parser


def main(argv=None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
