"""Check the ``BENCH_*.json`` artifacts that the smoke benches write.

Run after the benches, from the repository root::

    python benchmarks/validate_artifacts.py [results_dir]

``results_dir`` defaults to ``benchmarks/results``.  Every artifact must
parse, carry its ``schema`` tag and a non-empty row list whose rows hold
the required fields, with ``identical`` true wherever a row records it;
each artifact then has conditions of its own.  Every failure is printed
and the exit status is 1 if there was any.
"""

from __future__ import annotations

import json
import os
import sys

_RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


class ArtifactError(Exception):
    """An artifact is missing, malformed, or fails one of its conditions."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ArtifactError(message)


def _rows(data: dict, section: str, required: set, key: tuple) -> list:
    """The non-empty row list ``section``; rows named by their ``key`` fields."""
    rows = data.get(section)
    _require(bool(rows), f"{section} is empty")
    for row in rows:
        missing = required - set(row)
        _require(not missing, f"{section} row missing {sorted(missing)}")
        if "identical" in required:
            name = ", ".join(f"{field}={row[field]}" for field in key)
            _require(row["identical"], f"{section} row ({name}): answers diverged")
    return rows


def check_wal(data: dict) -> str:
    throughput = _rows(
        data, "throughput",
        {"sync_policy", "ops_per_second", "wal_appends", "n_ops"}, (),
    )
    policies = sorted(row["sync_policy"] for row in throughput)
    _require(policies == ["always", "group", "off"],
             f"unexpected sync policies: {policies}")
    for row in throughput:
        _require(row["ops_per_second"] > 0,
                 f"policy={row['sync_policy']}: non-positive mutation throughput")
        _require(row["wal_appends"] == row["n_ops"],
                 f"policy={row['sync_policy']}: append count does not match "
                 "acknowledged ops")
    replay = _rows(data, "replay", {"log_ops", "identical"}, ("log_ops",))
    return f"{len(throughput)} sync policies, {len(replay)} replay runs"


def check_mutation(data: dict) -> str:
    runs = _rows(data, "runs", {
        "kind", "n_initial", "n_ops", "n_inserts", "n_deletes", "n_queries",
        "n_compactions", "n_drift_compactions", "n_generations",
        "swap_inflight_queries", "identical", "query_qps",
    }, ("kind",))
    for row in runs:
        _require(row["n_compactions"] >= 1, f"kind={row['kind']}: no compaction ran")
        _require(row["swap_inflight_queries"] >= 1,
                 f"kind={row['kind']}: swap path unexercised")
    kinds = {row["kind"] for row in runs}
    _require(kinds == {"bruteforce", "kdtree", "projscreen"},
             f"unexpected kinds: {sorted(kinds)}")
    _require(all(row["n_drift_compactions"] >= 1
                 for row in runs if row["kind"] == "projscreen"),
             "projscreen run never drift-compacted")
    return f"{len(runs)} runs"


def check_multiprobe_lsh(data: dict) -> str:
    grid = _rows(data, "grid", {
        "n_tables", "n_probes", "effective_probes", "recall",
        "candidates_per_query", "scanned_per_query",
        "buckets_visited_per_query",
    }, ())
    for row in grid:
        _require(0.0 <= row["recall"] <= 1.0, f"recall out of range: {row['recall']}")
    tables = sorted({row["n_tables"] for row in grid})
    probes = sorted({row["n_probes"] for row in grid})
    _require(tables == data["config"]["tables"], f"table counts {tables} != config")
    _require(probes == data["config"]["probes"], f"probe counts {probes} != config")
    for n_tables in tables:
        recalls = [row["recall"] for row in grid if row["n_tables"] == n_tables]
        _require(recalls == sorted(recalls),
                 f"recall not monotone in probes at {n_tables} tables")
    refine = data.get("refine")
    _require(bool(refine), "refine section missing")
    for field in ("gather_seconds", "gemm_seconds", "speedup", "identical"):
        _require(field in refine, f"refine missing {field!r}")
    _require(refine["identical"], "gemm refine diverged from gather refine")
    return f"{len(grid)} grid rows"


def check_projection_screen(data: dict) -> str:
    runs = _rows(data, "runs", {
        "kind", "subspace_dim", "ordering", "pruning_fraction",
        "bound_tightness", "reduced_bytes", "refined_bytes", "total_bytes",
        "closed_loop_qps", "served_qps", "identical",
    }, ("kind", "subspace_dim", "ordering"))
    kinds = {row["kind"] for row in runs}
    _require(kinds == {"bruteforce", "projscreen"},
             f"expected bruteforce + projscreen rows, got {sorted(kinds)}")
    screened = [row for row in runs if row["kind"] == "projscreen"]
    dims = {row["subspace_dim"] for row in screened}
    _require(dims == {2, 4, 8, 16}, f"expected m in 2,4,8,16, got {sorted(dims)}")
    orderings = {row["ordering"] for row in screened}
    _require(orderings == {"eigen", "coherence"},
             f"expected both orderings, got {sorted(orderings)}")
    d = data["config"]["dims"]
    for row in screened:
        if row["subspace_dim"] == d // 4:
            _require(row["pruning_fraction"] >= 0.5,
                     f"pruning {row['pruning_fraction']:.3f} < 0.5 at m=d/4 "
                     f"({row['ordering']})")
    return f"{len(runs)} runs"


def check_sharding(data: dict) -> str:
    runs = _rows(data, "runs", {
        "shards", "method", "closed_loop_qps", "served_qps", "speedup",
        "n_ok", "n_shed", "n_deadline_exceeded", "n_failed", "n_cancelled",
        "identical",
    }, ("shards", "method"))
    shard_counts = {row["shards"] for row in runs}
    _require(shard_counts == {1, 2, 4, 8},
             f"expected shard counts 1,2,4,8, got {sorted(shard_counts)}")
    methods = {row["method"] for row in runs}
    _require(methods == {"round-robin", "projected"},
             f"expected both partition methods, got {sorted(methods)}")
    return f"{len(runs)} runs"


def check_robustness(data: dict) -> str:
    rows = _rows(data, "scenarios", {
        "scenario", "n_submitted", "n_ok", "n_shed", "n_deadline_exceeded",
        "n_failed", "n_unresolved", "n_restarts", "n_hung_kills",
        "n_resubmitted", "all_resolved", "identical",
    }, ("scenario",))
    for row in rows:
        _require(row["all_resolved"], f"{row['scenario']}: futures left unresolved")
        ledger = (row["n_ok"] + row["n_shed"] + row["n_deadline_exceeded"]
                  + row["n_failed"])
        _require(ledger == row["n_submitted"],
                 f"{row['scenario']}: ledger {ledger} != "
                 f"{row['n_submitted']} submitted")
    expected = {
        "baseline", "hung_worker", "crash_worker", "injected_error",
        "overload_reject", "overload_drop_oldest", "deadline_expiry",
    }
    missing = expected - {row["scenario"] for row in rows}
    _require(not missing, f"scenarios missing: {sorted(missing)}")
    return f"{len(rows)} scenarios, all resolved"


def check_serving(data: dict) -> str:
    runs = _rows(data, "runs", {
        "index", "n_workers", "closed_loop_qps", "served_qps", "speedup",
        "latency_p50_ms", "latency_p99_ms", "mean_batch_size", "identical",
    }, ("index", "n_workers"))
    kinds = {row["index"] for row in runs}
    _require(len(kinds) == 8, f"expected 8 index kinds, got {sorted(kinds)}")
    return f"{len(runs)} runs"


def check_build_latency(data: dict) -> str:
    rows = _rows(data, "per_index", {
        "index", "corpus_size", "build_seconds", "load_seconds",
        "ttfq_build_seconds", "ttfq_load_seconds", "identical",
    }, ("index", "corpus_size"))
    _require(bool(data.get("construction_speedups")),
             "construction_speedups is empty")
    return f"{len(rows)} rows"


# artifact file -> (schema tag, its own conditions)
ARTIFACTS = {
    "BENCH_wal.json": ("bench_wal/v1", check_wal),
    "BENCH_mutation.json": ("bench_mutation/v1", check_mutation),
    "BENCH_multiprobe_lsh.json": ("bench_multiprobe_lsh/v1", check_multiprobe_lsh),
    "BENCH_projection_screen.json": (
        "bench_projection_screen/v1", check_projection_screen,
    ),
    "BENCH_sharding.json": ("bench_sharding/v1", check_sharding),
    "BENCH_robustness.json": ("bench_robustness/v1", check_robustness),
    "BENCH_serving.json": ("bench_serving/v1", check_serving),
    "BENCH_build_latency.json": ("bench_build_latency/v1", check_build_latency),
}


def validate(path: str, schema: str, check) -> str:
    """Check one artifact; returns its summary or raises ArtifactError."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        raise ArtifactError(f"missing or unreadable: {error}") from None
    _require(data.get("schema") == schema,
             f"unexpected schema: {data.get('schema')!r}")
    try:
        return check(data)
    except (KeyError, TypeError) as error:
        raise ArtifactError(f"malformed: {type(error).__name__}: {error}") from None


def main(argv: list[str]) -> int:
    directory = argv[0] if argv else _RESULTS_DIR
    failed = 0
    for name, (schema, check) in ARTIFACTS.items():
        path = os.path.join(directory, name)
        try:
            print(f"ok: {name}: {validate(path, schema, check)}")
        except ArtifactError as error:
            print(f"FAIL: {path}: {error}", file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
