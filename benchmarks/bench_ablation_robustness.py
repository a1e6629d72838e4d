"""Ablation — serving-stack robustness under injected faults.

The hardened serving layer (:mod:`repro.serve`) claims that degradation
is always *loud and typed*: under hung workers, crashes, overload, and
deadline expiry, every submitted future still resolves — with a result
or a typed :class:`ServingError` — and every answer that is delivered
stays bit-identical to sequential ``index.query``.  This bench replays
a deterministic fault matrix (:mod:`repro.serve.faults`) against a live
:class:`IndexServer` and records the degradation ledger per scenario:

* ``baseline`` — no faults, one worker (the control row).
* ``hung_worker`` — the first worker hangs on its first batch; the
  heartbeat must kill it and the clean replacement re-answer.
* ``crash_worker`` — the first worker dies hard mid-batch; restart plus
  resubmission must recover.
* ``injected_error`` — one batch raises; its requests must fail typed
  while the server keeps serving.
* ``overload_reject`` / ``overload_drop_oldest`` — a burst against a
  tiny admission bound under both shedding policies.
* ``deadline_expiry`` — request deadlines far shorter than the flush
  wait; every request must fail fast with ``DeadlineExceeded``.

Results land in ``benchmarks/results/BENCH_robustness.json`` (schema
``bench_robustness/v1``) plus a human-readable report.  Set
``REPRO_BENCH_ROBUSTNESS_SCALE=smoke`` for the tiny CI configuration —
the resolution and identity assertions hold at every scale.
"""

import json
import os
import tempfile

import numpy as np

import _experiments as exp
from repro.evaluation.reporting import format_table
from repro.search import BruteForceIndex
from repro.serve import (
    BatchPolicy,
    FaultPlan,
    FaultyLoader,
    IndexServer,
    ServerOverloaded,
    ServingError,
)
from repro.serve.bench import identical_results

_SMOKE = (
    os.environ.get("REPRO_BENCH_ROBUSTNESS_SCALE", "").lower() == "smoke"
)
_K = 3
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_JSON_NAME = "BENCH_robustness.json"
_RESOLVE_TIMEOUT = 60.0

if _SMOKE:
    _N, _D = 200, 6
    _N_QUERIES = 24
else:
    _N, _D = 2_000, 12
    _N_QUERIES = 64

_FAST = {"max_batch": 4}


def _scenarios(workdir):
    """The fault matrix: (name, server kwargs, submit deadline_ms)."""
    marker = lambda name: os.path.join(workdir, f"{name}.marker")  # noqa: E731
    fast = BatchPolicy(**_FAST)
    bounded = lambda shed: BatchPolicy(  # noqa: E731
        max_pending=4, shed_policy=shed, **_FAST
    )
    slow = FaultyLoader(FaultPlan(delay_all=0.05))
    return [
        ("baseline", dict(n_workers=1, policy=fast), None),
        (
            "hung_worker",
            dict(
                n_workers=1, policy=fast, heartbeat_timeout=0.25,
                index_loader=FaultyLoader(
                    FaultPlan(hang_on=(1,)), marker_path=marker("hang")
                ),
            ),
            None,
        ),
        (
            "crash_worker",
            dict(
                n_workers=1, policy=fast,
                index_loader=FaultyLoader(
                    FaultPlan(crash_on=(1,)), marker_path=marker("crash")
                ),
            ),
            None,
        ),
        (
            "injected_error",
            dict(
                n_workers=1, policy=fast,
                index_loader=FaultyLoader(FaultPlan(raise_on=(1,))),
            ),
            None,
        ),
        (
            "overload_reject",
            dict(n_workers=0, policy=bounded("reject-new"),
                 index_loader=slow),
            None,
        ),
        (
            "overload_drop_oldest",
            dict(n_workers=0, policy=bounded("drop-oldest"),
                 index_loader=slow),
            None,
        ),
        (
            # The first batch outlasts every 20 ms deadline, and the
            # requests queued behind it expire before it finishes.
            "deadline_expiry",
            dict(n_workers=0, policy=fast, index_loader=slow),
            20.0,
        ),
    ]


def _run_scenario(name, snapshot, expected, queries, kwargs, deadline_ms):
    """Replay the stream against one faulted server; return the ledger row."""
    observed = []
    n_unresolved = 0
    with IndexServer(snapshot, **kwargs) as server:
        futures = []
        for query in queries:
            try:
                futures.append(
                    server.submit(query, k=_K, deadline_ms=deadline_ms)
                )
            except ServerOverloaded:
                futures.append(None)
        for future in futures:
            if future is None:
                observed.append(None)
                continue
            try:
                observed.append(future.result(timeout=_RESOLVE_TIMEOUT))
            except ServingError:
                observed.append(None)
            except TimeoutError:
                observed.append(None)
                n_unresolved += 1
        report = server.stats()
    return {
        "scenario": name,
        "n_submitted": len(queries),
        "n_ok": report.n_requests,
        "n_shed": report.n_shed,
        "n_deadline_exceeded": report.n_deadline_exceeded,
        "n_failed": report.n_failed,
        "n_unresolved": n_unresolved,
        "n_restarts": report.n_restarts,
        "n_hung_kills": report.n_hung_kills,
        "n_resubmitted": report.n_resubmitted,
        "all_resolved": n_unresolved == 0,
        "identical": identical_results(expected, observed),
    }


def _run():
    rng = np.random.default_rng(exp.SEED)
    corpus = rng.standard_normal((_N, _D))
    queries = rng.standard_normal((_N_QUERIES, _D))
    index = BruteForceIndex(corpus)
    expected = [index.query(query, k=_K) for query in queries]
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        snapshot = os.path.join(workdir, "bruteforce.npz")
        index.save(snapshot)
        for name, kwargs, deadline_ms in _scenarios(workdir):
            rows.append(
                _run_scenario(
                    name, snapshot, expected, queries, kwargs, deadline_ms
                )
            )
    return rows


def _emit_json(rows):
    payload = {
        "schema": "bench_robustness/v1",
        "config": {
            "scale": "smoke" if _SMOKE else "full",
            "corpus_size": _N,
            "dims": _D,
            "n_queries": _N_QUERIES,
            "k": _K,
            "seed": exp.SEED,
        },
        "scenarios": rows,
    }
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, _JSON_NAME), "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def test_ablation_robustness(benchmark, capsys):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    _emit_json(rows)

    table = format_table(
        [
            "scenario", "submitted", "ok", "shed", "deadline", "failed",
            "restarts", "hung kills", "resubmitted", "all resolved",
            "bit-identical",
        ],
        [
            (
                row["scenario"],
                row["n_submitted"],
                row["n_ok"],
                row["n_shed"],
                row["n_deadline_exceeded"],
                row["n_failed"],
                row["n_restarts"],
                row["n_hung_kills"],
                row["n_resubmitted"],
                "yes" if row["all_resolved"] else "NO",
                "yes" if row["identical"] else "NO",
            )
            for row in rows
        ],
        title=(
            "Serving robustness under injected faults "
            f"({_N:,} x {_D} corpus, {_N_QUERIES} queries/scenario)"
        ),
    )
    exp.emit(table, "ablation_robustness", capsys)

    by_name = {row["scenario"]: row for row in rows}
    # The two invariants that hold in EVERY scenario: no future is left
    # unresolved, and no delivered answer ever differs from sequential
    # query — degradation sheds or fails, it never approximates.
    for row in rows:
        assert row["all_resolved"], f"{row['scenario']} left futures hanging"
        assert row["identical"], f"{row['scenario']} delivered wrong answers"
        accounted = (
            row["n_ok"] + row["n_shed"] + row["n_deadline_exceeded"]
            + row["n_failed"]
        )
        assert accounted == row["n_submitted"], (
            f"{row['scenario']} ledger does not balance: "
            f"{accounted} != {row['n_submitted']}"
        )
    # Scenario-specific recovery evidence.
    assert by_name["baseline"]["n_ok"] == _N_QUERIES
    assert by_name["hung_worker"]["n_hung_kills"] == 1
    assert by_name["hung_worker"]["n_ok"] == _N_QUERIES
    assert by_name["crash_worker"]["n_restarts"] >= 1
    assert by_name["crash_worker"]["n_ok"] == _N_QUERIES
    assert by_name["injected_error"]["n_failed"] >= 1
    assert by_name["overload_reject"]["n_shed"] > 0
    assert by_name["overload_drop_oldest"]["n_shed"] > 0
    assert by_name["deadline_expiry"]["n_deadline_exceeded"] == _N_QUERIES
