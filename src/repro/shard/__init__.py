"""Sharded scatter-gather serving: one corpus, S snapshots, exact answers.

One index snapshot per corpus caps a deployment at one machine's memory
and one pool's throughput.  This package splits the corpus into S shard
snapshots and serves them behind a coordinator whose merged answers are
**bit-identical** to the unsharded index — same neighbors, same
distances, same tie ordering, per-shard
:class:`~repro.search.results.QueryStats` summed:

* :mod:`repro.shard.partition` — split a corpus into shard snapshots
  plus global-id sidecars and a validated ``shards.json`` manifest
  (:func:`build_shards`, :func:`partition_labels`,
  :func:`load_manifest`).  Assignment is ``"round-robin"`` or
  ``"projected"`` (PROCLUS-style projected clusters via
  :mod:`repro.clustering`).
* :mod:`repro.shard.merge` — the exact top-k merge by
  ``(distance, global id)`` (:func:`merge_results`,
  :func:`merge_batches`), with the bit-identity argument in its module
  docstring.  Mutable serving folds its base answer and its memtable
  scan through the same merge.
* :mod:`repro.shard.server` — :class:`ShardedIndexServer`, the
  :class:`~repro.serve.server.IndexServer` request pipeline (one
  batcher, one deadline reaper, one ledger) over a fan-out that sends
  each batch to every shard, with the typed
  :class:`~repro.serve.errors.ShardError` partial-failure policy (never
  a silent partial top-k).
* :mod:`repro.shard.bench` — :func:`compare_sharded_serving`, the
  unsharded-baseline measurement harness shared by the CLI and
  ``benchmarks/bench_ablation_sharding.py``.
* :mod:`repro.shard.mutation` — :class:`MutableShardedServer`, the
  same request pipeline over a fan-out to per-shard
  :class:`~repro.serve.mutation.MutableBackend` memtables: global row
  ids allocated centrally and routed by ``id % S``, per-shard
  compaction/generations, and the same exact global merge.
"""

from repro.shard.bench import ShardedComparison, compare_sharded_serving
from repro.shard.merge import merge_batches, merge_results
from repro.shard.mutation import MutableShardedServer
from repro.shard.partition import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    PARTITION_METHODS,
    ShardManifest,
    ShardManifestError,
    ShardSpec,
    build_shards,
    load_manifest,
    partition_labels,
)
from repro.shard.server import ShardedIndexServer

__all__ = [
    "build_shards",
    "compare_sharded_serving",
    "load_manifest",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "merge_batches",
    "merge_results",
    "MutableShardedServer",
    "PARTITION_METHODS",
    "partition_labels",
    "ShardedComparison",
    "ShardedIndexServer",
    "ShardManifest",
    "ShardManifestError",
    "ShardSpec",
]
