"""Crash injection: resume is bit-identical to never having crashed.

The WAL's guarantee under ``wal_sync="always"`` is that the bytes on
disk at *any* acknowledged-op boundary are a complete crash image:
every acked mutation is fsync'd before the ack, and every generation
transition is durable before the manifest repoints.  So copying the
store directory mid-stream *is* a crash (modulo torn writes, which the
torn-tail tests inject separately), and a genuine ``os._exit`` child
process double-checks the equivalence.  These tests cut a seeded
500-op trace at dozens of boundaries — including immediately after
compactions and across injected publish/commit faults — resume from
each image, and demand answers bit-identical (neighbors, distances,
tie-breaks) to the uninterrupted server, for both the single server
and a 3-shard coordinator.
"""

import multiprocessing
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.search.snapshot import GenerationError
from repro.serve import MutableIndexServer
from repro.serve.wal import read_wal
from repro.shard.mutation import MutableShardedServer


def _answers(server, probes, k=3):
    """Exact (id, distance) tuples for every probe — compared with ==."""
    k = min(k, server.n_live)
    return [
        tuple(
            (n.index, n.distance)
            for n in server.query(probe, k).neighbors
        )
        for probe in probes
    ]


@pytest.fixture
def trace_data():
    rng = np.random.default_rng(42)
    corpus = rng.standard_normal((40, 5))
    probes = rng.standard_normal((4, 5))
    return corpus, probes, rng


class TestCrashResumeIdentity:
    def test_single_server_500_op_trace(self, tmp_path, trace_data):
        """Cut every 10 ops (and after every compaction); resume each."""
        corpus, probes, rng = trace_data
        root = os.path.join(tmp_path, "live")
        cuts = []

        def snapshot(tag):
            copy = os.path.join(tmp_path, f"cut-{tag}")
            shutil.copytree(root, copy)
            cuts.append(
                (
                    copy,
                    _answers(server, probes),
                    server.n_live,
                    server.next_row_id,
                )
            )

        with MutableIndexServer(root, corpus, kind="kdtree") as server:
            live = list(range(40))
            for step in range(1, 501):
                if rng.random() < 0.55 or len(live) <= 4:
                    live.append(server.insert(rng.standard_normal(5)))
                else:
                    victim = live.pop(int(rng.integers(len(live))))
                    server.delete(victim)
                if step % 100 == 0:
                    server.compact()
                    snapshot(f"{step:03d}-post-compact")
                if step % 10 == 0:
                    snapshot(f"{step:03d}")
        assert len(cuts) == 55
        for copy, want, n_live, next_row_id in cuts:
            with MutableIndexServer(copy, kind="kdtree") as resumed:
                assert resumed.n_live == n_live
                assert resumed.next_row_id == next_row_id
                assert _answers(resumed, probes) == want

    def test_sharded_500_op_trace(self, tmp_path, trace_data):
        corpus, probes, rng = trace_data
        root = os.path.join(tmp_path, "live")
        cuts = []
        with MutableShardedServer(
            root, corpus, n_shards=3, kind="bruteforce"
        ) as server:
            live = list(range(40))
            for step in range(1, 501):
                if rng.random() < 0.55 or len(live) <= 4:
                    live.append(server.insert(rng.standard_normal(5)))
                else:
                    victim = live.pop(int(rng.integers(len(live))))
                    server.delete(victim)
                if step % 125 == 0:
                    server.compact_all()
                if step % 25 == 0:
                    copy = os.path.join(tmp_path, f"cut-{step:03d}")
                    shutil.copytree(root, copy)
                    cuts.append(
                        (
                            copy,
                            _answers(server, probes),
                            server.n_live,
                            server.next_row_id,
                        )
                    )
        assert len(cuts) == 20
        for copy, want, n_live, next_row_id in cuts:
            with MutableShardedServer(
                copy, n_shards=3, kind="bruteforce"
            ) as resumed:
                assert resumed.n_live == n_live
                # The recovered global id counter never reuses an
                # acknowledged id, even though the crash may have cut
                # the shards at different per-member op counts.
                assert resumed.next_row_id == next_row_id
                assert _answers(resumed, probes) == want
                batch = resumed.query_batch(probes, 3)
                assert [
                    tuple((n.index, n.distance) for n in r.neighbors)
                    for r in batch.results
                ] == want

    def test_genuine_process_kill(self, tmp_path, trace_data):
        """A child seeds + mutates + ``os._exit``s; resume matches a twin.

        The twin runs the identical op sequence in-process and closes
        cleanly — if copy-as-crash and kill-as-crash disagree, this
        test catches it.
        """
        corpus, probes, _ = trace_data
        crashed = os.path.join(tmp_path, "crashed")
        twin = os.path.join(tmp_path, "twin")
        np.save(os.path.join(tmp_path, "corpus.npy"), corpus)
        child = (
            "import numpy as np, os\n"
            "from repro.serve import MutableIndexServer\n"
            f"corpus = np.load({os.path.join(tmp_path, 'corpus.npy')!r})\n"
            f"server = MutableIndexServer({crashed!r}, corpus, "
            "kind='kdtree')\n"
            "rng = np.random.default_rng(9)\n"
            "for _ in range(20):\n"
            "    server.insert(rng.standard_normal(5))\n"
            "for victim in (3, 17, 44):\n"
            "    server.delete(victim)\n"
            "os._exit(1)  # no close(), no compact(): a real crash\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", child], env=env, timeout=60
        )
        assert result.returncode == 1
        with MutableIndexServer(twin, corpus, kind="kdtree") as reference:
            rng = np.random.default_rng(9)
            for _ in range(20):
                reference.insert(rng.standard_normal(5))
            for victim in (3, 17, 44):
                reference.delete(victim)
            want = _answers(reference, probes)
            n_live = reference.n_live
        with MutableIndexServer(crashed, kind="kdtree") as resumed:
            assert resumed.n_live == n_live
            assert _answers(resumed, probes) == want


class TestPublishBoundaryFaults:
    def test_commit_fault_adopts_nothing(self, tmp_path, trace_data):
        """A compaction dying at the commit point changes no answer."""
        corpus, probes, rng = trace_data
        root = os.path.join(tmp_path, "c")
        with MutableIndexServer(root, corpus, kind="kdtree") as server:
            for _ in range(8):
                server.insert(rng.standard_normal(5))
            server.delete(2)
            want = _answers(server, probes)
            real_commit = server.store.commit

            def faulty_commit(info):
                raise RuntimeError("injected crash at the commit point")

            server.store.commit = faulty_commit
            try:
                with pytest.raises(RuntimeError, match="injected"):
                    server.compact()
            finally:
                server.store.commit = real_commit
            # In-memory state was never touched ...
            assert server.generation_id == 0
            assert server.memtable_ops == 9
            assert _answers(server, probes) == want
            # ... the on-disk image still resumes to the same answers
            # (the orphan generation directory is invisible) ...
            copy = os.path.join(tmp_path, "crash-image")
            shutil.copytree(root, copy)
            with MutableIndexServer(copy, kind="kdtree") as resumed:
                assert _answers(resumed, probes) == want
            # ... mutations keep flowing, and the retried compaction
            # succeeds and sweeps the orphan directory.
            server.insert(rng.standard_normal(5))
            info = server.compact()
            assert info.generation_id >= 1
            assert server.memtable_ops == 0
            names = set(os.listdir(root))
            assert {g.directory for g in server.store.generations()} <= {
                os.path.join(root, n) for n in names
            }

    def test_manifest_replace_fault_is_atomic(
        self, tmp_path, trace_data, monkeypatch
    ):
        """Dying inside the manifest rename leaves the old manifest."""
        corpus, probes, rng = trace_data
        root = os.path.join(tmp_path, "m")
        with MutableIndexServer(root, corpus, kind="kdtree") as server:
            for _ in range(5):
                server.insert(rng.standard_normal(5))
            want = _answers(server, probes)

            import repro.search.snapshot as snapshot_module

            real_replace = snapshot_module.os.replace

            def faulty_replace(src, dst):
                if dst.endswith("generations.json"):
                    raise OSError("injected crash inside rename")
                return real_replace(src, dst)

            monkeypatch.setattr(
                snapshot_module.os, "replace", faulty_replace
            )
            with pytest.raises(OSError, match="injected"):
                server.compact()
            monkeypatch.undo()
            assert server.generation_id == 0
            assert _answers(server, probes) == want
            copy = os.path.join(tmp_path, "crash-image")
            shutil.copytree(root, copy)
            with MutableIndexServer(copy, kind="kdtree") as resumed:
                assert _answers(resumed, probes) == want

    def test_rotation_seeds_survivors_before_commit(
        self, tmp_path, trace_data
    ):
        """The new generation's log already holds the surviving state.

        Inspecting the committed WAL directly: rows inserted before the
        cut are compacted into the base (not re-logged); tombstones of
        base rows are carried so a resume masks them.
        """
        corpus, probes, rng = trace_data
        root = os.path.join(tmp_path, "rot")
        with MutableIndexServer(root, corpus, kind="kdtree") as server:
            server.insert(rng.standard_normal(5))
            server.compact()
            server.delete(40)  # now a base row; tombstone must carry
            server.compact()
            # After the second compaction the memtable is empty and the
            # tombstone was satisfied by the rebuild: the fresh log
            # carries nothing.
            replay = read_wal(server.store.active().wal_path)
            assert replay.ops == ()
            want = _answers(server, probes)
        with MutableIndexServer(root, kind="kdtree") as resumed:
            assert _answers(resumed, probes) == want


class TestWalDamage:
    def test_torn_tail_truncates_only_the_tear(self, tmp_path, trace_data):
        corpus, probes, rng = trace_data
        root = os.path.join(tmp_path, "torn")
        with MutableIndexServer(root, corpus, kind="kdtree") as server:
            for _ in range(6):
                server.insert(rng.standard_normal(5))
            want = _answers(server, probes)
            wal_path = server.store.active().wal_path
        with open(wal_path, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00\xde\xad")  # half a frame
        with MutableIndexServer(root, kind="kdtree") as resumed:
            assert resumed.n_live == 46
            assert _answers(resumed, probes) == want
            # The reopened writer truncated the tear: appends land on a
            # well-formed log and the next resume sees all of them.
            resumed.insert(rng.standard_normal(5))
        with MutableIndexServer(root, kind="kdtree") as again:
            assert again.n_live == 47

    def test_mid_stream_corruption_refused(self, tmp_path, trace_data):
        corpus, _, rng = trace_data
        root = os.path.join(tmp_path, "corrupt")
        with MutableIndexServer(root, corpus, kind="kdtree") as server:
            for _ in range(4):
                server.insert(rng.standard_normal(5))
            wal_path = server.store.active().wal_path
        blob = bytearray(open(wal_path, "rb").read())
        blob[20] ^= 0xFF  # inside the first record, history damaged
        with open(wal_path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(GenerationError, match="mid-stream"):
            MutableIndexServer(root, kind="kdtree")

    def test_refused_resume_leaves_nothing_running(
        self, tmp_path, trace_data
    ):
        """A log refused on resume starts no thread and no worker."""
        corpus, _, rng = trace_data
        root = os.path.join(tmp_path, "refused")
        with MutableIndexServer(
            root, corpus, kind="kdtree", n_workers=1
        ) as server:
            for _ in range(4):
                server.insert(rng.standard_normal(5))
            wal_path = server.store.active().wal_path
        with open(wal_path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[20] ^= 0xFF  # inside the first record, history damaged
        with open(wal_path, "wb") as handle:
            handle.write(bytes(blob))
        before = set(threading.enumerate())
        with pytest.raises(GenerationError, match="mid-stream"):
            MutableIndexServer(root, kind="kdtree", n_workers=1)
        started = [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-") and thread not in before
        ]
        assert started == []
        assert multiprocessing.active_children() == []

    def test_semantic_corruption_refused(self, tmp_path, trace_data):
        """A well-framed log whose ops contradict the base is corrupt."""
        corpus, _, rng = trace_data
        root = os.path.join(tmp_path, "sem")
        with MutableIndexServer(root, corpus, kind="kdtree") as server:
            server.insert(rng.standard_normal(5))
            wal_path = server.store.active().wal_path
        from repro.serve.wal import WalWriter

        replay = read_wal(wal_path)
        with WalWriter(
            wal_path, truncate_to=replay.valid_bytes
        ) as writer:
            writer.append_delete(9999)  # no such row anywhere
        with pytest.raises(GenerationError, match="unknown row"):
            MutableIndexServer(root, kind="kdtree")

    @pytest.mark.parametrize("policy", ["group", "off"])
    def test_clean_close_is_lossless_under_any_policy(
        self, tmp_path, trace_data, policy
    ):
        corpus, probes, rng = trace_data
        root = os.path.join(tmp_path, policy)
        with MutableIndexServer(
            root, corpus, kind="kdtree", wal_sync=policy
        ) as server:
            for _ in range(9):
                server.insert(rng.standard_normal(5))
            server.delete(0)
            want = _answers(server, probes)
        with MutableIndexServer(root, kind="kdtree") as resumed:
            assert resumed.n_live == 48
            assert _answers(resumed, probes) == want

    def test_pre_wal_generation_resumes_without_log(
        self, tmp_path, trace_data
    ):
        """A store published before WALs existed still resumes."""
        corpus, probes, rng = trace_data
        root = os.path.join(tmp_path, "legacy")
        with MutableIndexServer(root, corpus, kind="kdtree") as server:
            server.insert(rng.standard_normal(5))
            server.compact()
            wal_path = server.store.active().wal_path
        # Re-create the pre-WAL on-disk shape: no log file, no manifest
        # "wal" key.
        os.unlink(wal_path)
        import json

        manifest = os.path.join(root, "generations.json")
        raw = json.load(open(manifest))
        for entry in raw["generations"]:
            entry.pop("wal", None)
        with open(manifest, "w") as handle:
            json.dump(raw, handle)
        with MutableIndexServer(root, kind="kdtree") as resumed:
            assert resumed.n_live == 41
            # The first mutation starts a fresh log at the
            # conventional path, upgrading the store in place.
            resumed.insert(rng.standard_normal(5))
            assert os.path.exists(wal_path)
        with MutableIndexServer(root, kind="kdtree") as again:
            assert again.n_live == 42
