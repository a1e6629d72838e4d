"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


class TestDiagnoseCommand:
    def test_preset(self, capsys):
        assert main(["diagnose", "ionosphere", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "reducible" in out
        assert "coherence probability" in out

    def test_uniform_is_noisy(self, capsys):
        assert main(["diagnose", "uniform"]) == 0
        assert "noisy" in capsys.readouterr().out

    def test_csv_input(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = [
            ",".join(f"{v:.4f}" for v in rng.normal(size=6)) + f",{i % 2}"
            for i in range(40)
        ]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["diagnose", str(path)]) == 0
        assert "data.csv" in capsys.readouterr().out

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit, match="neither a preset"):
            main(["diagnose", "no-such-dataset"])


class TestEvaluateCommand:
    def test_noisy_preset_with_coherence_ordering(self, capsys):
        assert main(
            ["evaluate", "noisy-a", "--ordering", "coherence", "--no-scale"]
        ) == 0
        out = capsys.readouterr().out
        assert "optimal accuracy" in out
        assert "1%-threshold" in out


class TestSweepCommand:
    def test_prints_curve_and_optimum(self, capsys):
        assert main(["sweep", "ionosphere", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "accuracy vs dimensionality" in out
        assert "optimum:" in out


class TestReduceCommand:
    def test_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "reduced.csv"
        assert main(
            ["reduce", "ionosphere", "--components", "4", "-o", str(output)]
        ) == 0
        lines = output.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(header) == 5  # 4 components + label
        assert header[-1] == "label"
        assert len(lines) == 1 + 351
        assert "wrote 351 rows" in capsys.readouterr().out

    def test_automatic_budget_default(self, tmp_path):
        output = tmp_path / "auto.csv"
        assert main(["reduce", "noisy-b", "--no-scale", "-o", str(output)]) == 0
        header = output.read_text().splitlines()[0].split(",")
        assert 2 <= len(header) <= 20  # automatic cut picks the concepts


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_ordering(self):
        with pytest.raises(SystemExit):
            main(["sweep", "ionosphere", "--ordering", "best"])


class TestExperimentCommand:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out
        assert "table1" in out
        assert "sec3" in out

    def test_run_single(self, capsys):
        from repro.cli import main

        assert main(["experiment", "sec3"]) == 0
        out = capsys.readouterr().out
        assert "Eq. 5 prediction" in out
        assert "0.6827" in out

    def test_unknown_id_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiment", "fig99"])


class TestExperimentJobs:
    def test_comma_separated_ids_in_order(self, capsys):
        assert main(["experiment", "sec3,sec3"]) == 0
        out = capsys.readouterr().out
        assert out.count("Eq. 5 prediction") == 2

    def test_process_pool_output_matches_serial(self, capsys):
        assert main(["experiment", "sec3,sec3"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiment", "sec3,sec3", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(SystemExit, match="jobs"):
            main(["experiment", "sec3", "--jobs", "0"])

    def test_unknown_id_fails_before_any_run(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiment", "sec3,fig99", "--jobs", "2"])


class TestServeBenchCommand:
    def test_in_process_smoke(self, capsys):
        assert main(
            [
                "serve-bench", "--n", "120", "--dims", "4", "--queries",
                "20", "--workers", "0", "--cache-size", "8",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "bit-identical to sequential" in out
        assert "in-process" in out
        assert "cache hits" in out

    def test_non_default_index_kind(self, capsys):
        assert main(
            [
                "serve-bench", "--index", "kdtree", "--n", "100", "--dims",
                "4", "--queries", "12", "--workers", "0",
            ]
        ) == 0
        assert "kdtree" in capsys.readouterr().out

    def test_rejects_negative_workers(self):
        with pytest.raises(SystemExit, match="workers"):
            main(["serve-bench", "--workers", "-1", "--n", "50"])

    @pytest.mark.parametrize(
        "flag, value", [("--cache-size", "-1"), ("--k", "0"), ("--n", "0")]
    )
    def test_bad_value_exits_with_error_line(self, flag, value):
        # Values the index or the server rejects end in one error line,
        # like the checks the command makes itself, not a traceback.
        options = {"--workers": "0", "--n": "200", "--queries": "20"}
        options[flag] = value
        argv = [part for item in options.items() for part in item]
        with pytest.raises(SystemExit, match="error:"):
            main(["serve-bench", *argv])

    @pytest.mark.parametrize("workers", ["0", "1"])
    def test_sharded_smoke(self, workers, capsys):
        assert main(
            [
                "serve-bench", "--shards", "2", "--n", "120", "--dims", "4",
                "--queries", "20", "--workers", workers,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded scatter-gather serving" in out
        (identity,) = [
            line for line in out.splitlines()
            if line.startswith("bit-identical to sequential")
        ]
        assert identity.split("|")[1].strip() == "yes"


class TestServeBenchMutateCommand:
    def test_mutate_smoke(self, capsys):
        assert main(
            [
                "serve-bench", "--mutate", "--index", "kdtree",
                "--n", "60", "--dims", "4", "--queries", "8", "--k", "3",
                "--mutate-ops", "40", "--compact-every", "20",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "mutable serving" in out
        assert "bit-identical to fresh rebuild" in out
        assert "yes" in out

    def test_mutate_wal_sync_policy(self, capsys):
        assert main(
            [
                "serve-bench", "--mutate", "--index", "kdtree",
                "--n", "60", "--dims", "4", "--queries", "8", "--k", "3",
                "--mutate-ops", "30", "--compact-every", "20",
                "--wal-sync", "group",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "wal sync policy" in out
        assert "group" in out

    def test_wal_sync_requires_mutate(self):
        with pytest.raises(SystemExit, match="--wal-sync requires"):
            main(
                [
                    "serve-bench", "--wal-sync", "always",
                    "--n", "60", "--dims", "4",
                ]
            )

    def test_mutate_rejects_non_exact_kind(self):
        with pytest.raises(SystemExit, match="cannot serve mutations"):
            main(
                [
                    "serve-bench", "--mutate", "--index", "lsh",
                    "--n", "60", "--dims", "4",
                ]
            )

    def test_registry_derived_flags_keep_kind_rejection(self):
        # The serve-bench parser derives its index flags from the
        # registry specs; a wrong-kind flag still fails loudly.
        with pytest.raises(SystemExit, match="n-probes"):
            main(
                [
                    "serve-bench", "--mutate", "--index", "kdtree",
                    "--n", "60", "--dims", "4", "--n-probes", "3",
                ]
            )

    def test_registry_choices_enforced_by_argparse(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "serve-bench", "--index", "vafile", "--n", "60",
                    "--bit-allocation", "nonsense",
                ]
            )


class TestIndexBuildCommand:
    def test_projscreen_with_kind_alias(self, tmp_path, capsys):
        out_path = tmp_path / "proj.npz"
        assert main(
            [
                "index", "build", "uniform", "--kind", "projscreen",
                "--subspace-dim", "8", "--ordering", "coherence",
                "-o", str(out_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "projscreen" in out
        assert "screen 8/50 dims" in out
        assert "coherence-ordered" in out

        from repro.search import ProjectionScreenedIndex, load_index

        loaded = load_index(str(out_path))
        assert type(loaded) is ProjectionScreenedIndex
        assert loaded.subspace_dim == 8
        assert loaded.ordering == "coherence"

    def test_projscreen_flags_rejected_for_other_kinds(self, tmp_path):
        with pytest.raises(SystemExit, match="subspace-dim"):
            main(
                [
                    "index", "build", "uniform", "--index", "kdtree",
                    "--subspace-dim", "4",
                    "-o", str(tmp_path / "kd.npz"),
                ]
            )
        with pytest.raises(SystemExit, match="ordering"):
            main(
                [
                    "index", "build", "uniform", "--index", "kdtree",
                    "--ordering", "eigen",
                    "-o", str(tmp_path / "kd.npz"),
                ]
            )

    def test_out_of_range_subspace_dim_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="subspace_dim"):
            main(
                [
                    "index", "build", "uniform", "--kind", "projscreen",
                    "--subspace-dim", "999",
                    "-o", str(tmp_path / "p.npz"),
                ]
            )


class TestShardBuildCommand:
    def test_projscreen_shards_share_projection(self, tmp_path, capsys):
        out_dir = tmp_path / "shards"
        assert main(
            [
                "shard", "build", "uniform", "--kind", "projscreen",
                "--shards", "3", "--subspace-dim", "5",
                "-o", str(out_dir),
            ]
        ) == 0
        assert "3 x projscreen shards" in capsys.readouterr().out

        from repro.search import load_index
        from repro.shard import load_manifest

        manifest = load_manifest(str(out_dir))
        loaded = [
            load_index(spec.snapshot_path) for spec in manifest.shards
        ]
        first = loaded[0].projection.matrix
        assert first.shape == (50, 5)
        for shard_index in loaded[1:]:
            assert np.array_equal(shard_index.projection.matrix, first)


class TestExperimentSaveDir:
    def test_reports_written(self, tmp_path, capsys):
        from repro.cli import main

        save_dir = str(tmp_path / "reports")
        assert main(["experiment", "sec3", "--save-dir", save_dir]) == 0
        report = (tmp_path / "reports" / "sec3.txt").read_text()
        assert "Eq. 5 prediction" in report
        assert "reports written" in capsys.readouterr().out
