"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.config import ClugpConfig, GameConfig
from repro.graph import io
from repro.graph.generators import web_crawl_graph


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition"])
        args_dict = vars(args)
        assert args_dict["algorithm"] == "clugp"
        assert args_dict["partitions"] == 32

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "--algorithm", "bogus"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for alias in ("uk", "arabic", "webbase", "it", "twitter"):
            assert alias in out

    def test_partition(self, capsys):
        rc = main(
            ["partition", "--scale", "0.02", "-k", "4", "--algorithm", "hashing"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "replication_factor=" in out

    def test_partition_clugp_preferred_order(self, capsys):
        rc = main(["partition", "--scale", "0.02", "-k", "4", "--algorithm", "clugp"])
        assert rc == 0
        assert "algorithm=clugp" in capsys.readouterr().out

    def test_partition_writes_output(self, tmp_path, capsys):
        out_file = tmp_path / "parts.txt"
        rc = main(
            [
                "partition",
                "--scale",
                "0.02",
                "-k",
                "4",
                "--algorithm",
                "dbh",
                "--output",
                str(out_file),
            ]
        )
        assert rc == 0
        parts = np.loadtxt(out_file, dtype=int)
        assert parts.max() < 4

    def test_partition_from_edgelist(self, tmp_path, capsys):
        g = web_crawl_graph(200, avg_out_degree=5, seed=1)
        path = tmp_path / "g.edges"
        io.write_edgelist(g, path)
        rc = main(
            ["partition", "--edgelist", str(path), "-k", "2", "--algorithm", "hashing"]
        )
        assert rc == 0
        assert f"|E|={g.num_edges}" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(["compare", "--scale", "0.02", "-k", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("hashing", "dbh", "greedy", "hdrf", "mint", "clugp"):
            assert name in out

    def test_sweep(self, capsys):
        rc = main(
            [
                "sweep",
                "--scale",
                "0.02",
                "--k-values",
                "2,4",
                "--algorithms",
                "hashing,clugp",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "RF" in out and "clugp" in out

    def test_sweep_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit, match="unknown algorithms"):
            main(["sweep", "--scale", "0.02", "--algorithms", "bogus"])

    def test_pagerank(self, capsys):
        rc = main(
            ["pagerank", "--scale", "0.02", "-k", "4", "--rtt-ms", "20", "--supersteps", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "supersteps=5" in out
        assert "mode=local" in out
        assert "simulated" in out

    def test_pagerank_global_mode(self, capsys):
        rc = main(
            ["pagerank", "--scale", "0.02", "-k", "4", "--supersteps", "3", "--mode", "global"]
        )
        assert rc == 0
        assert "mode=global" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "app", ["pagerank", "sssp", "connected_components", "label_propagation"]
    )
    def test_run_app(self, capsys, app):
        rc = main(
            ["run-app", app, "--partitioner", "clugp", "-k", "8", "--scale", "0.02",
             "--supersteps", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"app={app}" in out
        assert "mode=local" in out
        assert "messages=" in out

    def test_run_app_sssp_explicit_source(self, capsys):
        rc = main(
            ["run-app", "sssp", "--partitioner", "hashing", "-k", "2",
             "--scale", "0.02", "--source", "0"]
        )
        assert rc == 0
        assert "source=0" in capsys.readouterr().out

    def test_run_app_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["run-app", "bogus"])

    @pytest.mark.parametrize("mode", ["independent", "merged"])
    def test_distribute(self, capsys, mode):
        rc = main(
            ["distribute", "--scale", "0.03", "-k", "4", "--num-nodes", "3",
             "--merge-mode", mode]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"[{mode}/thread]" in out
        assert "RF=" in out
        assert "node 0:" in out and "node 2:" in out
        if mode == "merged":
            assert "boundary" in out and "wire=" in out

    def test_distribute_process_backend(self, capsys):
        rc = main(
            ["distribute", "--scale", "0.03", "-k", "4", "--num-nodes", "2",
             "--merge-mode", "merged", "--backend", "process"]
        )
        assert rc == 0
        assert "[merged/process]" in capsys.readouterr().out

    def test_distribute_compare_modes(self, capsys):
        rc = main(
            ["distribute", "--scale", "0.03", "-k", "4", "--num-nodes", "4",
             "--compare-modes"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "independent" in out and "merged" in out
        assert "sync wire" in out

    def test_distribute_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            main(["distribute", "--merge-mode", "bogus"])


class TestServe:
    def test_serve(self, capsys):
        assert main([
            "serve", "--dataset", "uk", "--scale", "0.05", "-k", "4",
            "--num-batches", "4", "--migration-cap", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "served" in out
        assert "replication_factor=" in out

    def test_serve_json_with_oracle(self, capsys):
        import json

        assert main([
            "serve", "--dataset", "uk", "--scale", "0.05", "-k", "4",
            "--num-batches", "3", "--oracle", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["batches"] >= 3
        assert "rf_drift" in payload["summary"]
        assert len(payload["batches"]) == payload["summary"]["batches"]
        assert all(s.get("applied_moves") is not None for s in payload["batches"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.num_batches == 50
        assert args.migration_cap is None


class TestChunkImplFlags:
    """--chunk-impl / --kernel-backend on partition, serve, distribute."""

    def test_defaults(self):
        for command in ("partition", "serve", "distribute"):
            args = build_parser().parse_args([command])
            assert args.chunk_impl == ClugpConfig.chunk_impl == "jit"
            assert args.kernel_backend == "auto"

    def test_rejects_unknown_impl(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "--chunk-impl", "bogus"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--kernel-backend", "bogus"])

    @pytest.mark.parametrize("algorithm", ["hdrf", "greedy", "clugp"])
    def test_partition_jit_matches_fast(self, capsys, algorithm):
        base_args = [
            "partition", "--scale", "0.03", "-k", "4",
            "--algorithm", algorithm, "--chunk-size", "512",
        ]
        assert main(base_args) == 0
        fast_out = capsys.readouterr().out
        assert main(base_args + ["--chunk-impl", "jit"]) == 0
        jit_out = capsys.readouterr().out
        # identical quality metrics (all but the timing): bit-identical path
        strip = lambda out: out.split(" time=")[0]
        assert strip(fast_out) == strip(jit_out)

    def test_partition_reference_impl(self, capsys):
        assert main([
            "partition", "--scale", "0.02", "-k", "4", "--algorithm", "hdrf",
            "--chunk-size", "256", "--chunk-impl", "reference",
        ]) == 0
        assert "replication_factor=" in capsys.readouterr().out

    def test_partition_unsupported_algorithm_friendly_error(self):
        with pytest.raises(SystemExit, match="not supported"):
            main([
                "partition", "--scale", "0.02", "--algorithm", "hashing",
                "--chunk-impl", "fast",  # any non-default value
            ])

    def test_serve_accepts_jit(self, capsys):
        assert main([
            "serve", "--dataset", "uk", "--scale", "0.05", "-k", "4",
            "--num-batches", "3", "--chunk-impl", "jit",
        ]) == 0
        assert "served" in capsys.readouterr().out

    def test_distribute_accepts_jit(self, capsys):
        assert main([
            "distribute", "--scale", "0.03", "-k", "4", "--num-nodes", "2",
            "--merge-mode", "merged", "--chunk-impl", "jit",
        ]) == 0
        assert "RF=" in capsys.readouterr().out


class TestGameImplFlags:
    """--game-impl on partition, serve, distribute (PR 9)."""

    def test_defaults(self):
        for command in ("partition", "serve", "distribute"):
            args = build_parser().parse_args([command])
            assert args.game_impl == GameConfig.game_impl == "jit"

    def test_rejects_unknown_impl(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "--game-impl", "bogus"])

    @pytest.mark.parametrize("algorithm", ["clugp", "clugp-s", "clugp-g"])
    def test_partition_jit_matches_fast(self, capsys, algorithm):
        base_args = [
            "partition", "--scale", "0.03", "-k", "4",
            "--algorithm", algorithm,
        ]
        assert main(base_args) == 0
        fast_out = capsys.readouterr().out
        assert main(base_args + ["--game-impl", "jit"]) == 0
        jit_out = capsys.readouterr().out
        strip = lambda out: out.split(" time=")[0]
        assert strip(fast_out) == strip(jit_out)

    def test_partition_reference_impl(self, capsys):
        assert main([
            "partition", "--scale", "0.02", "-k", "4", "--algorithm", "clugp",
            "--game-impl", "reference",
        ]) == 0
        assert "replication_factor=" in capsys.readouterr().out

    def test_unsupported_algorithm_friendly_error(self):
        with pytest.raises(SystemExit, match="not supported"):
            main([
                "partition", "--scale", "0.02", "--algorithm", "hashing",
                "--game-impl", "fast",  # any non-default value
            ])
        # chunk-capable but not clugp-family: still a friendly exit
        with pytest.raises(SystemExit, match="not supported"):
            main([
                "partition", "--scale", "0.02", "--algorithm", "hdrf",
                "--game-impl", "fast",
            ])

    def test_serve_accepts_game_jit(self, capsys):
        assert main([
            "serve", "--dataset", "uk", "--scale", "0.05", "-k", "4",
            "--num-batches", "3", "--game-impl", "jit",
        ]) == 0
        assert "served" in capsys.readouterr().out

    def test_distribute_accepts_game_jit(self, capsys):
        assert main([
            "distribute", "--scale", "0.03", "-k", "4", "--num-nodes", "2",
            "--merge-mode", "merged", "--game-impl", "jit",
        ]) == 0
        assert "RF=" in capsys.readouterr().out


class TestReliabilityFlags:
    """PR-8 flags: friendly errors, checkpoint/resume, fault injection."""

    def test_missing_edgelist_friendly_error(self):
        with pytest.raises(SystemExit, match="file not found"):
            main(["partition", "--edgelist", "/definitely/not/here.txt"])

    def test_edgelist_directory_friendly_error(self, tmp_path):
        with pytest.raises(SystemExit, match="directory"):
            main(["partition", "--edgelist", str(tmp_path)])

    def test_corrupt_edgelist_strict_friendly_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nnot an edge\n")
        with pytest.raises(SystemExit, match="lenient"):
            main(["partition", "--edgelist", str(path)])

    def test_corrupt_edgelist_lenient_recovers(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 2\n2 0\nnot an edge\n")
        rc = main([
            "partition", "--edgelist", str(path), "--ingest-mode", "lenient",
            "-k", "2", "--algorithm", "hashing",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "dropped 1 malformed" in err

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="--resume requires --checkpoint-dir"):
            main(["serve", "--resume"])

    def test_resume_empty_dir_friendly_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot resume"):
            main([
                "serve", "--scale", "0.02", "--checkpoint-dir", str(tmp_path),
                "--resume",
            ])

    def test_bad_task_timeout(self):
        with pytest.raises(SystemExit, match="task-timeout must be positive"):
            main(["distribute", "--task-timeout", "0"])

    def test_bad_retries(self):
        with pytest.raises(SystemExit, match="retries must be"):
            main(["distribute", "--retries", "-2"])

    def test_bad_inject_spec(self):
        with pytest.raises(SystemExit, match="inject-faults"):
            main(["distribute", "--inject-faults", "meteor"])

    def test_bad_checkpoint_every(self):
        with pytest.raises(SystemExit, match="checkpoint-every"):
            main(["serve", "--checkpoint-every", "0"])

    def test_serve_checkpoint_then_resume_matches(self, tmp_path, capsys):
        args = ["serve", "--dataset", "uk", "--scale", "0.03", "-k", "4",
                "--num-batches", "5", "--checkpoint-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        # the resumed run re-serves nothing and reports the same final state
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_distribute_with_injected_crash_still_partitions(self, capsys):
        rc = main([
            "distribute", "--scale", "0.03", "-k", "4", "--num-nodes", "3",
            "--merge-mode", "merged", "--inject-faults", "crash,seed=1",
        ])
        assert rc == 0
        assert "RF=" in capsys.readouterr().out
