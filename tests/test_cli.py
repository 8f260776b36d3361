"""Tests for the command-line interface."""

import json

import numpy as np
import pytest
from conftest import kernel_backend

from repro import kernels
from repro.cli import build_parser, main
from repro.graph import io
from repro.graph.datasets import load_dataset
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.partitioners.registry import make_partitioner


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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["partition", "-k", "0"], "-k/--partitions"),
            (["partition", "--chunk-size", "0"], "--chunk-size"),
            (["partition", "--chunk-size", "-5"], "--chunk-size"),
            (["distribute", "--num-nodes", "0"], "--num-nodes"),
            (["distribute", "--chunk-size", "0"], "--chunk-size"),
            (["pagerank", "--supersteps", "0"], "--supersteps"),
            (["run-app", "pagerank", "--supersteps", "-1"], "--supersteps"),
            (["serve", "-k", "x"], "-k/--partitions"),
        ],
    )
    def test_nonpositive_count_is_a_usage_error(self, argv, flag, capsys):
        # exit 2 from argparse with the flag named — these reached
        # check_positive_int and died with a ValueError traceback
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--scale", "0.02"])
        assert exit_info.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_flags_whose_domain_includes_zero_keep_it(self):
        args = build_parser().parse_args(
            ["distribute", "--retries", "0", "--seed", "0"]
        )
        assert (args.retries, args.seed) == (0, 0)
        assert build_parser().parse_args(["serve", "--migration-cap", "0"]).migration_cap == 0

    def test_chunk_size_help_says_what_it_does(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "at most N edges in every pass" in text and "ignore" not in text


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

    @pytest.mark.parametrize("command", ["pagerank", "run-app pagerank"])
    def test_mode_flag_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--scale", "0.02", "--mode", "global"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err

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

    @pytest.mark.parametrize("num_nodes", [1, 3])
    def test_distribute(self, capsys, num_nodes):
        rc = main(
            ["distribute", "--scale", "0.03", "-k", "4", "--num-nodes", str(num_nodes)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[thread]" in out
        assert "RF=" in out
        assert f"node {num_nodes - 1}:" in out and f"node {num_nodes}:" not in out
        assert "boundary" in out and "wire=" in out

    def test_distribute_persistent_backend(self, capsys):
        rc = main(
            ["distribute", "--scale", "0.03", "-k", "4", "--num-nodes", "2",
             "--backend", "persistent"]
        )
        assert rc == 0
        assert "[persistent]" in capsys.readouterr().out

    def test_distribute_refuses_process_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["distribute", "--scale", "0.03", "--backend", "process"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--backend" in err and "'thread', 'persistent'" in err

    @pytest.mark.parametrize("flag", [["--merge-mode", "merged"], ["--compare-modes"]])
    def test_distribute_has_no_mode_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["distribute", "--scale", "0.03", *flag])
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err


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


def _partition_ids(tmp_path, *args):
    """``clugp partition ... --output``'s written edge->partition ids."""
    out = tmp_path / "parts.txt"
    assert main(["partition", "--scale", "0.02", "-k", "4", "--output", str(out), *args]) == 0
    return np.loadtxt(out, dtype=np.int64)


def _out(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _assert_tiers_write_the_same_ids(tmp_path, *args):
    with kernel_backend("python"):
        fast = _partition_ids(tmp_path, *args)
    with kernel_backend("auto"):
        jit = _partition_ids(tmp_path, *args)
    assert np.array_equal(fast, jit)


def _per_edge_ids(algorithm):
    """What ``_partition_ids`` should hold, by the per-edge reference."""
    stream = EdgeStream.from_graph(load_dataset("uk", scale=0.02, seed=0), order="natural")
    partitioner = make_partitioner(algorithm, 4, seed=0)
    if partitioner.preferred_order != "natural":
        stream = stream.reordered(partitioner.preferred_order, seed=0)
    return partitioner.partition_per_edge(stream).edge_partition


class TestChunkImplFlags:
    """``--chunk-impl`` / ``--kernel-backend`` are retired: the process picks
    the tier, ``CLUGP_KERNEL_BACKEND`` forces one, the CLI reports it."""

    def test_defaults(self):
        for command in ("partition", "serve", "distribute"):
            args = build_parser().parse_args([command])
            assert not {"chunk_impl", "kernel_backend", "game_impl"} & set(vars(args))

    def test_rejects_unknown_impl(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "--chunk-impl", "jit"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--kernel-backend", "cc"])

    @pytest.mark.parametrize("algorithm", ["hdrf", "greedy", "clugp"])
    def test_partition_jit_matches_fast(self, tmp_path, algorithm):
        _assert_tiers_write_the_same_ids(
            tmp_path, "--algorithm", algorithm, "--chunk-size", "512"
        )

    def test_partition_reference_impl(self, tmp_path):
        # what the CLI writes is what the per-edge reference computes
        ids = _partition_ids(tmp_path, "--algorithm", "hdrf", "--chunk-size", "256")
        assert np.array_equal(ids, _per_edge_ids("hdrf"))

    def test_serve_accepts_jit(self, capsys):
        with kernel_backend("python"):
            out = _out(capsys, "serve", "--scale", "0.05", "-k", "4", "--num-batches", "3")
        assert "served" in out and "kernel_backend=python" in out

    def test_distribute_accepts_jit(self, capsys):
        with kernel_backend("python"):
            out = _out(capsys, "distribute", "--scale", "0.03", "-k", "4", "--num-nodes", "2")
        assert "RF=" in out and "kernel_backend=python" in out


class TestGameImplFlags:
    """``--game-impl`` is retired with them; pass 2 follows the same tier."""

    def test_defaults(self, capsys, monkeypatch):
        # environment unset: the compiled path wherever one loads; forced:
        # that tier; and an algorithm with no compiled seam reports none
        monkeypatch.delenv("CLUGP_KERNEL_BACKEND", raising=False)
        for algorithm, tier, reported in (
            ("clugp", "auto", kernels.backend_name()),
            ("hdrf", "python", "python"),
            ("hashing", "python", None),
        ):
            with kernel_backend(tier):
                out = _out(capsys, "partition", "--scale", "0.02", "--algorithm", algorithm)
            assert out.rstrip().endswith(f"kernel_backend={reported}")
        assert kernels.backend_name() == ("cc" if kernels.available() else "python")

    def test_rejects_unknown_impl(self):
        for command in ("partition", "serve", "distribute"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--game-impl", "jit"])

    @pytest.mark.parametrize("algorithm", ["clugp", "clugp-g"])
    def test_partition_jit_matches_fast(self, tmp_path, algorithm):
        _assert_tiers_write_the_same_ids(tmp_path, "--algorithm", algorithm)

    def test_partition_reference_impl(self, tmp_path):
        # clugp's per-edge reference plays pass 2 with best_response_dynamics
        ids = _partition_ids(tmp_path, "--algorithm", "clugp")
        assert np.array_equal(ids, _per_edge_ids("clugp"))

    def test_serve_accepts_game_jit(self, capsys):
        out = _out(capsys, "serve", "--scale", "0.05", "-k", "4", "--num-batches", "3", "--json")
        summary = json.loads(out)["summary"]
        assert summary["kernel_backend"] == kernels.backend_name()

    def test_distribute_accepts_game_jit(self, capsys):
        out = _out(
            capsys, "distribute", "--scale", "0.03", "-k", "4", "--num-nodes", "2",
            "--backend", "persistent",
        )
        assert "RF=" in out and f"kernel_backend={kernels.backend_name()}" in out


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
            "--inject-faults", "crash,seed=1",
        ])
        assert rc == 0
        assert "RF=" in capsys.readouterr().out
