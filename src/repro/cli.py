"""Command-line interface: ``clugp <command>`` (or ``python -m repro.cli``).

Commands
--------
``partition``  partition a dataset or edge-list file with one algorithm
``compare``    run the full competitor set and print the quality table
``sweep``      replication factor vs number of partitions (Figure-3 style)
``datasets``   list the synthetic stand-in datasets
``pagerank``   partition + run PageRank on the GAS system layer
``run-app``    partition + execute any vertex program end to end on the
               partition-local GAS runtime (``run-app pagerank
               --partitioner clugp -k 8``)
``distribute`` shard the stream across ingest nodes and run the
               distributed CLUGP deployment — the two-round cluster merge
               (``distribute --num-nodes 8 --backend persistent``)
``serve``      replay a dataset as a timed batch feed through the
               incremental :class:`~repro.service.PartitionService`
               (``serve --num-batches 50 --migration-cap 64``); see
               docs/service.md
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, kernels
from .analysis.report import compare_partitioners
from .analysis.metrics import quality_report
from .config import ClugpConfig, GameConfig, ReliabilityConfig
from .graph.datasets import DATASETS, load_dataset
from .graph.io import read_edgelist
from .graph.stream import EdgeStream
from .reliability.ingest import DropReport, IngestError
from .partitioners.registry import PARTITIONERS, make_partitioner
from .system import LocalGasRuntime
from .system.network import NetworkModel
from .system.apps import APPS
from .system.apps.pagerank import pagerank

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse ``type=`` of the strictly-positive count flags: a usage
    error (exit 2, the flag named) instead of a traceback further in."""
    value = int(text)  # a ValueError is argparse's own "invalid value" error
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the ``clugp`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="clugp",
        description="CLUGP: clustering-based vertex-cut partitioning (ICDE 2022 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dataset", default="uk", help="dataset alias (see `datasets`)")
    common.add_argument("--edgelist", default=None, help="edge-list file instead of a dataset")
    common.add_argument("--scale", type=float, default=0.2, help="dataset scale factor")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument(
        "-k", "--partitions", type=_positive_int, default=32, help="number of partitions"
    )
    common.add_argument(
        "--ingest-mode",
        default="strict",
        choices=["strict", "lenient"],
        help="strict: abort on the first malformed edge-list row; "
        "lenient: drop bad rows and report the counts",
    )

    p_part = sub.add_parser(
        "partition", parents=[common], help="run one partitioner"
    )
    p_part.add_argument(
        "--algorithm", default="clugp", choices=sorted(PARTITIONERS), help="algorithm"
    )
    p_part.add_argument("--output", default=None, help="write edge->partition ids to this file")
    p_part.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "read the stream as chunks of at most N edges in every pass "
            "(default 65536; the assignment does not depend on N)"
        ),
    )

    sub.add_parser("compare", parents=[common], help="compare all algorithms")

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="RF vs number of partitions"
    )
    p_sweep.add_argument(
        "--k-values",
        default="4,16,64",
        help="comma-separated partition counts (default 4,16,64)",
    )
    p_sweep.add_argument(
        "--algorithms",
        default="hdrf,hashing,clugp",
        help="comma-separated algorithm names",
    )

    sub.add_parser("datasets", help="list dataset stand-ins")

    p_pr = sub.add_parser("pagerank", parents=[common], help="partition + simulate PageRank")
    p_pr.add_argument("--algorithm", default="clugp", choices=sorted(PARTITIONERS))
    p_pr.add_argument("--rtt-ms", type=float, default=10.0, help="network RTT in ms")
    p_pr.add_argument("--supersteps", type=_positive_int, default=30, help="max supersteps")

    p_app = sub.add_parser(
        "run-app",
        parents=[common],
        help="partition + execute a vertex program on the local GAS runtime",
    )
    p_app.add_argument("app", choices=sorted(APPS), help="vertex program to run")
    p_app.add_argument(
        "--partitioner", default="clugp", choices=sorted(PARTITIONERS),
        help="partitioning algorithm deployed under the runtime",
    )
    p_app.add_argument("--rtt-ms", type=float, default=10.0, help="network RTT in ms")
    p_app.add_argument("--supersteps", type=_positive_int, default=30, help="max supersteps")
    p_app.add_argument(
        "--source", type=int, default=None,
        help="sssp source vertex (default: highest out-degree vertex)",
    )

    p_dist = sub.add_parser(
        "distribute",
        parents=[common],
        help="run the distributed CLUGP deployment (Section III-C)",
    )
    p_dist.add_argument(
        "--num-nodes", type=_positive_int, default=4, help="ingest nodes (default 4)"
    )
    p_dist.add_argument(
        "--backend",
        default="thread",
        choices=["thread", "persistent"],
        help="executor the node stages run on: an in-process thread pool, "
        "or worker processes fed and read over shared memory",
    )
    p_dist.add_argument(
        "--chunk-size", type=_positive_int, default=None, metavar="N",
        help="each node reads its shard as chunks of at most N edges",
    )
    p_dist.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard-task deadline; a task past it is killed and retried",
    )
    p_dist.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max retries per failed/timed-out shard task (default 2)",
    )
    p_dist.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic fault injection, e.g. 'crash,hang,seed=7' "
        "(kinds: crash, hang, slow, corrupt; chaos testing only)",
    )

    p_serve = sub.add_parser(
        "serve",
        parents=[common],
        help="replay the stream as a batch feed through PartitionService",
    )
    p_serve.add_argument(
        "--num-batches", type=int, default=50,
        help="number of batches to split the stream into (default 50)",
    )
    p_serve.add_argument(
        "--migration-cap", type=int, default=None, metavar="N",
        help="max served-vertex moves per batch (default: unbounded)",
    )
    p_serve.add_argument(
        "--quality-every", type=int, default=10, metavar="N",
        help="collect RF/balance every N batches (costs O(E); default 10)",
    )
    p_serve.add_argument(
        "--oracle", action="store_true",
        help="also run the from-scratch pipeline at the end and report drift",
    )
    p_serve.add_argument(
        "--json", action="store_true",
        help="emit the per-batch stats and summary as JSON",
    )
    p_serve.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint the service into DIR (plus a write-ahead batch "
        "journal); enables crash recovery via --resume",
    )
    p_serve.add_argument(
        "--resume", action="store_true",
        help="resume from the newest checkpoint in --checkpoint-dir "
        "(replays the journal, then continues the feed where it stopped)",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint every N batches (default from config: 1); "
        "batches in between are journaled",
    )
    return parser


def _load_stream(args) -> EdgeStream:
    if args.edgelist:
        mode = getattr(args, "ingest_mode", "strict")
        report = DropReport()
        try:
            graph = read_edgelist(args.edgelist, mode=mode, report=report)
        except FileNotFoundError:
            raise SystemExit(
                f"clugp: edge-list file not found: {args.edgelist!r}"
            ) from None
        except IsADirectoryError:
            raise SystemExit(
                f"clugp: --edgelist expects a file, got a directory: "
                f"{args.edgelist!r}"
            ) from None
        except IngestError as exc:
            raise SystemExit(
                f"clugp: cannot read {args.edgelist!r}: {exc}\n"
                f"(--ingest-mode lenient drops malformed rows instead of "
                f"aborting)"
            ) from None
        except (UnicodeDecodeError, ValueError) as exc:
            raise SystemExit(
                f"clugp: {args.edgelist!r} is not a readable edge list: {exc}"
            ) from None
        if report.total_dropped:
            print(
                f"warning: dropped {report.total_dropped} malformed rows "
                f"from {args.edgelist}: {dict(report.dropped)}",
                file=sys.stderr,
            )
    else:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    return EdgeStream.from_graph(graph, order="natural")


def _resolved_backend(partitioner) -> str | None:
    """Kernel backend a partitioner's kernel seams run on (``cc`` or
    ``python``) — None when the algorithm has none (only hdrf, greedy and
    the clugp family do)."""
    if not (hasattr(partitioner, "_backend") or hasattr(partitioner, "config")):
        return None
    return kernels.backend_name()


def _cmd_partition(args) -> int:
    stream = _load_stream(args)
    partitioner = make_partitioner(args.algorithm, args.partitions, seed=args.seed)
    if partitioner.preferred_order != "natural":
        stream = stream.reordered(partitioner.preferred_order, seed=args.seed)
    assignment = partitioner.partition(stream, chunk_size=args.chunk_size)
    report = quality_report(
        assignment,
        algorithm=partitioner.name,
        state_memory_bytes=partitioner.state_memory_bytes(stream),
    )
    backend = _resolved_backend(partitioner)
    print(
        f"algorithm={report.algorithm} k={report.num_partitions} "
        f"|V|={report.num_vertices} |E|={report.num_edges}\n"
        f"replication_factor={report.replication_factor:.4f} "
        f"balance={report.relative_balance:.4f} mirrors={report.mirrors} "
        f"time={report.runtime_seconds:.3f}s "
        f"kernel_backend={backend}"
    )
    if args.output:
        np.savetxt(args.output, assignment.edge_partition, fmt="%d")
        print(f"edge partition ids written to {args.output}")
    return 0


def _cmd_compare(args) -> int:
    stream = _load_stream(args)
    names = ["hashing", "dbh", "greedy", "hdrf", "mint", "clugp"]
    partitioners = [make_partitioner(n, args.partitions, seed=args.seed) for n in names]
    table = compare_partitioners(
        partitioners, stream, title=f"k={args.partitions} on {args.dataset}"
    )
    print(table)
    return 0


def _cmd_sweep(args) -> int:
    from .bench.harness import rf_vs_partitions, series_table

    stream = _load_stream(args)
    k_values = [int(tok) for tok in args.k_values.split(",") if tok]
    algorithms = [tok.strip().lower() for tok in args.algorithms.split(",") if tok]
    unknown = [a for a in algorithms if a not in PARTITIONERS]
    if unknown:
        raise SystemExit(f"unknown algorithms: {unknown}; known: {sorted(PARTITIONERS)}")
    result = rf_vs_partitions(stream, k_values, algorithms=algorithms, seed=args.seed)
    print(series_table(result, title=f"RF vs k on {args.dataset}"))
    return 0


def _cmd_datasets(_args) -> int:
    print(f"{'alias':10s} {'kind':7s} {'paper |V|':>9s} {'paper |E|':>9s}  source")
    for spec in DATASETS.values():
        print(
            f"{spec.alias:10s} {spec.kind:7s} {spec.paper_vertices:>9s} "
            f"{spec.paper_edges:>9s}  {spec.source}"
        )
    return 0


def _deploy(stream, algorithm: str, args):
    """partition -> placement -> engine: the end-to-end deployment path."""
    partitioner = make_partitioner(algorithm, args.partitions, seed=args.seed)
    if partitioner.preferred_order != "natural":
        stream = stream.reordered(partitioner.preferred_order, seed=args.seed)
    assignment = partitioner.partition(stream)
    network = NetworkModel().with_rtt(args.rtt_ms / 1000.0)
    engine = LocalGasRuntime(assignment, network=network)
    return partitioner, assignment, engine


def _cmd_pagerank(args) -> int:
    partitioner, assignment, engine = _deploy(_load_stream(args), args.algorithm, args)
    _, cost = pagerank(engine, max_supersteps=args.supersteps)
    print(
        f"algorithm={partitioner.name} k={args.partitions} mode={engine.mode} "
        f"RF={assignment.replication_factor():.3f}\n"
        f"supersteps={cost.num_supersteps} messages={cost.total_messages} "
        f"volume={cost.total_bytes / 1e6:.2f}MB\n"
        f"compute={cost.compute_seconds:.4f}s comm={cost.comm_seconds:.4f}s "
        f"total={cost.total_seconds:.4f}s (simulated)"
    )
    return 0


def _cmd_run_app(args) -> int:
    stream = _load_stream(args)
    partitioner, assignment, engine = _deploy(stream, args.partitioner, args)
    app = APPS[args.app]
    kwargs = {}
    if args.app == "sssp":
        source = args.source
        if source is None:
            source = int(np.bincount(stream.src, minlength=stream.num_vertices).argmax())
        kwargs["source"] = source
    if args.app == "label_propagation":
        kwargs["max_iters"] = args.supersteps
    else:
        kwargs["max_supersteps"] = args.supersteps
    values, cost = app(engine, **kwargs)
    print(
        f"app={args.app} algorithm={partitioner.name} k={args.partitions} "
        f"mode={engine.mode} RF={assignment.replication_factor():.3f}"
    )
    if args.app == "sssp":
        reached = int(np.isfinite(values).sum())
        print(f"source={kwargs['source']} reached={reached}/{values.size}")
    elif args.app in ("connected_components", "label_propagation"):
        print(f"distinct_labels={np.unique(values).size}")
    print(cost.summary() + " (simulated)")
    return 0


def _reliability_config(args):
    """Fold the distribute reliability flags into a ReliabilityConfig."""
    from .reliability.faults import FaultInjector, FaultSpecError

    kwargs = {}
    if args.task_timeout is not None:
        if args.task_timeout <= 0:
            raise SystemExit(
                f"clugp: --task-timeout must be positive, got {args.task_timeout}"
            )
        kwargs["task_timeout"] = args.task_timeout
    if args.retries is not None:
        if args.retries < 0:
            raise SystemExit(f"clugp: --retries must be >= 0, got {args.retries}")
        kwargs["max_retries"] = args.retries
    if args.inject_faults:
        try:
            FaultInjector.from_spec(args.inject_faults, honor_env=False)
        except FaultSpecError as exc:
            raise SystemExit(f"clugp: bad --inject-faults spec: {exc}") from None
        kwargs["inject_faults"] = args.inject_faults
    return ReliabilityConfig(**kwargs)


def _cmd_distribute(args) -> int:
    from .core.distributed import distributed_clugp

    stream = _load_stream(args)
    cfg = ClugpConfig(
        num_partitions=args.partitions,
        game=GameConfig(seed=args.seed),
        reliability=_reliability_config(args),
    )
    result = distributed_clugp(
        stream,
        args.partitions,
        num_nodes=args.num_nodes,
        config=cfg,
        seed=args.seed,
        chunk_size=args.chunk_size,
        backend=args.backend,
    )
    print(result.summary())
    print(f"kernel_backend={kernels.backend_name()}")
    for node in result.nodes:
        print(
            f"  node {node.node}: edges={node.num_edges} "
            f"clusters={node.num_clusters} splits={node.splits} "
            f"game_rounds={node.game_rounds} time={node.seconds:.3f}s"
        )
    return 0


def _cmd_serve(args) -> int:
    import json as _json

    from .reliability.checkpoint import CheckpointError
    from .service import PartitionService

    if args.resume and not args.checkpoint_dir:
        raise SystemExit("clugp: --resume requires --checkpoint-dir")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        raise SystemExit(
            f"clugp: --checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )
    stream = _load_stream(args)
    rel = ReliabilityConfig()
    if args.checkpoint_every is not None:
        rel = rel.with_(checkpoint_every=args.checkpoint_every)
    cfg = ClugpConfig(
        num_partitions=args.partitions,
        game=GameConfig(seed=args.seed),
        reliability=rel,
    )
    if args.resume:
        try:
            svc = PartitionService.resume(args.checkpoint_dir)
        except CheckpointError as exc:
            raise SystemExit(
                f"clugp: cannot resume from {args.checkpoint_dir!r}: {exc}"
            ) from None
        print(
            f"resumed at batch {svc.batch_index} "
            f"({svc.num_edges} edges already served)",
            file=sys.stderr,
        )
    else:
        svc = PartitionService(
            stream.num_vertices,
            cfg,
            migration_cap=args.migration_cap,
            expected_edges=stream.num_edges,
            quality_every=max(1, args.quality_every),
            checkpoint_dir=args.checkpoint_dir,
        )
    batch_size = max(1, stream.num_edges // max(1, args.num_batches))
    for batch_no, (src, dst) in enumerate(stream.batches(batch_size)):
        if batch_no < svc.batch_index:
            continue  # already served before the resume point
        stats = svc.ingest_pair(src, dst)
        if not args.json:
            rf = (
                f" rf={stats.replication_factor:.4f}"
                if stats.replication_factor is not None
                else ""
            )
            print(
                f"batch {stats.batch:4d}: +{stats.num_edges} edges "
                f"({stats.edges_per_second:,.0f} e/s) "
                f"moves={stats.applied_moves}/{stats.candidate_moves} "
                f"churn={stats.churn_edges}{rf}"
            )
    summary = svc.summary()
    final = svc.assignment()
    summary["replication_factor"] = final.replication_factor()
    summary["relative_balance"] = final.relative_balance()
    summary["kernel_backend"] = kernels.backend_name()
    if args.oracle:
        oracle_rf = svc.oracle_assignment().replication_factor()
        summary["rf_oracle"] = oracle_rf
        if oracle_rf > 0:
            summary["rf_drift"] = (
                summary["replication_factor"] - oracle_rf
            ) / oracle_rf
    if args.json:
        print(_json.dumps(
            {"summary": summary, "batches": [s.to_dict() for s in svc.history]},
            indent=2,
        ))
        return 0
    spent = sum(summary["phase_seconds"].values())
    if spent > 0:
        print("phase seconds (sum over batches; quality is outside the e/s figure):")
        for phase, seconds in summary["phase_seconds"].items():
            print(f"  {phase:<14s}{seconds:9.4f}  {seconds / spent:6.1%}")
    print(
        f"served {summary['num_edges']} edges in {summary['batches']} batches "
        f"({summary['edges_per_second']:,.0f} e/s sustained)\n"
        f"replication_factor={summary['replication_factor']:.4f} "
        f"balance={summary['relative_balance']:.4f} "
        f"moves={summary['applied_moves']} churn={summary['churn_edges']} "
        f"kernel_backend={summary['kernel_backend']}"
    )
    if args.oracle:
        print(
            f"oracle_rf={summary['rf_oracle']:.4f} "
            f"drift={summary.get('rf_drift', 0.0):+.2%}"
        )
    return 0


_COMMANDS = {
    "partition": _cmd_partition,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "datasets": _cmd_datasets,
    "pagerank": _cmd_pagerank,
    "run-app": _cmd_run_app,
    "distribute": _cmd_distribute,
    "serve": _cmd_serve,
}


def main(argv=None) -> int:
    """CLI entry point: parse ``argv`` and dispatch to the subcommand."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
