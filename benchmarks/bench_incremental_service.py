#!/usr/bin/env python
"""Incremental PartitionService: sustained throughput, churn, and RF drift.

Standalone script demonstrating the serving-path claims of the
incremental service (DESIGN.md §7):

* **single-batch bit-identity** — a service fed the whole stream as one
  batch produces the exact edge partition of the batch pipeline
  (``ClugpPartitioner.partition``), hard gate;
* **sustained ingest** over >= 50 batches with per-batch stats (edges/sec,
  applied/deferred moves, churned edges);
* **migration cap** — no batch applies more than ``--migration-cap``
  served-vertex moves, hard gate;
* **balance** — the served loads never exceed the Algorithm-1 hard cap
  ``ceil(tau * |E| / k)`` at any batch boundary, hard gate;
* **bounded RF drift** — the served replication factor at the end of the
  feed stays within ``DRIFT_CEILING`` (relative) of the from-scratch
  oracle on the same edges, hard gate.  The ceiling is deliberately loose
  against the measured drift (see DESIGN.md §7 for the measured numbers
  and the churn tradeoff) to absorb fixture noise, but tight enough to
  catch a broken warm start.

Usage::

    python benchmarks/bench_incremental_service.py           # full run
    python benchmarks/bench_incremental_service.py --quick   # CI smoke

Exit status is non-zero if any gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

import numpy as np

from repro.config import ClugpConfig, GameConfig
from repro.core.partitioner import ClugpPartitioner
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.service import PartitionService

#: relative RF excess over the from-scratch oracle allowed at feed end.
#: Measured on this fixture: +27.6% (cap 256), +27.8% (cap 1024) — the
#: residual is the price of never re-placing retained edges whose
#: endpoints did not move; see DESIGN.md §7 for the full tradeoff.
DRIFT_CEILING = 0.35
DRIFT_CEILING_QUICK = 0.45  # tiny quick fixture is noisier

NUM_BATCHES = 50


def build_stream(num_edges: int, seed: int = 7) -> EdgeStream:
    """A power-law web-crawl stand-in with ~``num_edges`` edges."""
    avg_out = 10.0
    graph = web_crawl_graph(
        max(64, int(num_edges / avg_out)),
        avg_out_degree=avg_out,
        host_size=30,
        intra_host_prob=0.88,
        seed=seed,
    )
    return EdgeStream.from_graph(graph, order="bfs")


def check_single_batch_identity(stream: EdgeStream, k: int, seed: int) -> bool:
    """Whole stream as one service batch == the batch pipeline, bit for bit."""
    cfg = ClugpConfig(num_partitions=k, game=GameConfig(seed=seed))
    reference = ClugpPartitioner(k, seed=seed, config=cfg).partition(stream)
    service = PartitionService(stream.num_vertices, cfg)
    service.ingest_pair(stream.src, stream.dst)
    return bool(
        np.array_equal(service.edge_partition, reference.edge_partition)
    )


def run_feed(
    stream: EdgeStream,
    k: int,
    seed: int,
    num_batches: int,
    migration_cap: int,
    oracle_checkpoints: tuple[int, ...],
) -> dict:
    """Replay ``stream`` as ``num_batches`` batches; collect the stats rows."""
    cfg = ClugpConfig(num_partitions=k, game=GameConfig(seed=seed))
    service = PartitionService(
        stream.num_vertices,
        cfg,
        migration_cap=migration_cap,
        expected_edges=stream.num_edges,
        quality_every=max(1, num_batches // 10),
    )
    batch_size = max(1, stream.num_edges // num_batches)
    drift_curve = []
    for src, dst in stream.batches(batch_size):
        stats = service.ingest_pair(src, dst)
        if stats.batch + 1 in oracle_checkpoints:
            rf = service.assignment().replication_factor()
            oracle_rf = service.oracle_assignment().replication_factor()
            stats.replication_factor = rf
            stats.rf_oracle = oracle_rf
            drift_curve.append(
                {"batch": stats.batch, "rf": rf, "rf_oracle": oracle_rf,
                 "drift": stats.rf_drift}
            )
    summary = service.summary()
    final = service.assignment()
    summary["replication_factor"] = final.replication_factor()
    summary["relative_balance"] = final.relative_balance()
    rows = [s.to_dict() for s in service.history]
    active = [s for s in service.history if s.num_edges]
    return {
        "summary": summary,
        "drift_curve": drift_curve,
        "batches": rows,
        "num_batches": len(service.history),
        "sustained_eps": summary["edges_per_second"],
        "median_batch_eps": float(np.median([s.edges_per_second for s in active])),
        "max_applied_moves": max(s.applied_moves for s in active),
        "mean_churn_edges": float(np.mean([s.churn_edges for s in active])),
        "max_loads": int(service.loads.max()),
        "load_cap": int(
            np.ceil(cfg.imbalance_factor * stream.num_edges / k)
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", type=int, default=100_000, help="stream size")
    parser.add_argument("-k", "--partitions", type=int, default=16)
    parser.add_argument("--num-batches", type=int, default=NUM_BATCHES)
    parser.add_argument("--migration-cap", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: small graph, relaxed drift ceiling",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write results as JSON"
    )
    args = parser.parse_args(argv)
    if args.edges <= 0 or args.partitions <= 0 or args.num_batches <= 0:
        parser.error("--edges, --partitions, and --num-batches must be positive")
    if args.migration_cap < 0:
        parser.error("--migration-cap must be >= 0")

    if args.quick:
        args.edges = min(args.edges, 20_000)
        args.partitions = min(args.partitions, 8)
        args.migration_cap = min(args.migration_cap, 128)
    ceiling = DRIFT_CEILING_QUICK if args.quick else DRIFT_CEILING

    stream = build_stream(args.edges, seed=7)
    print(
        f"stream: |V|={stream.num_vertices} |E|={stream.num_edges} "
        f"k={args.partitions} batches={args.num_batches} "
        f"migration_cap={args.migration_cap}"
    )

    failures = []

    identical = check_single_batch_identity(stream, args.partitions, args.seed)
    print(f"single-batch bit-identity vs batch pipeline: {identical}")
    if not identical:
        failures.append(
            "incremental: single-batch service != ClugpPartitioner.partition"
        )

    checkpoints = (args.num_batches // 2, args.num_batches)
    feed = run_feed(
        stream, args.partitions, args.seed, args.num_batches,
        args.migration_cap, checkpoints,
    )
    s = feed["summary"]
    print(
        f"feed: {s['num_edges']} edges / {feed['num_batches']} batches, "
        f"sustained {feed['sustained_eps']:,.0f} e/s "
        f"(median batch {feed['median_batch_eps']:,.0f} e/s)\n"
        f"moves applied={s['applied_moves']} deferred={s['deferred_moves']}, "
        f"churn mean={feed['mean_churn_edges']:.0f} edges/batch"
    )

    if feed["max_applied_moves"] > args.migration_cap:
        failures.append(
            f"incremental: a batch applied {feed['max_applied_moves']} moves, "
            f"above the cap {args.migration_cap}"
        )
    if feed["max_loads"] > feed["load_cap"]:
        failures.append(
            f"incremental: served load {feed['max_loads']} exceeds the hard "
            f"cap {feed['load_cap']}"
        )
    final_drift = feed["drift_curve"][-1]["drift"] if feed["drift_curve"] else None
    for point in feed["drift_curve"]:
        print(
            f"  batch {point['batch']:3d}: rf={point['rf']:.4f} "
            f"oracle={point['rf_oracle']:.4f} drift={point['drift']:+.2%}"
        )
    if final_drift is None:
        failures.append("incremental: no oracle checkpoint was recorded")
    elif final_drift > ceiling:
        failures.append(
            f"incremental: final RF drift {final_drift:+.2%} above the "
            f"{ceiling:.0%} ceiling"
        )
    else:
        print(f"final drift {final_drift:+.2%} within the {ceiling:.0%} ceiling")

    if args.json:
        report = {
            "edges": stream.num_edges,
            "vertices": stream.num_vertices,
            "partitions": args.partitions,
            "num_batches": args.num_batches,
            "migration_cap": args.migration_cap,
            "drift_ceiling": ceiling,
            "single_batch_identical": identical,
            "summary": feed["summary"],
            "drift_curve": feed["drift_curve"],
            "sustained_eps": feed["sustained_eps"],
            "median_batch_eps": feed["median_batch_eps"],
            "mean_churn_edges": feed["mean_churn_edges"],
            "max_applied_moves": feed["max_applied_moves"],
            "max_loads": feed["max_loads"],
            "load_cap": feed["load_cap"],
            "per_batch": feed["batches"],
        }
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.json}")

    if failures:
        print("\nFAIL:\n  " + "\n  ".join(failures))
        return 1
    print("\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
