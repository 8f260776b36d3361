#!/usr/bin/env python
"""Run the engineering benchmarks and write one consolidated JSON report.

This is the perf-trajectory entry point: each PR that touches a hot path
runs ``python benchmarks/run_all.py --json BENCH_pr10.json`` and CI runs
the ``--quick`` variant on every push, so regressions in any of the
enforced floors fail loudly and the JSON artifacts accumulate a
machine-readable history of the repo's throughput claims.

Sections (each with its own floors; exit status is non-zero if any fails):

* ``clugp_stages`` — bench_clugp_stages: per-pass timings and the >= 4x
  end-to-end CLUGP chunked floor.
* ``distributed_stages`` — stage-accounting smoke: the
  ``critical_path`` wall must be positive and strictly below the summed
  node total on a multi-node run.
* ``distributed_merge`` — distributed CLUGP across
  ``num_nodes in {1, 2, 4, 8}``: one node must be bit-identical to the
  single-machine pipeline, the replication factor must never exceed
  that of per-shard CLUGP runs concatenated (strictly lower at 8 nodes),
  balance must hold the global tau cap, and the per-run rows record
  stage walls plus measured merge/broadcast/quota wire bytes.
* ``incremental`` — bench_incremental_service: the PartitionService
  serving path — single-batch bit-identity vs the batch pipeline,
  sustained edges/sec over >= 50 batches, per-batch migration cap and
  hard balance cap respected, and end-of-feed RF drift vs the
  from-scratch oracle under the documented ceiling.
* ``fig8_pagerank`` — bench_fig8_pagerank: the partition-local runtime
  parity gate (measured messages vs the ``2*sum(|P(v)|-1)`` replication
  formula on every superstep) plus the runtime's ``RunCost.to_dict()``
  profile, so app runtime enters the perf trajectory.
* ``reliability`` — bench_reliability: the fault-tolerance runtime —
  checkpoint+journal and summary-validation overhead on fault-free runs
  under the <= 5% ceiling (relaxed in --quick), resume-from-checkpoint
  beating a full recompute, and the chaos bit-identity gates
  (deterministic crash/hang/corrupt/slow injection leaves the partition
  bit-identical on the thread and persistent backends).
* ``persistent_workers`` — bench_persistent: the persistent
  shared-memory worker runtime — ``backend="persistent"``, spawned per
  call and resident, bit-identical to ``thread`` at num_nodes in
  {1, 4, 8}, the pool's spawn seconds and resident per-call
  wall at 8 nodes on the ~100k-edge fixture (reported, not gated),
  exactly 0 pickled ndarray bytes on the shared-memory ingest plane, and
  no leaked ``/dev/shm`` segments after pool teardown.

Usage::

    python benchmarks/run_all.py --json BENCH_pr8.json     # full run
    python benchmarks/run_all.py --quick --json out.json   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)
if os.path.isdir(_SRC) and _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

import numpy as np

import bench_clugp_stages
import bench_fig8_pagerank
import bench_incremental_service
import bench_persistent
import bench_reliability
from repro.config import ClugpConfig
from repro.core.distributed import distributed_clugp
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream

def _run_sub_bench(module, label: str, quick: bool) -> tuple[dict, list[str]]:
    """Run a standalone bench module, returning its JSON report + failures."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        path = tmp.name
    try:
        argv = ["--json", path] + (["--quick"] if quick else [])
        status = module.main(argv)
        with open(path) as fh:
            report = json.load(fh)
    finally:
        os.unlink(path)
    failures = [] if status == 0 else [f"{label}: floors failed (see output above)"]
    return report, failures


def run_distributed_stage_smoke(quick: bool) -> tuple[dict, list[str]]:
    """Check the critical-path wall is recorded and sane."""
    num_pages = 2_000 if quick else 10_000
    graph = web_crawl_graph(num_pages, avg_out_degree=8, host_size=25, seed=3)
    stream = EdgeStream.from_graph(graph)
    num_nodes = 4
    result = distributed_clugp(
        stream,
        num_partitions=8,
        num_nodes=num_nodes,
        config=ClugpConfig(num_partitions=8),
    )
    times = result.assignment.stage_times
    total = times.total
    critical_path = times.walls.get("critical_path", 0.0)
    report = {
        "num_nodes": num_nodes,
        "summed_node_seconds": total,
        "critical_path_seconds": critical_path,
        "wall_time": result.assignment.wall_time(),
    }
    failures = []
    if not 0.0 < critical_path < total:
        failures.append(
            f"distributed_stages: critical_path wall {critical_path:.4f}s not within "
            f"(0, summed total {total:.4f}s) on a {num_nodes}-node run"
        )
    if result.assignment.wall_time() != critical_path:
        failures.append(
            "distributed_stages: wall_time() does not report the critical_path wall"
        )
    print(
        f"distributed_stages: {num_nodes} nodes: summed {total*1000:.0f}ms, "
        f"critical path {critical_path*1000:.0f}ms"
    )
    return report, failures


def _per_shard_rf(stream, k: int, num_nodes: int, seed: int = 0) -> float:
    """RF of CLUGP run on each of ``distributed_clugp``'s shards (node
    ``i`` at ``seed + i``) with the assignments concatenated — the
    no-exchange deployment the merge must beat."""
    from repro.core.distributed import _shard_ranges
    from repro.core.partitioner import ClugpPartitioner
    from repro.partitioners.base import PartitionAssignment

    out = np.empty(stream.num_edges, dtype=np.int64)
    for node, (start, stop) in enumerate(_shard_ranges(stream.num_edges, num_nodes)):
        shard = EdgeStream(stream.src[start:stop], stream.dst[start:stop], stream.num_vertices)
        out[start:stop] = ClugpPartitioner(k, seed=seed + node).partition(shard).edge_partition
    return PartitionAssignment(stream, out, k).replication_factor()


def run_distributed_merge_bench(quick: bool) -> tuple[dict, list[str]]:
    """Distributed CLUGP quality/wall across node counts against the
    per-shard concatenation."""
    import math

    from repro.bench.harness import distributed_merge_sweep
    from repro.core.partitioner import ClugpPartitioner

    num_pages = 2_000 if quick else 10_000
    k = 8
    tau = 1.05
    graph = web_crawl_graph(num_pages, avg_out_degree=8, host_size=25, seed=3)
    stream = EdgeStream.from_graph(graph)
    node_counts = (1, 2, 4, 8)
    rows = distributed_merge_sweep(stream, k, node_counts=node_counts, seed=0)
    by_nodes = {r["num_nodes"]: r for r in rows}
    rf_shards = {nodes: _per_shard_rf(stream, k, nodes) for nodes in node_counts}

    failures = []
    # gate 1: single-node == single-machine, bit for bit
    single = ClugpPartitioner(k, seed=0).partition(stream)
    merged_one = distributed_clugp(stream, k, num_nodes=1, seed=0)
    identical = bool(
        np.array_equal(
            single.edge_partition, merged_one.assignment.edge_partition
        )
    )
    if not identical:
        failures.append(
            "distributed_merge: num_nodes=1 is not bit-identical "
            "to the single-machine pipeline"
        )
    # gate 2: merged RF <= per-shard concatenation everywhere, strictly lower at 8
    cap = math.ceil(tau * stream.num_edges / k)
    for nodes in node_counts:
        rf_shard = rf_shards[nodes]
        rf_mer = by_nodes[nodes]["replication_factor"]
        if rf_mer > rf_shard:
            failures.append(
                f"distributed_merge: merged RF {rf_mer:.4f} exceeds "
                f"per-shard {rf_shard:.4f} at {nodes} nodes"
            )
        # gate 3: the quota exchange holds the *global* tau cap
        bal = by_nodes[nodes]["relative_balance"]
        if bal * stream.num_edges / k > cap + 1e-9:
            failures.append(
                f"distributed_merge: merged balance {bal:.4f} violates the "
                f"global cap at {nodes} nodes"
            )
        print(
            f"distributed_merge: {nodes} nodes: RF per-shard={rf_shard:.4f} "
            f"merged={rf_mer:.4f} "
            f"(sync {by_nodes[nodes]['merge']['merge_bytes'] / 1024:.0f}KB up)"
        )
    rf_shard8 = rf_shards[8]
    rf_mer8 = by_nodes[8]["replication_factor"]
    if not rf_mer8 < rf_shard8:
        failures.append(
            f"distributed_merge: merged RF {rf_mer8:.4f} not strictly below "
            f"per-shard {rf_shard8:.4f} at 8 nodes"
        )
    # gate 4: the persistent resident-worker backend reproduces the
    # protocol bit for bit at 4 nodes (the full {1, 4, 8} matrix lives in
    # the persistent_workers section)
    merged_ref = distributed_clugp(stream, k, num_nodes=4, seed=0)
    merged_persistent = distributed_clugp(
        stream, k, num_nodes=4, seed=0, backend="persistent"
    )
    persistent_identical = bool(
        np.array_equal(
            merged_ref.assignment.edge_partition,
            merged_persistent.assignment.edge_partition,
        )
    )
    if not persistent_identical:
        failures.append(
            "distributed_merge: backend='persistent' run is not "
            "bit-identical at 4 nodes"
        )
    print(
        "distributed_merge: persistent backend 4 nodes "
        f"bit-identical={persistent_identical}"
    )
    report = {
        "num_edges": stream.num_edges,
        "num_partitions": k,
        "single_node_identical": identical,
        "persistent_identical": persistent_identical,
        "rf_per_shard_8": rf_shard8,
        "rf_merged_8": rf_mer8,
        "rows": rows,
    }
    return report, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: small graphs, relaxed floors"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write the consolidated report"
    )
    args = parser.parse_args(argv)

    consolidated: dict = {"quick": args.quick}
    failures: list[str] = []

    print("=== CLUGP stages ===")
    report, fails = _run_sub_bench(bench_clugp_stages, "clugp_stages", args.quick)
    consolidated["clugp_stages"] = report
    failures += fails

    print("\n=== distributed stage accounting ===")
    report, fails = run_distributed_stage_smoke(args.quick)
    consolidated["distributed_stages"] = report
    failures += fails

    print("\n=== distributed merge: merged vs per-shard concatenation ===")
    report, fails = run_distributed_merge_bench(args.quick)
    consolidated["distributed_merge"] = report
    failures += fails

    print("\n=== incremental service ===")
    report, fails = _run_sub_bench(bench_incremental_service, "incremental", args.quick)
    consolidated["incremental"] = report
    failures += fails

    print("\n=== fig8 pagerank: local-runtime parity ===")
    report, fails = _run_sub_bench(bench_fig8_pagerank, "fig8_pagerank", args.quick)
    consolidated["fig8_pagerank"] = report
    failures += fails

    print("\n=== reliability: overhead, recovery, chaos ===")
    report, fails = _run_sub_bench(bench_reliability, "reliability", args.quick)
    consolidated["reliability"] = report
    failures += fails

    print("\n=== persistent workers: identity, resident wall, zero-copy ===")
    report, fails = _run_sub_bench(bench_persistent, "persistent_workers", args.quick)
    consolidated["persistent_workers"] = report
    failures += fails

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(consolidated, fh, indent=2)
        print(f"\nwrote {args.json}")

    if failures:
        print("\nFAIL:\n  " + "\n  ".join(failures))
        return 1
    print("\nOK: all benchmark floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
