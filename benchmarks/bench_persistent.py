#!/usr/bin/env python
"""Persistent worker runtime: the identity and zero-copy gates.

Standalone script pinning the claims of the persistent backend, the one
process backend (DESIGN.md §11):

* **bit-identity** — ``backend="persistent"``, spawned per call and
  resident, must reproduce the ``thread`` backend's edge partition
  exactly, at num_nodes in {1, 4, 8}, hard gate in every mode;
* **resident wall** — at 8 nodes on the ~100k-edge fixture the report
  carries the pool's spawn seconds (paid once per pool lifetime) and the
  best-of-3 per-call wall on the resident pool, next to the ``thread``
  backend's wall.  Reported, not gated: which of the two transports is
  production is ROADMAP item 7's open question;
* **zero-copy ingest** — the measured pickled-ndarray bytes on the edge
  plane (``PersistentRuntime.edge_pickle_bytes``) must be exactly 0:
  edge data reaches the workers only through shared-memory rings, hard
  gate in every mode.

The report also surfaces the per-worker busy seconds of the resident
pool.

Usage::

    python benchmarks/bench_persistent.py           # full run
    python benchmarks/bench_persistent.py --quick   # CI smoke

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

from repro._util import Timer
from repro.core.distributed import distributed_clugp
from repro.distributed import PersistentRuntime, leaked_segments
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream

NUM_NODES = 8
IDENTITY_NODES = (1, 4, 8)
REPEATS = 3


def build_stream(num_edges: int, seed: int = 11) -> EdgeStream:
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


def run_identity_gate(stream, k) -> tuple[dict, list[str]]:
    """persistent == thread, bit for bit, across the node matrix."""
    rows = []
    failures = []
    for num_nodes in IDENTITY_NODES:
        reference = distributed_clugp(
            stream, k, num_nodes=num_nodes, seed=0, backend="thread"
        )
        result = distributed_clugp(
            stream, k, num_nodes=num_nodes, seed=0, backend="persistent"
        )
        identical = bool(
            np.array_equal(
                reference.assignment.edge_partition,
                result.assignment.edge_partition,
            )
        )
        rows.append({"num_nodes": num_nodes, "identical": identical})
        if not identical:
            failures.append(
                f"persistent: {num_nodes} nodes diverges from the thread backend"
            )
        print(f"persistent/identity: {num_nodes} nodes identical={identical}")
    return {"rows": rows}, failures


def run_resident_wall(stream, k) -> tuple[dict, list[str]]:
    """Resident-pool per-call wall and spawn cost at 8 nodes (reported),
    its bits against ``thread`` and its ingest-plane pickle bytes (gated)."""
    t_thread = float("inf")
    for _ in range(REPEATS):
        with Timer() as t:
            thread_result = distributed_clugp(
                stream, k, num_nodes=NUM_NODES, seed=0, backend="thread",
            )
        t_thread = min(t_thread, t.elapsed)

    with Timer() as t_spawn:
        runtime = PersistentRuntime(NUM_NODES)
    t_persistent = float("inf")
    busy = []
    try:
        for _ in range(REPEATS):
            with Timer() as t:
                persistent_result = distributed_clugp(
                    stream, k, num_nodes=NUM_NODES, seed=0,
                    backend="persistent", runtime=runtime,
                )
            t_persistent = min(t_persistent, t.elapsed)
        overlaps = persistent_result.assignment.stage_times.overlaps
        busy = [
            overlaps.get(f"node{i}_busy", 0.0) for i in range(NUM_NODES)
        ]
        pickle_bytes = runtime.edge_pickle_bytes
    finally:
        runtime.close()

    identical = bool(
        np.array_equal(
            thread_result.assignment.edge_partition,
            persistent_result.assignment.edge_partition,
        )
    )
    report = {
        "num_edges": stream.num_edges,
        "num_nodes": NUM_NODES,
        "thread_seconds": t_thread,
        "persistent_seconds": t_persistent,
        "spawn_seconds": t_spawn.elapsed,
        "identical": identical,
        "edge_pickle_bytes": pickle_bytes,
        "worker_busy_seconds": busy,
    }
    failures = []
    if not identical:
        failures.append("persistent: resident pool diverged from thread")
    if pickle_bytes != 0:
        failures.append(
            f"persistent: {pickle_bytes} pickled ndarray bytes crossed the "
            f"ingest plane (must be 0)"
        )
    print(
        f"persistent/resident: {t_persistent*1000:.0f}ms per call "
        f"(thread {t_thread*1000:.0f}ms), spawn {t_spawn.elapsed*1000:.0f}ms, "
        f"identical={identical}, edge_pickle_bytes={pickle_bytes}"
    )
    return report, failures


def run_hygiene_gate() -> tuple[dict, list[str]]:
    """Every shared-memory segment is gone once the pools are closed."""
    leaked = leaked_segments()
    report = {"leaked_segments": leaked}
    failures = (
        [f"persistent: leaked shared-memory segments: {leaked}"] if leaked else []
    )
    print(f"persistent/hygiene: leaked_segments={leaked}")
    return report, failures


def main(argv=None) -> int:
    """CLI entry point; returns a shell exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small fixtures")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the JSON report")
    args = parser.parse_args(argv)

    k = 8
    num_edges = 8_000 if args.quick else 100_000
    stream = build_stream(num_edges)
    ident_stream = build_stream(4_000 if args.quick else 12_000, seed=7)

    report: dict = {"quick": args.quick, "num_edges": stream.num_edges}
    failures: list[str] = []

    sub, fails = run_identity_gate(ident_stream, k)
    report["identity"] = sub
    failures += fails

    sub, fails = run_resident_wall(stream, k)
    report["resident"] = sub
    failures += fails

    sub, fails = run_hygiene_gate()
    report["hygiene"] = sub
    failures += fails

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.json}")
    if failures:
        print("FAIL:\n  " + "\n  ".join(failures))
        return 1
    print("OK: all persistent-runtime gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
