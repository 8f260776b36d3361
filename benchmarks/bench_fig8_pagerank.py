"""Figure 8 — PageRank on the (simulated) PowerGraph cluster.

Paper's claims:
  (a) CLUGP has the lowest PageRank communication volume on every dataset
      (~40% of the second-best method on IT);
  (b) CLUGP has the lowest total PageRank runtime; hashing methods are the
      worst; heuristics and Mint are in between;
  (c) the ordering is stable as network latency (RTT) grows from 10ms to
      100ms, and CLUGP stays the most efficient.

The sweeps execute PageRank on the partition-local runtime, so the
communication volumes are *measured* off the mirror-sync message
buffers; :func:`main` (the ``run_all.py`` section) checks the measured
messages against the replication formula and exports the cost profiles
as JSON.

Usage::

    python benchmarks/bench_fig8_pagerank.py --json fig8.json
    python benchmarks/bench_fig8_pagerank.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import pytest

from repro.bench.harness import pagerank_costs, run_algorithm
from repro.graph.datasets import load_dataset
from repro.graph.stream import EdgeStream
from repro.system import LocalGasRuntime
from repro.system.network import NetworkModel
from repro.system.apps.pagerank import pagerank

from conftest import run_once

ALGORITHMS = ("hdrf", "greedy", "hashing", "dbh", "mint", "clugp")
PARITY_ALGORITHMS = ("hashing", "hdrf", "clugp")


@pytest.mark.parametrize("alias", ["uk", "it", "arabic", "webbase"])
def test_fig8ab_communication_and_runtime(benchmark, web_streams, alias):
    stream = web_streams[alias]
    k = 32

    def sweep():
        return pagerank_costs(
            stream, k, algorithms=ALGORITHMS, max_supersteps=15, seed=0
        )

    costs = run_once(benchmark, sweep)
    print()
    print(f"Figure 8(a,b) ({alias}, k={k}): measured PageRank costs")
    print(f"{'algorithm':9s} {'volume(MB)':>11s} {'compute(s)':>11s} {'comm(s)':>9s} {'total(s)':>9s}")
    for name, cost in costs.items():
        print(
            f"{name:9s} {cost.total_bytes / 1e6:11.2f} {cost.compute_seconds:11.4f} "
            f"{cost.comm_seconds:9.3f} {cost.total_seconds:9.3f}"
        )

    volume = {n: c.total_bytes for n, c in costs.items()}
    total = {n: c.total_seconds for n, c in costs.items()}
    # (a) CLUGP lowest volume, hashing highest
    assert min(volume, key=volume.get) == "clugp"
    assert max(volume, key=volume.get) == "hashing"
    # (b) CLUGP lowest total runtime
    assert min(total, key=total.get) == "clugp"


def test_fig8c_runtime_vs_latency(benchmark, it_stream):
    k = 32
    rtts_ms = [10, 50, 100]

    def sweep():
        rows: dict[str, list[float]] = {}
        assignments = {
            name: run_algorithm(name, it_stream, k, seed=0)[1]
            for name in PARITY_ALGORITHMS
        }
        for name, assignment in assignments.items():
            rows[name] = []
            for rtt in rtts_ms:
                network = NetworkModel().with_rtt(rtt / 1000.0)
                engine = LocalGasRuntime(assignment, network=network)
                _, cost = pagerank(engine, max_supersteps=15)
                rows[name].append(cost.total_seconds)
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(f"Figure 8(c) (it, k={k}): PageRank seconds vs RTT")
    print(f"{'algorithm':9s}" + "".join(f" {r:>7d}ms" for r in rtts_ms))
    for name, values in rows.items():
        print(f"{name:9s}" + "".join(f" {v:9.3f}" for v in values))

    for idx, rtt in enumerate(rtts_ms):
        assert rows["clugp"][idx] < rows["hdrf"][idx] < rows["hashing"][idx]
    # runtime grows with RTT for everyone
    for values in rows.values():
        assert values[0] < values[-1]


# ---------------------------------------------------------------------- #
# standalone parity + JSON section (the run_all.py entry point)
# ---------------------------------------------------------------------- #


def check_parity(assignment, max_supersteps: int = 15) -> tuple[dict, list[str]]:
    """Run PageRank on one assignment; verify that the measured messages
    equal the replication formula ``2 * sum(|P(v)| - 1)`` evaluated on
    the runtime's own recorded sync masks, on every superstep."""
    failures: list[str] = []
    local = LocalGasRuntime(assignment)
    _, cost_local = pagerank(local, max_supersteps=max_supersteps)
    sync_factor = np.clip(local.placement.replica_counts - 1, 0, None)
    formula = [
        2 * int(sync_factor[mask].sum()) for mask in local.sync_masks
    ]
    measured = [s.messages for s in cost_local.supersteps]
    if formula != measured:
        failures.append("measured messages != 2*sum(|P(v)|-1) over the sync set")
    report = {
        "replication_factor": assignment.replication_factor(),
        "local": cost_local.to_dict(),
        "parity_ok": not failures,
    }
    return report, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: smaller graph and partition count",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write results as JSON"
    )
    args = parser.parse_args(argv)

    scale = 0.1 if args.quick else 0.35
    k = 8 if args.quick else 32
    graph = load_dataset("it", scale=scale, seed=7)
    stream = EdgeStream.from_graph(graph, order="natural")
    report: dict = {
        "dataset": "it",
        "scale": scale,
        "partitions": k,
        "num_edges": stream.num_edges,
        "algorithms": {},
    }
    failures: list[str] = []
    print(f"fig8 parity (it scale={scale}, k={k}, |E|={stream.num_edges}):")
    print(f"{'algorithm':9s} {'RF':>6s} {'steps':>6s} {'messages':>10s} {'parity':>7s}")
    for name in PARITY_ALGORITHMS:
        _, assignment = run_algorithm(name, stream, k, seed=0)
        algo_report, algo_failures = check_parity(assignment)
        report["algorithms"][name] = algo_report
        failures += [f"{name}: {f}" for f in algo_failures]
        print(
            f"{name:9s} {algo_report['replication_factor']:6.2f} "
            f"{algo_report['local']['supersteps']:6d} "
            f"{algo_report['local']['messages']:10d} "
            f"{'ok' if algo_report['parity_ok'] else 'FAIL':>7s}"
        )

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.json}")
    if failures:
        print("FAIL:\n  " + "\n  ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
