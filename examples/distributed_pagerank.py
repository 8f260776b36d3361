#!/usr/bin/env python
"""Distributed PageRank on the partition-local GAS runtime (mini Fig 8).

Shows how partitioning quality translates into distributed runtime: the
replication factor drives the number of mirror-synchronization messages
per superstep, which dominates communication cost.  PageRank executes on
the partition-local runtime, so the message counts and volumes below are
*measured* off the mirror<->master sync buffers, not modeled.  Also
sweeps the network RTT as the paper does with PUMBA (Figure 8 c).

Run:  python examples/distributed_pagerank.py [scale]   (default 0.4)
"""

import sys

from repro import EdgeStream, load_dataset, make_partitioner
from repro.system import LocalGasRuntime, NetworkModel, pagerank

ALGORITHMS = ["hashing", "dbh", "mint", "hdrf", "clugp"]


def run_once(stream, name: str, k: int, network: NetworkModel):
    partitioner = make_partitioner(name, k)
    ordered = stream
    if partitioner.preferred_order != "natural":
        ordered = stream.reordered(partitioner.preferred_order, seed=0)
    assignment = partitioner.partition(ordered)
    engine = LocalGasRuntime(assignment, network=network)
    _, cost = pagerank(engine, max_supersteps=25)
    return assignment, cost


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.4
    graph = load_dataset("it", scale=scale, seed=3)
    stream = EdgeStream.from_graph(graph, order="natural")
    k = 32
    print(f"|V|={graph.num_vertices} |E|={graph.num_edges} k={k}\n")

    network = NetworkModel()
    print(f"{'algorithm':9s} {'RF':>6s} {'volume(MB)':>11s} {'compute(s)':>11s} "
          f"{'comm(s)':>9s} {'total(s)':>9s}   (volume measured off sync buffers)")
    for name in ALGORITHMS:
        assignment, cost = run_once(stream, name, k, network)
        print(f"{name:9s} {assignment.replication_factor():6.2f} "
              f"{cost.total_bytes / 1e6:11.2f} {cost.compute_seconds:11.4f} "
              f"{cost.comm_seconds:9.3f} {cost.total_seconds:9.3f}")

    print("\nRTT sweep (Figure 8c): total simulated PageRank seconds")
    rtts_ms = [10, 50, 100]
    header = f"{'algorithm':9s}" + "".join(f" {r:>7d}ms" for r in rtts_ms)
    print(header)
    for name in ("hdrf", "clugp"):
        row = f"{name:9s}"
        for rtt in rtts_ms:
            _, cost = run_once(stream, name, k, network.with_rtt(rtt / 1000))
            row += f" {cost.total_seconds:9.3f}"
        print(row)


if __name__ == "__main__":
    main()
