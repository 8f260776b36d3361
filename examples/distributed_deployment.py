#!/usr/bin/env python
"""Distributed CLUGP deployment (Section III-C of the paper).

Shards the crawl stream across ingest nodes and combines the partial
results with the two-round cluster merge: nodes ship compact cluster
summaries, the coordinator unions the cluster graphs, runs one
warm-started global game, and each node replays pass 3 under the
broadcast decision plus balance quotas.  Keeping a vertex split across
shards consistent costs measured wire bytes instead of replicas.

Run:  python examples/distributed_deployment.py
"""

from repro import EdgeStream, load_dataset
from repro.core import distributed_clugp
from repro.partitioners import HDRFPartitioner

graph = load_dataset("webbase", scale=0.4, seed=5)
stream = EdgeStream.from_graph(graph, order="natural")
k = 32
print(f"|V|={graph.num_vertices} |E|={graph.num_edges} k={k}\n")

header = (
    f"{'nodes':>5s} {'RF':>7s} {'balance':>8s} "
    f"{'critical path':>14s} {'node work':>10s} {'sync wire':>10s}"
)
print(header)
for num_nodes in (1, 2, 4, 8, 16):
    result = distributed_clugp(stream, k, num_nodes=num_nodes, seed=0)
    a = result.assignment
    total_work = sum(n.seconds for n in result.nodes)
    print(
        f"{num_nodes:5d} {a.replication_factor():7.3f} "
        f"{a.relative_balance():8.3f} {a.wall_time():13.3f}s "
        f"{total_work:9.3f}s {result.merge.total_wire_bytes() / 1024:8.0f}KB"
    )

# the serialized baseline for contrast
hdrf = HDRFPartitioner(k)
assignment = hdrf.partition(stream.reordered("random", seed=0))
print(
    f"\nHDRF (inherently single-stream): RF={assignment.replication_factor():.3f} "
    f"time={assignment.total_time():.3f}s"
)

result = distributed_clugp(stream, k, num_nodes=8, seed=0)
print("\ndeployment, 8 nodes:")
print(result.summary())
print("\nper-node diagnostics:")
for node in result.nodes:
    print(
        f"  node {node.node}: edges={node.num_edges} clusters={node.num_clusters} "
        f"splits={node.splits} local_game_rounds={node.game_rounds} "
        f"boundary={node.boundary_vertices} summary={node.summary_bytes / 1024:.0f}KB "
        f"time={node.seconds:.3f}s"
    )
