#!/usr/bin/env python
"""End-to-end web-graph pipeline exercising the full substrate API:

1. generate a synthetic web crawl with host locality and power-law hubs;
2. verify its degree structure (power-law fit, Gini skew);
3. persist and reload it through the edge-list format;
4. run streaming clustering alone and inspect the clusters it finds;
5. partition with CLUGP (the default game) and check the tau cap;
6. run connected components on the simulated cluster.

Run:  python examples/web_crawl_pipeline.py
"""

import os
import tempfile

import numpy as np

from repro import ClugpPartitioner, EdgeStream
from repro.config import ClugpConfig
from repro.core import build_cluster_graph, streaming_clustering
from repro.graph import io, properties
from repro.graph.generators import web_crawl_graph
from repro.system import LocalGasRuntime, connected_components

# 1. generate -----------------------------------------------------------
graph = web_crawl_graph(
    4000, avg_out_degree=12.0, host_size=40, intra_host_prob=0.88, seed=11
)
print(f"crawl graph: |V|={graph.num_vertices} |E|={graph.num_edges}")

# 2. degree structure ----------------------------------------------------
stats = properties.degree_stats(graph)
print(f"degree stats: max={stats.max_degree} mean={stats.mean_degree:.1f} "
      f"alpha~{stats.alpha:.2f} gini={stats.gini:.2f}")

# 3. round-trip through the edge-list format ----------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "crawl.edges")
    io.write_edgelist(graph, path, comment="synthetic web crawl")
    reloaded = io.read_edgelist(path)
    assert reloaded.num_edges == graph.num_edges
    print(f"edge-list round trip ok ({os.path.getsize(path)} bytes)")
    graph = reloaded

# 4. streaming clustering on its own ------------------------------------
stream = EdgeStream.from_graph(graph, order="natural")
vmax = stream.num_edges // 16
clustering = streaming_clustering(stream, vmax)
cluster_graph = build_cluster_graph(stream, clustering)
internal_frac = cluster_graph.total_internal() / stream.num_edges
sizes = clustering.cluster_sizes()
print(f"pass-1 clusters: m={clustering.num_clusters}, "
      f"{internal_frac:.0%} of edges intra-cluster, "
      f"largest cluster {sizes.max()} vertices")

# 5. full CLUGP with the default game -----------------------------------
config = ClugpConfig(num_partitions=16, imbalance_factor=1.02)
partitioner = ClugpPartitioner(16, config=config)
assignment = partitioner.partition(stream)
print(f"CLUGP k=16: RF={assignment.replication_factor():.3f} "
      f"balance={assignment.relative_balance():.4f} (cap tau=1.02)")
assert assignment.relative_balance() <= 1.02 + 16 / stream.num_edges

# 6. connected components on the partition-local runtime ----------------
engine = LocalGasRuntime(assignment)
labels, cost = connected_components(engine)
print(f"components: {len(np.unique(labels))} "
      f"(in {cost.num_supersteps} supersteps, "
      f"{cost.total_messages} measured sync messages)")
