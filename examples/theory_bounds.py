#!/usr/bin/env python
"""Explore the paper's Section IV-B analytical model (Equations 3-9) and
check it against a measured run.

The model predicts, for a power-law graph, the minimum degree a vertex
needs before CLUGP's splitting replicates it r times — and shows why that
ladder rises much faster than Hollocou's, which is the whole point of the
splitting operation (Theorems 1-2).

Run:  python examples/theory_bounds.py
"""

import numpy as np

from repro import ClugpPartitioner, EdgeStream
from repro.config import ClugpConfig
from repro.core.bounds import (
    PowerLawModel,
    min_degree_for_replicas_clugp,
    min_degree_for_replicas_holl,
)
from repro.graph import properties
from repro.graph.generators import web_crawl_graph

# --- the replica ladder --------------------------------------------------
vmax, dmax = 2_000, 400
print(f"minimum degree to reach r replicas (V_max={vmax}, d_max={dmax}):")
print(f"{'r':>3s} {'CLUGP (Eq. 8)':>14s} {'Holl':>6s}")
for r in (1, 2, 3, 5, 8, 12):
    print(
        f"{r:3d} {min_degree_for_replicas_clugp(r, vmax, dmax):14.1f} "
        f"{min_degree_for_replicas_holl(r):6.1f}"
    )

# --- worst-case RF bounds vs cluster count -------------------------------
model = PowerLawModel(alpha=2.1, gamma=1, dmax=dmax)
print("\nworst-case replication factor bounds (Equations 4-5):")
print(f"{'m':>6s} {'CLUGP':>8s} {'Holl':>8s} {'advantage':>10s}")
for m in (16, 64, 256, 1024):
    clugp = model.rf_bound(m, vmax)
    holl = model.rf_bound(m, vmax, algorithm="holl")
    print(f"{m:6d} {clugp:8.3f} {holl:8.3f} {holl - clugp:10.3f}")

# --- sanity check against a real run -------------------------------------
# The Section IV-B model bounds the replication created by the *clustering
# pass* (splitting mirrors) — pass 3 adds further replicas when it cuts
# edges for balance, which the model deliberately does not cover.
graph = web_crawl_graph(3000, avg_out_degree=12, host_size=30, seed=21)
stream = EdgeStream.from_graph(graph, order="natural")
stats = properties.degree_stats(graph)
k = 16
# the paper's split rule; the default pipeline does not split
partitioner = ClugpPartitioner(k, config=ClugpConfig(enable_splitting=True))
rf_end_to_end = partitioner.partition(stream).replication_factor()
clustering = partitioner.last_clustering
active = int((clustering.degree > 0).sum())
# a vertex splits at most once and leaves exactly one mirror behind
clustering_rf = 1.0 + clustering.splits / max(1, active)
rf_holl = ClugpPartitioner(k).partition(stream).replication_factor()
bound = PowerLawModel(
    alpha=max(1.5, stats.alpha if np.isfinite(stats.alpha) else 2.1),
    gamma=1,
    dmax=stats.max_degree,
).rf_bound(num_clusters=clustering.num_clusters, vmax=stream.num_edges // k)
print(f"\nmeasured on a {stream.num_edges}-edge crawl (k={k}):")
print(f"  clustering-pass RF (splitting mirrors) = {clustering_rf:.3f}")
print(f"  analytical worst-case bound (CLUGP)    = {bound:.3f}")
print(f"  end-to-end RF with splitting           = {rf_end_to_end:.3f}")
print(f"  end-to-end RF without splitting        = {rf_holl:.3f}")
assert clustering_rf <= bound + 1e-9, (
    "clustering-pass replication must respect the worst-case bound"
)
print("  bound holds for the clustering pass.")
