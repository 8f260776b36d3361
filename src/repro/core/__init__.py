"""CLUGP core: the paper's three-pass restreaming partitioning pipeline."""

from .clustering import ClusteringResult, streaming_clustering
from .bounds import (
    PowerLawModel,
    min_degree_for_replicas_clugp,
    min_degree_for_replicas_holl,
    replication_factor_upper_bound,
    tail_fraction,
)
from .cluster_graph import ClusterGraph, build_cluster_graph, cluster_graph_from_labels
from .game import ClusterPartitioningGame, GameResult, compute_lambda_max
from .transform import transform_partitions
from .distributed import (
    DistributedClugpPartitioner,
    DistributedResult,
    MergeReport,
    NodeReport,
    distributed_clugp,
)
from .partitioner import (
    ClugpPartitioner,
    ClugpGreedyPartitioner,
    ClusterSummary,
)

__all__ = [
    "ClusteringResult",
    "PowerLawModel",
    "min_degree_for_replicas_clugp",
    "min_degree_for_replicas_holl",
    "replication_factor_upper_bound",
    "tail_fraction",
    "streaming_clustering",
    "ClusterGraph",
    "build_cluster_graph",
    "cluster_graph_from_labels",
    "ClusterPartitioningGame",
    "GameResult",
    "compute_lambda_max",
    "transform_partitions",
    "DistributedClugpPartitioner",
    "DistributedResult",
    "MergeReport",
    "NodeReport",
    "distributed_clugp",
    "ClugpPartitioner",
    "ClugpGreedyPartitioner",
    "ClusterSummary",
]
