"""repro — a reproduction of "Clustering-based Partitioning for Large Web
Graphs" (CLUGP, ICDE 2022).

Public API quick tour::

    from repro import (
        load_dataset, EdgeStream, ClugpPartitioner, make_partitioner,
        quality_report,
    )

    graph = load_dataset("uk", scale=0.5)
    stream = EdgeStream.from_graph(graph, order="bfs")
    result = ClugpPartitioner(num_partitions=32).partition(stream)
    print(result.replication_factor(), result.relative_balance())

Every partitioner is ``partition(stream, chunk_size=None)``: it makes
its passes (``passes`` says how many) over ``stream.batches(chunk_size)``,
a restartable source of ``(src, dst)`` column chunks, and the assignment
does not depend on the chunk size.  It runs :mod:`repro.kernels`: the
compiled ``cc`` tier (``kernels.c`` built once per machine with the
system C compiler, ~0.5 s at first use, then cached), or on a host
without one the bit-identical ``python`` kernels, with one warning.
The program picks the tier from what it can observe — no config field,
argument or flag names an implementation; ``CLUGP_KERNEL_BACKEND`` is
the one deployment/test override.  ``partition_per_edge()`` is the
per-edge Python oracle (and what the Figure-7 benches time).

Subpackages
-----------
``repro.graph``
    Graph substrate: CSR digraphs, edge streams, generators, datasets, I/O.
``repro.core``
    The CLUGP three-pass pipeline (clustering, game, transformation).
``repro.partitioners``
    Streaming baselines: Hashing, DBH, Greedy, HDRF, Mint.
``repro.kernels``
    Compiled decision cores, and the one place the executing tier is chosen.
``repro.offline``
    Offline multilevel (METIS-style) comparator.
``repro.analysis``
    Quality metrics and comparison reports.
``repro.service``
    Online incremental partition maintenance (:class:`PartitionService`).
``repro.reliability``
    Fault-tolerant runtime: checkpoints + write-ahead journal, worker
    retry with deadlines, deterministic fault injection, hardened
    ingestion (docs/reliability.md).
``repro.system``
    PowerGraph-style GAS distributed-execution simulator + graph apps.
``repro.bench``
    The per-figure benchmark harness.
"""

from ._util import Timer
from .config import ClugpConfig, GameConfig, ReliabilityConfig
from .reliability import (
    BatchJournal,
    CheckpointManager,
    DropReport,
    FaultInjector,
    sanitize_edges,
)
from .graph import (
    DiGraph,
    EdgeStream,
    StreamOrder,
    load_dataset,
    DATASETS,
)
from .core import (
    ClugpPartitioner,
    ClugpNoSplitPartitioner,
    ClugpGreedyPartitioner,
    streaming_clustering,
    build_cluster_graph,
    ClusterPartitioningGame,
    parallel_game,
    transform_partitions,
)
from .partitioners import (
    PartitionAssignment,
    EdgePartitioner,
    HashingPartitioner,
    DBHPartitioner,
    GreedyPartitioner,
    HDRFPartitioner,
    MintPartitioner,
    make_partitioner,
    PARTITIONERS,
)
from .service import BatchStats, MigrationPlan, PartitionService
from .analysis import (
    quality_report,
    QualityReport,
    replication_factor,
    relative_balance,
    compare_partitioners,
)

__version__ = "1.1.0"

__all__ = [
    "Timer",
    "ClugpConfig",
    "GameConfig",
    "ReliabilityConfig",
    "FaultInjector",
    "CheckpointManager",
    "BatchJournal",
    "DropReport",
    "sanitize_edges",
    "DiGraph",
    "EdgeStream",
    "StreamOrder",
    "load_dataset",
    "DATASETS",
    "ClugpPartitioner",
    "ClugpNoSplitPartitioner",
    "ClugpGreedyPartitioner",
    "streaming_clustering",
    "build_cluster_graph",
    "ClusterPartitioningGame",
    "parallel_game",
    "transform_partitions",
    "PartitionService",
    "MigrationPlan",
    "BatchStats",
    "PartitionAssignment",
    "EdgePartitioner",
    "HashingPartitioner",
    "DBHPartitioner",
    "GreedyPartitioner",
    "HDRFPartitioner",
    "MintPartitioner",
    "make_partitioner",
    "PARTITIONERS",
    "quality_report",
    "QualityReport",
    "replication_factor",
    "relative_balance",
    "compare_partitioners",
    "__version__",
]
