"""PowerGraph-style distributed GAS system layer.

The paper evaluates partitionings on a real 32-node PowerGraph deployment
(Figure 8).  This package executes vertex programs over the same
master/mirror placement a PowerGraph cluster would derive from a
vertex-cut partitioning, on one engine: :class:`LocalGasRuntime`, the
partition-local runtime.  It holds one flat replica-slot index, runs
the superstep as one loop over all of it, synchronizes mirrors and
masters through typed message payloads, keeps sparse frontiers, and
*measures* ``SuperstepCost.messages``/``bytes`` by counting the
exchanged rows.

The apps (PageRank, connected components, SSSP, label propagation) are
one program class each against :class:`LocalContext`; the tests pin
their values to a global-array numpy reference and to networkx.
"""

from .placement import (
    LocalIndex,
    LocalPartition,
    Placement,
    ReplicaRoutes,
    build_local_index,
    build_placement,
)
from .network import NetworkModel
from .messages import DensePayload, RaggedPayload
from .runtime import (
    LABEL_COUNT,
    DenseAccumulator,
    LabelCountAccumulator,
    LocalContext,
    LocalGasRuntime,
    LocalVertexProgram,
    RunCost,
    SuperstepCost,
)
from .apps import APPS, pagerank, connected_components, sssp, label_propagation

__all__ = [
    "Placement",
    "build_placement",
    "LocalPartition",
    "ReplicaRoutes",
    "LocalIndex",
    "build_local_index",
    "NetworkModel",
    "SuperstepCost",
    "RunCost",
    "DensePayload",
    "RaggedPayload",
    "DenseAccumulator",
    "LabelCountAccumulator",
    "LABEL_COUNT",
    "LocalContext",
    "LocalGasRuntime",
    "LocalVertexProgram",
    "make_engine",
    "APPS",
    "pagerank",
    "connected_components",
    "sssp",
    "label_propagation",
]


def make_engine(
    assignment,
    mode: str = "local",
    network: NetworkModel | None = None,
    **throughputs,
) -> LocalGasRuntime:
    """Deploy an assignment on the partition-local :class:`LocalGasRuntime`
    (``mode="local"``, the only engine)."""
    if mode != "local":
        raise ValueError(
            f"mode must be 'local', got {mode!r}: the global-array engine was removed"
        )
    return LocalGasRuntime(assignment, network=network, **throughputs)
