"""PowerGraph-style distributed GAS system layer.

The paper evaluates partitionings on a real 32-node PowerGraph deployment
(Figure 8).  This package executes vertex programs over the same
master/mirror placement a PowerGraph cluster would derive from a
vertex-cut partitioning:

* :class:`LocalGasRuntime` (``mode="local"``) — the partition-local
  runtime: one flat replica-slot index, the superstep written once as
  block functions over contiguous partition ranges plus one loop,
  mirror<->master synchronization through typed message payloads, sparse
  frontiers, ``SuperstepCost.messages``/``bytes`` *measured* by counting
  the exchanged rows.  The same loop runs on worker processes as
  :class:`repro.distributed.DistributedGasRuntime`.
* :class:`GasEngine` (``mode="global"``) — the retained oracle: program
  semantics evaluated on global arrays, costs *modeled* per partition
  (``2 * (|P(v)| - 1)`` sync messages per active replicated vertex).

The apps (PageRank, connected components, SSSP, label propagation) run
on any of them; the parity tests pin runtime == oracle results.
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
from .engine import GasEngine, SuperstepCost, RunCost
from .messages import DensePayload, RaggedPayload
from .runtime import (
    LABEL_COUNT,
    DenseAccumulator,
    LabelCountAccumulator,
    LocalContext,
    LocalGasRuntime,
    LocalVertexProgram,
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
    "GasEngine",
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
) -> "GasEngine | LocalGasRuntime":
    """Deploy an assignment on the requested engine.

    ``mode="local"`` builds the partition-local :class:`LocalGasRuntime`
    (measured costs); ``mode="global"`` the retained global-array
    :class:`GasEngine` oracle (modeled costs).
    """
    if mode == "local":
        return LocalGasRuntime(assignment, network=network, **throughputs)
    if mode == "global":
        return GasEngine(assignment, network=network, **throughputs)
    raise ValueError(f"mode must be 'local' or 'global', got {mode!r}")
