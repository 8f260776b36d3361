"""PowerGraph-style distributed GAS system layer.

The paper evaluates partitionings on a real 32-node PowerGraph deployment
(Figure 8).  This package provides two executable engines over the same
master/mirror placement a PowerGraph cluster would derive from a
vertex-cut partitioning:

* :class:`LocalGasRuntime` (``mode="local"``) — the partition-local
  runtime: per-partition local index spaces and edge sub-graphs stored
  as one flat replica-slot index, gather/apply/scatter as partition-local
  array kernels run once over its block-diagonal concatenation,
  mirror<->master synchronization through explicit typed message
  buffers, and sparse per-vertex frontier activation.
  ``SuperstepCost.messages``/``bytes`` are *measured* by counting buffer
  rows.
* :class:`GasEngine` (``mode="global"``) — the retained oracle: program
  semantics evaluated on global arrays, costs *modeled* per partition
  (``2 * (|P(v)| - 1)`` sync messages per active replicated vertex).

Both charge compute/communication where the real system pays them: per
superstep every partition gathers over its local edges and applies at its
local masters, every mirror exchanges one accumulator and one value with
its master, and wall-clock = slowest partition + network time (BSP).
The apps (PageRank, connected components, SSSP, label propagation) accept
either engine; the parity tests pin local == global results.
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
from .messages import DensePayload, MessageBuffer, RaggedPayload
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
    "MessageBuffer",
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
