"""Vertex programs for the GAS system layer: the paper's evaluation
workloads, each in two executable forms — a global-array oracle program
(``*Program``) and its subclass, a partition-local program
(``Local*Program``) against the :class:`~repro.system.runtime.LocalContext`
API.  The public entry points (``pagerank`` etc.) run the subclass on any
engine: the oracle reads its global half, the runtimes the local one."""

from .pagerank import LocalPageRankProgram, PageRankProgram, pagerank
from .connected_components import (
    ConnectedComponentsProgram,
    LocalConnectedComponentsProgram,
    connected_components,
)
from .sssp import LocalSsspProgram, SsspProgram, sssp
from .label_propagation import (
    LabelPropagationProgram,
    LocalLabelPropagationProgram,
    label_propagation,
)

#: app name -> public entry point (the CLI ``run-app`` registry)
APPS = {
    "pagerank": pagerank,
    "sssp": sssp,
    "connected_components": connected_components,
    "label_propagation": label_propagation,
}

__all__ = [
    "APPS",
    "PageRankProgram",
    "LocalPageRankProgram",
    "pagerank",
    "ConnectedComponentsProgram",
    "LocalConnectedComponentsProgram",
    "connected_components",
    "SsspProgram",
    "LocalSsspProgram",
    "sssp",
    "LabelPropagationProgram",
    "LocalLabelPropagationProgram",
    "label_propagation",
]
