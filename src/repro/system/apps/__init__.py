"""Vertex programs for the GAS system layer: the paper's evaluation
workloads, each one ``*Program`` class against the partition-local
:class:`~repro.system.runtime.LocalContext` API, and a public entry point
(``pagerank`` etc.) that runs it on a runtime."""

from .pagerank import PageRankProgram, pagerank
from .connected_components import ConnectedComponentsProgram, connected_components
from .sssp import SsspProgram, sssp
from .label_propagation import LabelPropagationProgram, label_propagation

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
    "pagerank",
    "ConnectedComponentsProgram",
    "connected_components",
    "SsspProgram",
    "sssp",
    "LabelPropagationProgram",
    "label_propagation",
]
