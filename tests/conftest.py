"""Shared fixtures: small deterministic graphs and streams.

Also pins a deterministic hypothesis profile (fixed derandomized seed,
no deadline) so property tests never flake on a loaded CI worker and a
failure reproduces bit-identically from the printed example.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest

try:
    from hypothesis import settings

    settings.register_profile(
        "deterministic", derandomize=True, deadline=None, print_blob=True
    )
    settings.load_profile("deterministic")
except ImportError:  # pragma: no cover - hypothesis not installed
    pass

from repro import kernels
from repro.core.clustering import ClusteringState
from repro.core.distributed import _shard_ranges
from repro.core.game import ClusterPartitioningGame
from repro.core.partitioner import ClugpPartitioner
from repro.core.transform import TransformState
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    erdos_renyi_graph,
    planted_partition_graph,
    star_graph,
    web_crawl_graph,
)
from repro.graph.stream import EdgeStream
from repro.partitioners.base import PartitionAssignment


def kernel_backend(name: str):
    """Context manager: every hot class *constructed* inside resolves ``name``.

    The only way left to force a tier — it patches ``CLUGP_KERNEL_BACKEND``
    (``"auto"`` = the unforced resolution, ``cc`` wherever it builds,
    whatever the outer environment says).  A context manager rather than a fixture so it also
    works inside ``@given`` bodies; a ``PersistentRuntime`` resolves at
    spawn, so enter this before constructing one.
    """
    return mock.patch.dict(os.environ, {"CLUGP_KERNEL_BACKEND": name})


needs_compiled = pytest.mark.skipif(
    not kernels.available(), reason="no compiled kernel backend (cc: no working C compiler)"
)

#: the tiers a differential compares, as pytest params: the ``python``
#: kernels a host without a C compiler runs, and the compiled ``cc`` tier
#: an unset environment resolves
BACKENDS = [
    pytest.param("python", id="python"),
    pytest.param("auto", id="compiled", marks=needs_compiled),
]


def assert_clustering_equal(a, b):
    """Two pass-1 results agree in every table and counter."""
    assert np.array_equal(a.cluster_of, b.cluster_of)
    assert np.array_equal(a.degree, b.degree)
    assert np.array_equal(a.volume, b.volume)
    assert np.array_equal(a.divided, b.divided)
    assert a.num_clusters == b.num_clusters
    assert (a.splits, a.migrations) == (b.splits, b.migrations)


def per_shard_rf(stream: EdgeStream, k: int, num_nodes: int, seed: int = 0) -> float:
    """Replication factor of the no-exchange deployment the merge must
    beat: CLUGP on each of ``distributed_clugp``'s shards (node ``i`` at
    ``seed + i``), the assignments concatenated."""
    out = np.empty(stream.num_edges, dtype=np.int64)
    for node, (start, stop) in enumerate(_shard_ranges(stream.num_edges, num_nodes)):
        shard = EdgeStream(stream.src[start:stop], stream.dst[start:stop], stream.num_vertices)
        out[start:stop] = ClugpPartitioner(k, seed=seed + node).partition(shard).edge_partition
    return PartitionAssignment(stream, out, k).replication_factor()


@pytest.fixture
def spy(monkeypatch):
    """Record the backend every pass-1/2/3 engine resolved."""
    ran = {"pass1": [], "game": [], "pass3": []}

    def record(cls, key):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            init(self, *args, **kwargs)
            ran[key].append(self._backend)

        monkeypatch.setattr(cls, "__init__", wrapped)

    record(ClusteringState, "pass1")
    record(ClusterPartitioningGame, "game")
    record(TransformState, "pass3")
    return ran


@pytest.fixture(scope="session")
def tiny_graph() -> DiGraph:
    """The 7-vertex example of the paper's Figure 1."""
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (3, 5), (5, 6), (3, 6), (0, 4)]
    return DiGraph.from_edges(edges)


@pytest.fixture(scope="session")
def crawl_graph() -> DiGraph:
    """A ~12K-edge synthetic web crawl (session-cached for speed)."""
    return web_crawl_graph(
        1200, avg_out_degree=10.0, host_size=30, intra_host_prob=0.88, seed=5
    )


@pytest.fixture(scope="session")
def crawl_stream(crawl_graph) -> EdgeStream:
    return EdgeStream.from_graph(crawl_graph, order="natural")


@pytest.fixture(scope="session")
def community_graph() -> DiGraph:
    return planted_partition_graph(12, 40, p_in=0.2, p_out=0.004, seed=9)


@pytest.fixture(scope="session")
def random_graph() -> DiGraph:
    return erdos_renyi_graph(400, 3000, seed=13)


@pytest.fixture(scope="session")
def hub_graph() -> DiGraph:
    return star_graph(200)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
