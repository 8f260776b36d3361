"""The default path is the compiled path.

Default-constructed objects in every host (single process, service,
distributed) must actually run the compiled :mod:`repro.kernels` backend
when it builds, and the same calls on the ``python`` kernels
(``CLUGP_KERNEL_BACKEND=python`` — what a host without a C compiler
runs) must return the same arrays.  (``partition()`` ≡ the per-edge oracle for every registered
algorithm is ``test_kernels.py::test_streaming_three_way_identity``.)
The public surface — no implementation selector anywhere, two entries
and one accounting method on :class:`EdgePartitioner` — is pinned here.
"""

import dataclasses
import inspect

import numpy as np
import pytest
from conftest import kernel_backend, needs_compiled

from repro import kernels
from repro.bench.harness import clugp_stage_times
from repro.cli import build_parser
from repro.config import ClugpConfig, GameConfig
from repro.core.clustering import ClusteringState
from repro.core.distributed import distributed_clugp
from repro.core.game import ClusterPartitioningGame
from repro.core.partitioner import ClugpPartitioner
from repro.core.transform import TransformState, replay_transform_chunked
from repro.partitioners.base import EdgePartitioner
from repro.partitioners.greedy import GreedyPartitioner
from repro.partitioners.hdrf import HDRFPartitioner
from repro.partitioners.registry import PARTITIONERS, make_partitioner
from repro.service import PartitionService

K = 4


@pytest.fixture(autouse=True)
def auto_resolution(monkeypatch):
    """Every test starts from the shipped resolution, whatever the CI leg set."""
    monkeypatch.delenv("CLUGP_KERNEL_BACKEND", raising=False)


def assert_all(ran, compiled):
    for key, backends in ran.items():
        assert backends, f"{key} never ran"
        assert {b.name == "cc" for b in backends} == {compiled}, key


def feed_service(stream, batches=4):
    service = PartitionService(
        stream.num_vertices, ClugpConfig(num_partitions=K),
        expected_edges=stream.num_edges,
    )
    try:
        for src, dst in stream.batches(-(-stream.num_edges // batches)):
            service.ingest_pair(src, dst)
        return service.edge_partition
    finally:
        service.close()


def run_distributed(stream):
    result = distributed_clugp(stream, K, num_nodes=2)
    return result.assignment.edge_partition


def test_config_defaults_are_jit():
    # there is no default to read off a config any more: an unset
    # environment *is* the compiled path wherever one loads
    assert (kernels.backend_name() == "cc") == kernels.available()


RETIRED = {"chunk_impl", "game_impl", "kernel_backend", "vectorized"}


def test_no_caller_can_name_an_implementation(capsys):
    """The surface PR 16 removed stays removed: fields, parameters, flags."""
    for cfg in (ClugpConfig, GameConfig):
        assert not RETIRED & {f.name for f in dataclasses.fields(cfg)}, cfg
    for fn in (
        HDRFPartitioner, GreedyPartitioner, ClusteringState, ClusteringState.from_state,
        TransformState, ClusterPartitioningGame, ClugpPartitioner,
        ClugpPartitioner._map_clusters, ClusteringState.run, TransformState.run,
        replay_transform_chunked, clugp_stage_times, kernels.get_backend,
    ):
        assert not (RETIRED | {"strict"}) & set(inspect.signature(fn).parameters), fn
    for command in ("partition", "serve", "distribute"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        text = capsys.readouterr().out.replace("-", "_")
        assert not [word for word in RETIRED if word in text], command
    # ... and the partitioner contract stays two entries + one accounting
    # method: the next public name on the base class is a decision
    public = {name for name in vars(EdgePartitioner) if not name.startswith("_")}
    assert public == {
        "partition", "partition_per_edge", "state_memory_bytes",
        "name", "preferred_order", "default_chunk_size",
    }
    for name in sorted(PARTITIONERS):  # both entries are final: nobody overrides one
        for cls in type(make_partitioner(name, 2)).__mro__:
            if cls is not EdgePartitioner:
                assert not {"partition", "partition_per_edge"} & set(vars(cls)), cls


@needs_compiled
class TestCompiledBackendRuns:
    def test_clugp_partitioner(self, crawl_stream, spy):
        ClugpPartitioner(K).partition(crawl_stream)
        assert_all(spy, compiled=True)

    def test_clugp_at_a_chunk_size(self, crawl_stream, spy):
        ClugpPartitioner(K).partition(crawl_stream, chunk_size=999)
        assert_all(spy, compiled=True)

    @pytest.mark.parametrize("name", ["hdrf", "greedy"])
    def test_stateful_baselines(self, crawl_stream, name):
        partitioner = make_partitioner(name, K)
        partitioner.partition(crawl_stream)
        assert partitioner._backend.name == "cc"

    def test_partition_service(self, crawl_stream, spy):
        feed_service(crawl_stream)
        assert_all(spy, compiled=True)

    def test_distributed_workers(self, crawl_stream, spy):
        run_distributed(crawl_stream)
        assert_all(spy, compiled=True)


def test_registry_is_the_eight():
    # the paper's comparators and CLUGP's variants; test_kernels.py's
    # differential sweeps every one of them
    assert set(PARTITIONERS) == {
        "hashing", "dbh", "greedy", "hdrf", "mint",
        "clugp", "clugp-g", "clugp-dist",
    }


class TestPythonTierIdentical:
    """``CLUGP_KERNEL_BACKEND=python``: same calls, same arrays."""

    @pytest.mark.parametrize("name", ["clugp", "clugp-g", "hdrf", "greedy"])
    def test_partitioners(self, crawl_stream, name):
        default = make_partitioner(name, K, seed=2).partition(crawl_stream)
        with kernel_backend("python"):
            assert kernels.backend_name() == "python"
            fallback = make_partitioner(name, K, seed=2).partition(crawl_stream)
        assert np.array_equal(default.edge_partition, fallback.edge_partition)

    def test_service_and_distributed(self, crawl_stream, spy):
        served, distributed = feed_service(crawl_stream), run_distributed(crawl_stream)
        for impls in spy.values():
            impls.clear()
        with kernel_backend("python"):
            assert np.array_equal(served, feed_service(crawl_stream))
            assert np.array_equal(distributed, run_distributed(crawl_stream))
        assert_all(spy, compiled=False)
