"""The default path is the compiled path.

Default-constructed objects in every host (single process, service,
distributed) must actually run the :mod:`repro.kernels` backend when one
resolves, ``partition()`` must agree with the per-edge oracle for every
registered algorithm, and the same calls with no backend at all
(``CLUGP_KERNEL_BACKEND=none`` — the numpy fallback) must return the
same arrays.
"""

import numpy as np
import pytest

from repro import kernels
from repro.config import ClugpConfig, GameConfig
from repro.core.clustering import ClusteringState
from repro.core.distributed import distributed_clugp
from repro.core.game import ClusterPartitioningGame
from repro.core.partitioner import ClugpPartitioner
from repro.core.transform import TransformState
from repro.partitioners.registry import PARTITIONERS, make_partitioner
from repro.service import PartitionService

K = 4

needs_backend = pytest.mark.skipif(
    not kernels.available(), reason="no compiled kernel backend (numba or cc)"
)


@pytest.fixture(autouse=True)
def auto_resolution(monkeypatch):
    """Every test starts from the shipped resolution, whatever the CI leg set."""
    monkeypatch.delenv("CLUGP_KERNEL_BACKEND", raising=False)


@pytest.fixture
def spy(monkeypatch):
    """Record the implementation every pass-1/2/3 engine resolved to."""
    ran = {"pass1": [], "game": [], "pass3": []}

    def record(cls, key, attr):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            init(self, *args, **kwargs)
            ran[key].append(getattr(self, attr))

        monkeypatch.setattr(cls, "__init__", wrapped)

    record(ClusteringState, "pass1", "_run_impl")
    record(ClusterPartitioningGame, "game", "game_impl")
    record(TransformState, "pass3", "_run_impl")
    return ran


def assert_all(ran, impl):
    for key, impls in ran.items():
        assert impls, f"{key} never ran"
        assert set(impls) == {impl}, (key, impls)


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
    result = distributed_clugp(stream, K, num_nodes=2, merge_mode="merged")
    return result.assignment.edge_partition


def test_config_defaults_are_jit():
    assert ClugpConfig().chunk_impl == "jit"
    assert GameConfig().game_impl == "jit"
    assert ClugpConfig().game.game_impl == "jit"


@needs_backend
class TestCompiledBackendRuns:
    def test_clugp_partitioner(self, crawl_stream, spy):
        ClugpPartitioner(K).partition(crawl_stream)
        assert_all(spy, "jit")

    def test_clugp_chunk_protocol(self, crawl_stream, spy):
        ClugpPartitioner(K).partition_chunked(crawl_stream, chunk_size=999)
        assert_all(spy, "jit")

    @pytest.mark.parametrize("name", ["hdrf", "greedy"])
    def test_stateful_baselines(self, crawl_stream, name):
        partitioner = make_partitioner(name, K)
        assert partitioner.chunk_impl == "jit"
        partitioner.partition(crawl_stream)
        assert partitioner._run_impl == "jit"

    def test_partition_service(self, crawl_stream, spy):
        feed_service(crawl_stream)
        assert_all(spy, "jit")

    def test_distributed_workers(self, crawl_stream, spy):
        run_distributed(crawl_stream)
        assert_all(spy, "jit")


def test_registry_is_the_thirteen():
    assert len(PARTITIONERS) == 13  # the sweep below covers all of them


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
def test_partition_matches_per_edge_oracle(crawl_stream, name):
    default = make_partitioner(name, K, seed=1).partition(crawl_stream)
    oracle = make_partitioner(name, K, seed=1).partition_per_edge(crawl_stream)
    assert np.array_equal(default.edge_partition, oracle.edge_partition)


class TestNumpyFallbackIdentical:
    """``CLUGP_KERNEL_BACKEND=none``: same calls, same arrays."""

    @pytest.fixture
    def no_backend(self, monkeypatch):
        def switch():
            monkeypatch.setenv("CLUGP_KERNEL_BACKEND", "none")
            assert kernels.get_backend() is None

        return switch

    @pytest.mark.parametrize("name", ["clugp", "clugp-s", "clugp-g", "hdrf", "greedy"])
    def test_partitioners(self, crawl_stream, no_backend, name):
        default = make_partitioner(name, K, seed=2).partition(crawl_stream)
        no_backend()
        partitioner = make_partitioner(name, K, seed=2)
        fallback = partitioner.partition(crawl_stream)
        assert getattr(partitioner, "_run_impl", "fast") == "fast"
        assert np.array_equal(default.edge_partition, fallback.edge_partition)

    def test_service_and_distributed(self, crawl_stream, no_backend, spy):
        served, distributed = feed_service(crawl_stream), run_distributed(crawl_stream)
        for impls in spy.values():
            impls.clear()
        no_backend()
        assert np.array_equal(served, feed_service(crawl_stream))
        assert np.array_equal(distributed, run_distributed(crawl_stream))
        assert_all(spy, "fast")
