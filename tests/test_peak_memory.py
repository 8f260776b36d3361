"""Peak-memory bounds of the |E|-sized steps between file and game, and
of the game itself.

CLUGP's state is bounded by |V| and the cluster count, so the process
peak of a run should be set by the edge columns themselves, not by
transients of reading or grouping them.  Measured with ``tracemalloc``
(numpy reports its buffers to it) as the peak above what was allocated
before the call, on a generated ~200k-edge crawl:

* ``read_edges_binary`` holds the two int64 columns it returns plus one
  slab: at most 1.25x the 16 B/edge body (the whole-file reader held the
  body twice, ~2.5x);
* ``build_cluster_graph`` holds one packed key column (4 B/edge while
  ``m * m`` fits int32) and nothing else per edge: at most 5 B/edge plus
  a per-pair term for the grouped output (8 B/edge while a run mask was
  built next to the key column; the label-array build took ~50 B/edge);
* the game on the compiled tier rebuilds each evaluated cluster's
  adjacency row from the cluster graph and holds nothing sized ``m * k``:
  under ``2 * m * k`` bytes at ``k = 1024`` (an ``(m, k)`` float64 table
  alone is ``8 * m * k``).
"""

import tracemalloc

import pytest
from conftest import kernel_backend, needs_compiled

from repro.config import GameConfig
from repro.core.cluster_graph import build_cluster_graph
from repro.core.clustering import streaming_clustering
from repro.core.game import ClusterPartitioningGame
from repro.graph.datasets import load_dataset
from repro.graph.io import read_edges_binary, write_edges_binary
from repro.graph.stream import EdgeStream

#: bytes per grouped ``(cu, cv)`` pair the build may hold on top of the key
#: column: unique keys, rows, columns, counts and the in-CSR regrouping
PER_PAIR_BYTES = 96


@pytest.fixture(scope="module")
def crawl():
    graph = load_dataset("uk", scale=1.0)
    assert 150_000 < graph.num_edges < 250_000
    return graph


def peak_above_inputs(fn, *args):
    """``fn(*args)`` and the bytes its peak held above what existed before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_read_edges_binary_holds_the_columns_and_one_slab(crawl, tmp_path):
    path = tmp_path / "crawl.bin"
    write_edges_binary(crawl, path)
    graph, peak = peak_above_inputs(read_edges_binary, path)
    assert graph.num_edges == crawl.num_edges
    body = 16 * crawl.num_edges
    assert peak <= 1.25 * body, f"peak {peak / body:.2f}x the body"


def test_build_cluster_graph_holds_one_key_column(crawl):
    stream = EdgeStream.from_graph(crawl)
    clustering = streaming_clustering(
        stream, max_volume=crawl.num_edges // 256, enable_splitting=True
    )
    assert clustering.num_clusters**2 < 2**31  # the 4-byte key column
    graph, peak = peak_above_inputs(build_cluster_graph, stream, clustering)
    pairs = graph.indices.size + int((graph.internal > 0).sum())
    bound = 5 * stream.num_edges + PER_PAIR_BYTES * pairs
    assert peak <= bound, (
        f"peak {peak / stream.num_edges:.1f} B/edge, bound "
        f"{bound / stream.num_edges:.1f} B/edge ({pairs} pairs)"
    )


@needs_compiled
def test_the_game_holds_nothing_sized_m_times_k(crawl):
    stream = EdgeStream.from_graph(crawl)
    clustering = streaming_clustering(stream, max_volume=80, enable_splitting=True)
    graph = build_cluster_graph(stream, clustering)
    m, k = graph.num_clusters, 1024
    assert 1500 < m < 2500
    graph.cut_degrees(), graph.out_rows()  # the graph's own lazy views

    def play():
        with kernel_backend("auto"):
            return ClusterPartitioningGame(graph, k, GameConfig(seed=0)).run()

    result, peak = peak_above_inputs(play)
    assert result.converged and result.moves > 0
    assert peak < 2 * m * k, f"peak {peak / (m * k):.2f} B per (cluster, partition) cell"
