"""Seeded, vectorized fixture generators for the perf benchmark.

The program under test only ever sees the generated edge arrays.  Both
generators are pure numpy (no per-edge Python): the repo's own
``graph.generators.web_crawl_graph`` is a per-edge loop and would take
minutes at these sizes.

``python3 perf/fixtures.py crawl|rmat SIZE SEED PATH`` writes one graph as
a ``CLUGPED1`` file.  ``run.py`` runs it as a process of its own, so the
generator's temporaries count toward no workload's memory.
"""

from __future__ import annotations

import sys

import numpy as np

# crawl: pages per host, mean out-links per page, share of links that stay in
# the host block, share of the rest that go to an old hub
HOST_BLOCK = 48
MEAN_OUT = 12.0
P_LOCAL = 0.88
P_HUB = 0.6

# R-MAT: edges per vertex and quadrant probabilities (d = 1 - a - b - c)
EDGE_FACTOR = 16
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19


def crawl_graph(num_pages: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """A web crawl in crawl order: ``(src, dst, num_vertices)``.

    Pages are numbered in fetch order and emit Poisson(``MEAN_OUT``)
    out-links as they are fetched, so ``src`` is non-decreasing.  Hosts
    are blocks of ``HOST_BLOCK`` consecutive ids.  A link stays inside
    the page's host block with probability ``P_LOCAL`` (uniform over the
    block, forward links allowed, never a self-loop); otherwise it goes
    to an earlier page ``floor(v * u**3)`` with probability ``P_HUB``
    (heavy-tailed toward old hubs) or to a uniform earlier page.
    """
    if num_pages < 2 * HOST_BLOCK or num_pages % HOST_BLOCK:
        raise ValueError(f"num_pages must be a multiple of {HOST_BLOCK}, >= {2 * HOST_BLOCK}")
    rng = np.random.default_rng([seed, 0xC4A1])
    out_degree = rng.poisson(MEAN_OUT, num_pages)
    src = np.repeat(np.arange(num_pages, dtype=np.int64), out_degree)
    m = src.size
    local = rng.random(m) < P_LOCAL
    local |= src == 0  # page 0 has no earlier page to link to
    # uniform over the other HOST_BLOCK - 1 pages of the block
    in_block = (src // HOST_BLOCK) * HOST_BLOCK + rng.integers(0, HOST_BLOCK - 1, m)
    in_block += in_block >= src
    u = rng.random(m)
    u = np.where(rng.random(m) < P_HUB, u * u * u, u)
    earlier = np.floor(src * u).astype(np.int64)
    dst = np.where(local, in_block, earlier)
    return src, dst, num_pages


def rmat_graph(scale: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """R-MAT ``(src, dst, num_vertices)`` with ``EDGE_FACTOR << scale`` edges.

    Edges are independent draws, so their order is already a uniform
    shuffle: the stream has no locality for pass 1 to exploit.
    """
    rng = np.random.default_rng([seed, 0x52A7])
    a, b, c = RMAT_A, RMAT_B, RMAT_C
    m = EDGE_FACTOR << scale
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(m)
        src = (src << 1) | (r >= a + b)
        dst = (dst << 1) | (((r >= a) & (r < a + b)) | (r >= a + b + c))
    return src, dst, 1 << scale


if __name__ == "__main__":
    from repro.graph.digraph import DiGraph
    from repro.graph.io import write_edges_binary

    kind, size, seed, path = sys.argv[1:]
    generate = {"crawl": crawl_graph, "rmat": rmat_graph}[kind]
    src, dst, n = generate(int(size), int(seed))
    write_edges_binary(DiGraph(src, dst, n), path)
