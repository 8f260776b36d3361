"""The public entry points that hand caller arrays to a kernel.

``ClusteringState.ingest_pair`` and ``TransformState.ingest_pair`` take
endpoint arrays from anyone; HDRF's and greedy's chunk steps take the
columns of whatever ``EdgeStream`` a caller built, so the stream
constructor is their seam.  The compiled kernels index them as raw
C-contiguous int64 memory, so an int32 column read as int64 runs past the
buffer (SIGSEGV on the default tier before the seams coerced).  Pinned
here: every integer dtype / list / strided view gives the int64 result on
every tier, and the ctypes marshal itself refuses what it cannot index.

Each (tier, entry point) case runs in a child process, so a regression
that crashes the interpreter fails one test instead of killing pytest.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from conftest import BACKENDS

import repro
from repro.kernels import _cc_backend

ENTRY_POINTS = ["clustering", "transform", "hdrf", "greedy"]

_CHILD = r"""
import sys

import numpy as np

from repro.core.clustering import ClusteringState, streaming_clustering
from repro.core.transform import TransformState
from repro.graph.stream import EdgeStream
from repro.partitioners.greedy import GreedyPartitioner
from repro.partitioners.hdrf import HDRFPartitioner

n, m, k = 50, 400, 4
rng = np.random.default_rng(7)
u, v = rng.integers(0, n, m), rng.integers(0, n, m)
u[:20] = v[:20]  # self-loops
stream = EdgeStream(u, v, n)


def clustering(a, b):
    state = ClusteringState(n, 40)
    state.ingest_pair(a, b)
    out = state.finalize()
    return out.cluster_of, out.degree, out.volume, out.divided.view(np.uint8)


def transform(a, b):
    clusters = streaming_clustering(stream, 40)
    to_partition = np.arange(clusters.num_clusters) % k
    state = TransformState(clusters, to_partition, k, num_edges=m, num_vertices=n)
    return state.ingest_pair(a, b), state.loads


def through_a_stream(cls):
    def run(a, b):
        return (cls(k).partition(EdgeStream(a, b, n), chunk_size=97).edge_partition,)
    return run


def cast(dtype):
    return u.astype(dtype), v.astype(dtype)


padded = np.stack([u, np.full(m, -1), v], axis=1)
inputs = {
    "int32": cast(np.int32),
    "uint32": cast(np.uint32),
    "int16": cast(np.int16),
    "list": (u.tolist(), v.tolist()),
    "strided": (padded[:, 0], padded[:, 2]),
}
run = {"clustering": clustering, "transform": transform,
       "hdrf": through_a_stream(HDRFPartitioner),
       "greedy": through_a_stream(GreedyPartitioner)}[sys.argv[1]]
want = run(*cast(np.int64))
for name, given in inputs.items():
    for got, expected in zip(run(*given), want):
        assert got.dtype == expected.dtype and np.array_equal(got, expected), name
print("ok")
"""


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_any_integer_input_equals_the_int64_run(entry, backend):
    src = str(pathlib.Path(repro.__file__).parent.parent)
    env = dict(
        os.environ,
        CLUGP_KERNEL_BACKEND=backend,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, entry],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0 and child.stdout.strip() == "ok", (
        f"{entry} on {backend}: exit {child.returncode}\n{child.stderr}"
    )


def test_cc_marshal_refuses_what_it_cannot_index():
    """Called on ``_addr`` itself: a kernel handed one of these would crash."""
    i64, u64 = np.dtype(np.int64), np.dtype(np.uint64)
    column = np.arange(6, dtype=np.int64).reshape(3, 2)[:, 0]
    with pytest.raises(TypeError, match="C-contiguous int64"):
        _cc_backend._addr(np.arange(3, dtype=np.int32), i64)
    with pytest.raises(TypeError, match="C-contiguous int64"):
        _cc_backend._addr(column, i64)
    with pytest.raises(TypeError, match="uint64"):  # right width, wrong type
        _cc_backend._addr(np.arange(3, dtype=np.int64), u64)
    with pytest.raises(TypeError, match="int64"):
        _cc_backend._addr(np.zeros(3, dtype=np.float64), i64)


def test_cc_marshal_passes_plain_addresses():
    """No ctypes object is built per argument: an address is an ``int``."""
    for dtype in (np.int64, np.uint64, np.uint8, np.float64):
        arr = np.zeros(5, dtype=dtype)
        addr = _cc_backend._addr(arr, np.dtype(dtype))
        assert type(addr) is int and addr == arr.ctypes.data
    empty = np.empty(0, dtype=np.int64)
    assert type(_cc_backend._addr(empty, np.dtype(np.int64))) is int
