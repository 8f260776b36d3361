"""The public entry points that hand caller arrays to a kernel.

``ClusteringState.ingest_pair`` and ``TransformState.ingest_pair`` take
endpoint arrays from anyone; HDRF's and greedy's chunk steps take the
columns of whatever ``EdgeStream`` a caller built, so the stream
constructor is their seam.  ``build_local_index`` reads an assignment's
three columns as they are (an array can be rewritten after its
constructor checked it), so it is one more: a column the deployment
kernel cannot index takes the numpy build, and an out-of-range partition
id or endpoint is refused by name before anything is written.  The
compiled kernels index their arguments as raw C-contiguous int64 memory,
so an int32 column read as int64 runs past the buffer (SIGSEGV on the
default tier before the seams coerced).  Pinned here: every integer dtype
/ list / strided view gives the int64 result on every tier, and the
ctypes marshal itself refuses what it cannot index.

Each (tier, entry point) case runs in a child process, so a regression
that crashes the interpreter fails one test instead of killing pytest.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from conftest import BACKENDS, KERNEL_BACKENDS, kernel_backend

import repro
from repro import kernels
from repro.graph.stream import EdgeStream
from repro.kernels import _cc_backend
from repro.partitioners.base import PartitionAssignment
from repro.system.placement import build_local_index

ENTRY_POINTS = ["clustering", "transform", "hdrf", "greedy", "index"]

_CHILD = r"""
import dataclasses
import sys

import numpy as np

from repro.core.clustering import ClusteringState, streaming_clustering
from repro.core.transform import TransformState
from repro.graph.stream import EdgeStream
from repro.partitioners.base import PartitionAssignment
from repro.partitioners.greedy import GreedyPartitioner
from repro.partitioners.hdrf import HDRFPartitioner
from repro.system.placement import build_local_index

n, m, k = 50, 400, 4
rng = np.random.default_rng(7)
u, v = rng.integers(0, n, m), rng.integers(0, n, m)
u[:20] = v[:20]  # self-loops
stream = EdgeStream(u, v, n)
part = rng.integers(0, k, m)


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


def index(a, b, p):
    # columns set past the constructors' coercion: what build_local_index
    # reads off an assignment is whatever a caller left there
    assignment = PartitionAssignment(EdgeStream(u, v, n), part, k)
    assignment.stream.src, assignment.stream.dst, assignment.edge_partition = a, b, p
    built = build_local_index(assignment)
    return tuple(
        getattr(owner, f.name)
        for owner in (built, built.routes, built.placement)
        for f in dataclasses.fields(owner)
        if isinstance(getattr(owner, f.name), np.ndarray)
    )


def cast(dtype):
    return u.astype(dtype), v.astype(dtype), part.astype(dtype)


padded = np.stack([u, np.full(m, -1), v, part], axis=1)
inputs = {
    "int32": cast(np.int32),
    "uint32": cast(np.uint32),
    "int16": cast(np.int16),
    "list": (u.tolist(), v.tolist(), part.tolist()),
    "strided": (padded[:, 0], padded[:, 2], padded[:, 3]),
}
entry = sys.argv[1]
run = {"clustering": clustering, "transform": transform,
       "hdrf": through_a_stream(HDRFPartitioner),
       "greedy": through_a_stream(GreedyPartitioner),
       "index": index}[entry]
if entry != "index":  # the partition column is the index's alone
    run = (lambda f: lambda a, b, p: f(a, b))(run)
else:  # an assignment's columns are arrays: its constructors coerce a list
    del inputs["list"]
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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("column,value", [("part", -1), ("part", 3), ("src", 5), ("dst", -2)])
def test_index_refuses_an_out_of_range_row(backend, column, value):
    """``build_local_index`` is a seam too: an assignment's arrays can be
    written after its constructor checked them.  The bad edge is named on
    every tier and nothing — not even the grouped-edge cache — is built."""
    stream = EdgeStream([0, 1, 2, 3], [1, 2, 3, 4], num_vertices=5)
    assignment = PartitionAssignment(stream, [0, 1, 2, 0], num_partitions=3)
    {"part": assignment.edge_partition, "src": stream.src, "dst": stream.dst}[column][2] = value
    with kernel_backend(backend), pytest.raises(IndexError, match="edge 2: partition"):
        build_local_index(assignment)
    assert assignment._grouped_edges is None


def _slot_index_args(n: int, k: int, m: int) -> list:
    """Every output and scratch array of ``slot_index``, sized as its
    caller sizes them and filled with a sentinel."""
    i64 = [m, k + 1, m, m, 2 * m, k + 1, n, n]
    rest = [2 * m, 2 * m, 2 * m, k + 1, 2 * m, k + 1, n]
    return (
        [np.full(size, 77, dtype=np.int64) for size in i64]
        + [np.ones(2 * m, dtype=bool)]
        + [np.full(size, 77, dtype=np.int64) for size in rest]
        + [np.full((n + 63) // 64, 77, dtype=np.uint64), np.full(2, 77, dtype=np.int64)]
    )


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
def test_slot_index_writes_nothing_before_refusing(backend):
    src, dst = np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4])
    with kernel_backend(backend):
        kernel = kernels.get_backend().slot_index
    for part, bad_src in (([0, 1, 7, 0], src), ([0, 1, 2, 0], np.array([0, 1, 2, 9]))):
        outs = _slot_index_args(5, 3, 4)
        assert kernel(bad_src, dst, np.array(part), 5, 3, *outs) == (2 if part[2] == 7 else 3)
        assert all((out == (True if out.dtype == bool else 77)).all() for out in outs)


def test_cc_slot_index_type_checks_every_argument():
    backend = kernels._load("cc")
    if backend is None:
        pytest.skip("no C compiler")
    columns = [np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]), np.array([0, 1, 2, 0])]
    args = [*columns, 5, 3, *_slot_index_args(5, 3, 4)]
    assert backend.slot_index(*args) == -1
    for at, arg in enumerate(args):
        if not isinstance(arg, np.ndarray):
            continue
        strided = np.repeat(arg, 2)[::2]  # one entry is contiguous at any stride
        for wrong in (arg.astype(np.int32), strided) if arg.size > 1 else (arg.astype(np.int32),):
            with pytest.raises(TypeError, match="C-contiguous"):
                backend.slot_index(*args[:at], wrong, *args[at + 1:])


def test_cc_marshal_passes_plain_addresses():
    """No ctypes object is built per argument: an address is an ``int``."""
    for dtype in (np.int64, np.uint64, np.uint8, np.float64):
        arr = np.zeros(5, dtype=dtype)
        addr = _cc_backend._addr(arr, np.dtype(dtype))
        assert type(addr) is int and addr == arr.ctypes.data
    empty = np.empty(0, dtype=np.int64)
    assert type(_cc_backend._addr(empty, np.dtype(np.int64))) is int
