"""The public entry points that hand caller arrays to a kernel.

``ClusteringState.ingest_pair`` and ``TransformState.ingest_pair`` take
endpoint arrays from anyone; HDRF's and greedy's chunk steps take the
columns of whatever ``EdgeStream`` a caller built, so the stream
constructor is their seam.  ``build_local_index`` reads an assignment's
three columns as they are (an array can be rewritten after its
constructor checked it), so it is one more: a column the deployment
kernel cannot index is coerced to int64 first, and an out-of-range
partition id or endpoint is refused by name before anything is written.  The
compiled kernels index their arguments as raw C-contiguous int64 memory,
so an int32 column read as int64 runs past the buffer (SIGSEGV on the
default tier before the seams coerced).  Pinned here: every integer dtype
/ list / strided view gives the int64 result on every tier, and the
ctypes marshal itself refuses what it cannot index.  The two chunk states
index their vertex tables with the caller's ids as well: an id outside
``[0, num_vertices)`` is refused on every tier before any state changes
(the compiled tier died with SIGSEGV on ``10**6``, and every tier took
``-1`` as the last vertex), and so are endpoint columns of unequal length.

Each (tier, entry point) case runs in a child process, so a regression
that crashes the interpreter fails one test instead of killing pytest.
"""

import ctypes
import inspect
import os
import pathlib
import re
import subprocess
import sys
import types

import numpy as np
import pytest
from conftest import BACKENDS, kernel_backend

import repro
from repro import kernels
from repro.core.clustering import ClusteringState, streaming_clustering
from repro.core.transform import TransformState
from repro.graph.stream import EdgeStream
from repro.kernels import _cc_backend, _pykernels
from repro.partitioners.base import PartitionAssignment
from repro.reliability import VertexRangeError
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
    state = ClusteringState(n, 40, enable_splitting=True)
    state.ingest_pair(a, b)
    out = state.finalize()
    return out.cluster_of, out.degree, out.volume, out.divided.view(np.uint8)


def transform(a, b):
    clusters = streaming_clustering(stream, 40, enable_splitting=True)
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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("column,value", [("part", -1), ("part", 3), ("src", 5), ("dst", -2)])
def test_index_refuses_an_out_of_range_row(backend, column, value):
    """``build_local_index`` is a seam too: an assignment's arrays can be
    written after its constructor checked them.  The bad edge is named on
    every tier."""
    stream = EdgeStream([0, 1, 2, 3], [1, 2, 3, 4], num_vertices=5)
    assignment = PartitionAssignment(stream, [0, 1, 2, 0], num_partitions=3)
    {"part": assignment.edge_partition, "src": stream.src, "dst": stream.dst}[column][2] = value
    with kernel_backend(backend), pytest.raises(IndexError, match="edge 2: partition"):
        build_local_index(assignment)


def _slot_index_args(n: int, k: int, m: int) -> list:
    """Every output and scratch array of ``slot_index``, sized as its
    caller sizes them and filled with a sentinel."""
    i64 = [m, k + 1, m, m, 2 * m, k + 1, n, n]
    rest = [2 * m, 2 * m, 2 * m, k + 1, n]
    return (
        [np.full(size, 77, dtype=np.int64) for size in i64]
        + [np.ones(2 * m, dtype=bool)]
        + [np.full(size, 77, dtype=np.int64) for size in rest]
        + [np.full((n + 63) // 64, 77, dtype=np.uint64), np.full(2, 77, dtype=np.int64)]
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_slot_index_writes_nothing_before_refusing(backend):
    src, dst = np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4])
    with kernel_backend(backend):
        kernel = kernels.get_backend().slot_index
    for part, bad_src in (([0, 1, 7, 0], src), ([0, 1, 2, 0], np.array([0, 1, 2, 9]))):
        outs = _slot_index_args(5, 3, 4)
        assert kernel(bad_src, dst, np.array(part), 5, 3, *outs) == (2 if part[2] == 7 else 3)
        assert all((out == (True if out.dtype == bool else 77)).all() for out in outs)


#: the cluster-graph grouping: one ``pack_pairs`` / ``group_keys``
#: instance per key-column width
KEY_WIDTHS = [("i32", np.int32), ("i64", np.int64)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("width,dtype", KEY_WIDTHS)
def test_pack_pairs_names_the_first_row_it_cannot_pack(width, dtype, backend):
    """The endpoints index the caller's label map and the labels must lie
    in ``[0, m)``: the first row breaking either is returned, on every
    tier and at both widths."""
    with kernel_backend(backend):
        pack = getattr(kernels.get_backend(), f"pack_pairs_{width}")
    label = np.array([0, 2, 1, 2, 5, -1])
    u, v = np.array([0, 1, 2, 3]), np.array([1, 2, 0, 3])
    keys = np.full(4, 77, dtype=dtype)
    assert pack(u, v, label, 3, keys) == -1
    assert keys.tolist() == (label[u] * 3 + label[v]).tolist()
    # label 5 / label -1 / no label (6 = len(label)) / endpoint -1
    for bad_u, row in (([0, 1, 4, 0], 2), ([0, 5, 1, 0], 1), ([0, 1, 2, 6], 3), ([-1, 0, 0, 0], 0)):
        assert pack(np.array(bad_u), v, label, 3, np.empty(4, dtype=dtype)) == row, bad_u
    assert pack(u, v, label, 2, np.empty(4, dtype=dtype)) == 0  # label 2 at m = 2


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("width,dtype", KEY_WIDTHS)
def test_group_keys_sizes_then_fills_and_refuses_a_key_outside_m_squared(
    width, dtype, backend
):
    """A first call with empty pair arrays writes the three per-cluster
    arrays in full and returns the pair count; the second fills both CSRs
    and writes nothing past the pair arrays; a key outside ``[0, m * m)``
    or out of order is -1 on every tier and at both widths."""
    with kernel_backend(backend):
        group = getattr(kernels.get_backend(), f"group_keys_{width}")
    m = 3
    # (0, 0) x2, (0, 1), (0, 2) x3, (1, 1), (1, 2), (2, 1)
    keys = np.array([0, 0, 1, 2, 2, 2, 4, 5, 7], dtype=dtype)
    heads = [np.full(size, 77, dtype=np.int64) for size in (m, m + 1, m + 1)]
    none = np.empty(0, dtype=np.int64)
    assert group(keys, m, *heads, none, none, none, none) == 4
    internal, indptr, in_indptr = heads
    assert internal.tolist() == [2, 1, 0] and indptr.tolist() == [0, 2, 3, 4]
    assert in_indptr.tolist() == [0, 0, 2, 4]
    pairs = [np.full(4, 77, dtype=np.int64) for _ in range(4)]
    assert group(keys, m, *heads, *pairs) == 4
    indices, weights, in_indices, in_weights = (p.tolist() for p in pairs)
    assert (indices, weights) == ([1, 2, 2, 1], [1, 3, 1, 1])
    assert (in_indices, in_weights) == ([0, 2, 0, 1], [1, 1, 3, 1])
    short = [np.empty(3, dtype=np.int64) for _ in range(4)]
    assert group(keys, m, *heads, *short) == -1
    for bad in ([0, 9], [-1, 0], [2, 1]):
        assert group(np.array(bad, dtype=dtype), m, *heads, none, none, none, none) == -1


def test_cc_marshal_passes_plain_addresses():
    """No ctypes object is built per argument: an address is an ``int``."""
    for dtype in (np.int64, np.uint64, np.uint8, np.float64):
        arr = np.zeros(5, dtype=dtype)
        addr = kernels._addr(arr, np.dtype(dtype))
        assert type(addr) is int and addr == arr.ctypes.data
    empty = np.empty(0, dtype=np.int64)
    assert type(kernels._addr(empty, np.dtype(np.int64))) is int


# ---------------------------------------------------------------------- #
# the kernel table: every array argument of every row, on both tiers
# ---------------------------------------------------------------------- #

TIERS = ["python", "cc"]

#: (kernel, array argument): every one the table declares
ARRAY_ARGS = [
    (name, arg)
    for name, kernel in kernels.KERNELS.items()
    for arg, kind in kernel.args
    if kind in kernels.ARRAY_KINDS
]

#: a wrong element type of the kind's own width
SAME_WIDTH = {"i64[]": np.uint64, "i32[]": np.uint32, "f64[]": np.int64, "u64[]": np.int64,
              "u8[]": np.int8, "bool[]": np.uint8}


class _Spy:
    """Stands in for a kernel implementation: records what reaches it."""

    def __init__(self):
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)
        return -1


def _spied(tier, monkeypatch):
    """Tier ``tier`` bound, as it binds, over spies instead of kernels."""
    spies = {name: _Spy() for name in kernels.KERNELS}
    if tier == "cc":  # a stand-in library: no compiler needed
        return _cc_backend.CcBackend(types.SimpleNamespace(**spies)), spies
    for name, spy in spies.items():
        monkeypatch.setattr(_pykernels, name, spy)
    return kernels.PythonBackend(), spies


def _table_args(kernel):
    """The numpy-level arguments from the row alone: size-4 arrays of the
    kind's element type, zero scalars."""
    kinds = dict(kernel.args)
    return {
        arg: np.zeros(4, kernels.ARRAY_KINDS[kinds[arg]]) if kinds[arg] in kernels.ARRAY_KINDS else 0
        for arg in kernel.params
    }


def test_the_seam_test_covers_every_array_argument():
    """Counted against the C source, not the table: every pointer
    parameter of every exported kernel is a parametrized case."""
    pointers = [
        (name, arg)
        for name, params in _c_signatures().items()
        for ctype, arg in params
        if ctype.endswith("*")
    ]
    assert sorted(ARRAY_ARGS) == sorted(pointers)
    assert {name for name, _ in ARRAY_ARGS} == set(kernels.KERNELS)


@pytest.mark.parametrize("tier", TIERS)
def test_the_table_arguments_reach_the_kernel(tier, monkeypatch):
    """The control: what the table describes goes through, once, as the
    tier's implementation takes it (C: addresses and the lengths)."""
    backend, spies = _spied(tier, monkeypatch)
    for name, kernel in kernels.KERNELS.items():
        args = _table_args(kernel)
        getattr(backend, name)(*args.values())
        (got,) = spies[name].calls
        if tier == "python":
            assert all(a is b for a, b in zip(got, args.values(), strict=True))
            continue
        for (arg, kind), value in zip(kernel.args, got, strict=True):
            if kind in kernels.ARRAY_KINDS:
                assert value == args[arg].ctypes.data, (name, arg)
            else:
                assert value == (4 if kind.startswith("len(") else 0), (name, arg)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("wrong", ["int32", "strided", "same_width", "zero_d", "list"])
@pytest.mark.parametrize("name,arg", ARRAY_ARGS)
def test_every_array_argument_is_refused_before_the_kernel(name, arg, wrong, tier, monkeypatch):
    backend, spies = _spied(tier, monkeypatch)
    kernel = kernels.KERNELS[name]
    kind = dict(kernel.args)[arg]
    args = _table_args(kernel)
    args[arg] = {
        # (an i32[] argument is given int64: the wrong width either way)
        "int32": lambda: np.zeros(4, np.int64 if kind == "i32[]" else np.int32),
        "strided": lambda: np.zeros(8, kernels.ARRAY_KINDS[kind])[::2],
        "same_width": lambda: np.zeros(4, SAME_WIDTH[kind]),
        # one element, however long the kernel reads it
        "zero_d": lambda: np.zeros((), kernels.ARRAY_KINDS[kind]),
        "list": lambda: [0, 0, 0, 0],
    }[wrong]()
    with pytest.raises(TypeError, match="C-contiguous"):
        getattr(backend, name)(*args.values())
    assert spies[name].calls == []


#: the game's adjacency: the out-CSR triple, then the in-CSR triple
GAME_CSR_ARGS = ("indptr", "indices", "weights", "in_indptr", "in_indices", "in_weights")


@pytest.mark.parametrize("name", ["game_round"])
def test_the_game_kernels_take_both_csr_triples(name):
    """The game reads the cluster graph's two CSR triples as they are, so
    each of the six arrays is a case of the refusal test above."""
    params = kernels.KERNELS[name].params
    start = params.index("indptr")
    assert tuple(params[start : start + 6]) == GAME_CSR_ARGS
    assert {(name, arg) for arg in GAME_CSR_ARGS} <= set(ARRAY_ARGS)


#: (kernel, scalar argument, wrong value): every scalar the table
#: declares, given what neither kind takes; an ``i64`` also a float
SCALAR_CASES = [
    (name, arg, wrong)
    for name, kernel in kernels.KERNELS.items()
    for arg, kind in kernel.args
    if kind in kernels.SCALAR_KINDS
    for wrong in (None, "1", *((1.5,) if kind == "i64" else ()))
]


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name,arg,wrong", SCALAR_CASES)
def test_every_scalar_argument_is_refused_before_the_kernel(name, arg, wrong, tier, monkeypatch):
    backend, spies = _spied(tier, monkeypatch)
    args = _table_args(kernels.KERNELS[name])
    args[arg] = wrong
    with pytest.raises(TypeError):
        getattr(backend, name)(*args.values())
    assert spies[name].calls == []


#: C parameter type -> the kinds the table may give it
_C_KINDS = {
    "const int64_t *": {"i64[]"}, "int64_t *": {"i64[]"},
    "const int32_t *": {"i32[]"}, "int32_t *": {"i32[]"},
    "const double *": {"f64[]"}, "double *": {"f64[]"},
    "uint64_t *": {"u64[]"}, "const uint8_t *": {"u8[]"}, "uint8_t *": {"u8[]", "bool[]"},
    "int64_t ": {"i64", "len"}, "double ": {"f64"},
}


def _c_signatures() -> dict[str, list[tuple[str, str]]]:
    """Every exported function of ``kernels.c`` -> its ``(type, name)``
    parameters, the instances of the kernel macros (``TAKE_KERNEL``,
    ``PACK_KERNEL``, ``GROUP_KERNEL``: one per element type ``T``)
    expanded."""
    source = pathlib.Path(_cc_backend._SOURCE).read_text()
    params = re.compile(r"((?:const )?\w+ \*?)\s*(\w+)$")

    def parse(text):
        return [params.match(p.strip()).groups() for p in text.split(",")]

    found = {
        name: parse(text)
        for name, text in re.findall(r"^(?:void|int64_t) (\w+)\(([^)]*)\)", source, re.M)
    }
    macros = dict(
        re.findall(r"#define (\w+)\(NAME, T[^)]*\)[\\\s]*int64_t NAME\(([^)]*)\)", source)
    )
    for macro, name, t in re.findall(r"^(\w+)\((\w+), (\w+)[,)]", source, re.M):
        if macro in macros:
            found[name] = parse(macros[macro].replace("\\", " ").replace("T ", f"{t} "))
    return found


def test_the_table_is_the_c_source_and_the_python_tier():
    """Drift: ``kernels.c``, ``_pykernels`` and the table name the same
    kernels with the same parameters, and the built library exports every
    row."""
    c = _c_signatures()
    assert set(c) == set(kernels.KERNELS)
    python = {
        name for name, fn in vars(_pykernels).items()
        if inspect.isfunction(fn) and fn.__module__ == _pykernels.__name__
        and not name.startswith("_")
    }
    assert python - {"checked_take"} == set(kernels.KERNELS)
    for name, kernel in kernels.KERNELS.items():
        assert [arg for _, arg in c[name]] == [arg for arg, _ in kernel.args], name
        for (ctype, arg), (_, kind) in zip(c[name], kernel.args):
            assert kind.split("(")[0] in _C_KINDS[ctype], (name, arg, ctype, kind)
        parameters = list(inspect.signature(getattr(_pykernels, name)).parameters)
        assert parameters == kernel.params, name
    if kernels.available():
        lib = ctypes.CDLL(_cc_backend._build(_cc_backend._SOURCE))
        assert all(hasattr(lib, name) for name in kernels.KERNELS)


# ---------------------------------------------------------------------- #
# vertex ids: the chunk states index their tables with them
# ---------------------------------------------------------------------- #

N = 4


def _chunk_state(entry):
    if entry == "clustering":
        return ClusteringState(N, 10, enable_splitting=True)
    clusters = streaming_clustering(EdgeStream([0, 1, 2], [1, 2, 3], N), 10, enable_splitting=True)
    to_partition = np.arange(clusters.num_clusters) % 2
    return TransformState(clusters, to_partition, 2, num_edges=8, num_vertices=N)


def _footprint(state):
    """Everything an ingest can change, copied."""
    if isinstance(state, ClusteringState):
        arrays, meta = state.state_dict()
        return meta, {key: a.copy() for key, a in arrays.items()}
    stats = state.stats
    counters = (stats.agreement, stats.mirror_reuse, stats.degree_cut, stats.balance_spill)
    return state.loads.copy(), state.spill_ptr, counters


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("entry", ["clustering", "transform"])
@pytest.mark.parametrize("bad", [-1, N, 10**6, "unequal"])
def test_a_chunk_the_tables_cannot_index_is_refused_before_the_kernel(
    bad, entry, tier, monkeypatch
):
    if bad == "unequal":  # v one short: the kernel would read past it
        error, chunks = ValueError, [([0, 1], [1])]
    else:
        error, chunks = VertexRangeError, [([0, bad], [1, 2]), ([0, 1], [1, bad])]
    state = _chunk_state(entry)
    state._backend, spies = _spied(tier, monkeypatch)  # the tier's kernels, spied
    before = _footprint(state)
    for u, v in chunks:
        with pytest.raises(error):
            state.ingest_pair(u, v)
    assert all(spy.calls == [] for spy in spies.values())
    np.testing.assert_equal(_footprint(state), before)
