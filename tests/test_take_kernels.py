"""The fused take-and-combine kernels and the one dispatcher over them.

``out[dst[i]] (+)= table[src[i]]`` must be *exactly* ``ufunc.at(out, dst,
table[src])`` / ``out[dst] = table[src]`` — compared as bytes, on every
tier — because the dense GAS superstep is made of nothing else
(DESIGN.md §5.3) and its outputs are pinned bit for bit by the golden
digests of ``test_local_runtime.py``.  Unlike every other kernel, these
index with caller data, so the bounds policy is tested too.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BACKENDS, kernel_backend
from repro import kernels
from repro.graph.stream import EdgeStream
from repro.partitioners.base import PartitionAssignment
from repro.system import (
    DensePayload,
    GasEngine,
    LocalGasRuntime,
    connected_components,
    pagerank,
)
from repro.system.apps import (
    LocalConnectedComponentsProgram,
    LocalPageRankProgram,
    LocalSsspProgram,
)
from repro.system.runtime import DenseAccumulator, LocalContext, take_put

F64, I64 = np.dtype(np.float64), np.dtype(np.int64)
I64_MIN, I64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max

#: the (ufunc, dtype) pairs the apps' accumulators use -> their kernel
FOLDS = {
    "take_add_f64": DenseAccumulator(F64, 0.0, np.add),
    "take_min_f64": DenseAccumulator(F64, np.inf, np.minimum),
    "take_min_i64": DenseAccumulator(I64, I64_MAX, np.minimum),
}

# float addends whose fold order shows in the bits (1e16 + 1 - 1e16), the
# min identity, NaN.  One NaN payload and no -inf / -0.0: which of two
# different NaNs (inf - inf makes a second one) or of two zeros survives
# is the hardware's and numpy's release-specific choice, not a contract.
floats = st.one_of(
    st.sampled_from([1e16, -1e16, 1.0, 0.1, 1e-300, 1.7e308, np.inf, np.nan]),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(lambda x: x + 0.0),
)
ints = st.one_of(
    st.sampled_from([I64_MIN, I64_MAX, 0, -1]), st.integers(I64_MIN, I64_MAX)
)


def _table(dtype, n):
    elements = floats if dtype == F64 else ints
    return st.lists(elements, min_size=n, max_size=n).map(lambda xs: np.array(xs, dtype=dtype))


@st.composite
def walks(draw, dtype):
    """``(out, dst, table, src)``: short tables, so targets repeat."""
    n_out, n_table = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    m = draw(st.integers(0, 40))
    dst = draw(st.lists(st.integers(0, n_out - 1), min_size=m, max_size=m))
    src = draw(st.lists(st.integers(0, n_table - 1), min_size=m, max_size=m))
    return (
        draw(_table(dtype, n_out)), np.array(dst, dtype=I64),
        draw(_table(dtype, n_table)), np.array(src, dtype=I64),
    )


@st.composite
def in_place_walks(draw, dtype):
    """``(table, dst, src)`` with ``out is table``: the slots split into
    receivers and senders, as mirror and master slots do."""
    n = draw(st.integers(2, 12))
    slots = draw(st.permutations(range(n)))
    cut = draw(st.integers(1, n - 1))
    m = draw(st.integers(0, 30))
    dst = draw(st.lists(st.sampled_from(slots[:cut]), min_size=m, max_size=m))
    src = draw(st.lists(st.sampled_from(slots[cut:]), min_size=m, max_size=m))
    return draw(_table(dtype, n)), np.array(dst, dtype=I64), np.array(src, dtype=I64)


# ---------------------------------------------------------------------- #
# the differential: dispatcher on every tier == the numpy expression
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", sorted(FOLDS))
@settings(max_examples=60)
@given(data=st.data())
def test_fold_is_ufunc_at(backend, kernel, data):
    spec = FOLDS[kernel]
    out, dst, table, src = data.draw(walks(spec.dtype))
    expect = out.copy()
    with np.errstate(all="ignore"):
        spec.combine.at(expect, dst, table[src])
        with kernel_backend(backend):
            spec.fold(out, dst, table, src)
    assert out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", sorted(FOLDS))
@settings(max_examples=40)
@given(data=st.data())
def test_fold_in_place_over_disjoint_slots(backend, kernel, data):
    """The gather sync's shape: receivers absorb senders of one array."""
    spec = FOLDS[kernel]
    table, dst, src = data.draw(in_place_walks(spec.dtype))
    expect = table.copy()
    with np.errstate(all="ignore"):
        spec.combine.at(expect, dst, table[src])
        with kernel_backend(backend):
            spec.fold(table, dst, table, src)
    assert table.tobytes() == expect.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint64, np.int32, np.bool_])
@settings(max_examples=40)
@given(data=st.data())
def test_put_is_fancy_assignment(backend, dtype, data):
    """The apply sync's shape (each receiver once), any value dtype: the
    8-byte numbers take the kernel, the others the numpy form."""
    bits, dst, src = data.draw(in_place_walks(I64))
    dst = np.unique(dst)
    src = src[: dst.size]
    values = bits.astype(dtype) if np.dtype(dtype).itemsize < 8 else bits.view(dtype)
    expect = values.copy()
    expect[dst] = values[src]
    with kernel_backend(backend):
        take_put(values, dst, values, src)
    assert values.tobytes() == expect.tobytes()


def test_empty_walks_touch_nothing():
    none = np.empty(0, dtype=I64)
    for backend in ("python", "auto"):
        with kernel_backend(backend):
            for spec in FOLDS.values():
                out = spec.empty(3)
                spec.fold(out, none, spec.empty(0), none)
                assert out.tobytes() == spec.empty(3).tobytes()
            take_put(out, none, out, none)


# ---------------------------------------------------------------------- #
# which tier ran
# ---------------------------------------------------------------------- #


@pytest.fixture
def spied(monkeypatch):
    """``spied(name)`` -> (backend, calls): backend ``name`` with every
    take kernel counting its calls."""

    def spy_on(name):
        backend = kernels.get_backend(name)
        calls = dict.fromkeys([*FOLDS, "take_put_i64"], 0)
        for kernel in calls:
            real = getattr(backend, kernel)

            def counted(*args, _kernel=kernel, _real=real):
                calls[_kernel] += 1
                return _real(*args)

            monkeypatch.setattr(backend, kernel, counted, raising=False)
        return backend, calls

    return spy_on


@pytest.mark.parametrize("backend", BACKENDS)
def test_dense_superstep_is_three_walks(backend, spied):
    """PageRank's superstep: one gather fold over the edges, one gather
    sync fold and one apply-sync put over the routes — and no other."""
    stream = EdgeStream([0, 1, 2, 3, 0, 2], [1, 2, 3, 0, 2, 0], num_vertices=5)
    assignment = PartitionAssignment(stream, [0, 1, 0, 1, 1, 0], num_partitions=2)
    with kernel_backend(backend):
        _, calls = spied(backend)
        values, cost = pagerank(LocalGasRuntime(assignment), max_supersteps=7)
        oracle, _ = pagerank(GasEngine(assignment), max_supersteps=7)
    assert np.allclose(values, oracle, atol=1e-12, rtol=0.0)
    assert cost.num_supersteps == 7 and cost.total_messages > 0
    assert calls == {
        "take_add_f64": 14, "take_min_f64": 0, "take_min_i64": 0, "take_put_i64": 7
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_arguments_a_kernel_cannot_index_take_the_numpy_form(backend, spied):
    spec = FOLDS["take_add_f64"]
    dst, src = np.array([0, 0, 2], dtype=I64), np.array([2, 1, 0], dtype=I64)
    table = np.array([1.0, 2.0, 4.0])
    strided = np.zeros((3, 2), dtype=I64)[:, 0]
    cases = [
        (np.zeros(3), dst.astype(np.int32), table, src),
        (np.zeros(3), dst, table, src.astype(np.uint64)),
        (np.zeros(3), dst, table, strided),
        (np.zeros(3), dst.tolist(), table, src),
        (np.zeros(3, dtype=np.float32), dst, table.astype(np.float32), src),
        (np.zeros(3), dst, table.astype(np.float32), src),
        (np.zeros(6)[::2], dst, table, src),
        (np.zeros((3, 1)), dst, table.reshape(3, 1), src),
    ]
    assert not strided.flags.c_contiguous
    with kernel_backend(backend):
        _, calls = spied(backend)
        for out, d, t, s in cases:
            expect = out.copy()
            np.add.at(expect, d, t[s])
            spec.fold(out, d, t, s)
            assert out.tobytes() == expect.tobytes()
        assert not any(calls.values())
        spec.fold(np.zeros(3), dst, table, src)  # the control: this one it can
        assert calls["take_add_f64"] == 1
        # a pair repro.kernels does not have: any ufunc, any dtype still folds
        out = np.full(3, -np.inf)
        DenseAccumulator(F64, -np.inf, np.maximum).fold(out, dst, table, src)
        assert out.tolist() == [4.0, -np.inf, 1.0] and calls["take_add_f64"] == 1


# ---------------------------------------------------------------------- #
# bounds: the indices are caller data
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", [*sorted(FOLDS), "take_put_i64"])
@pytest.mark.parametrize("column", ["dst", "src"])
@pytest.mark.parametrize("bad", [3, 10**12, -1, I64_MIN])
def test_bad_index_raises_and_nothing_past_it_is_written(backend, kernel, column, bad):
    dtype = F64 if kernel.endswith("f64") else I64
    table = np.array([5, 6, 7], dtype=dtype)
    start = np.array([100, 200, 300], dtype=dtype)
    index = {"dst": np.array([0, 1, 2, 2], dtype=I64), "src": np.array([0, 1, 2, 0], dtype=I64)}
    index[column][2] = bad
    # rows 0 and 1 applied by the reference; row 2 is the bad one; row 3 is past it
    expect = start.copy()
    reference = np.add if "add" in kernel else np.minimum
    for row in (0, 1):
        d, s = index["dst"][row], index["src"][row]
        expect[d] = table[s] if "put" in kernel else reference(expect[d], table[s])
    out = start.copy()
    with kernel_backend(backend):
        take = getattr(kernels.get_backend(), kernel)
        with pytest.raises(IndexError, match="row 2"):
            take(index["dst"], index["src"], table, out)
    assert out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_dispatcher_raises_index_error_on_every_tier(backend):
    spec = FOLDS["take_min_f64"]
    dst, src = np.array([0, 3], dtype=I64), np.array([0, 1], dtype=I64)
    with kernel_backend(backend):
        with pytest.raises(IndexError):
            spec.fold(np.zeros(3), dst, np.ones(3), src)
        with pytest.raises(IndexError):
            spec.fold(np.zeros(3), src, np.ones(3), dst)
        with pytest.raises(IndexError):
            take_put(np.zeros(3), dst, np.ones(3), src)


@pytest.mark.parametrize("backend", BACKENDS)
def test_unpaired_columns_are_refused(backend):
    with kernel_backend(backend):
        take = kernels.get_backend().take_min_i64
        with pytest.raises(ValueError, match="row by row"):
            take(np.zeros(3, dtype=I64), np.zeros(2, dtype=I64),
                 np.zeros(1, dtype=I64), np.zeros(1, dtype=I64))


# ---------------------------------------------------------------------- #
# what rides on the dispatcher
# ---------------------------------------------------------------------- #


class LocalMaxLabelProgram:
    """HashMax: a user-defined accumulator no kernel was written for."""

    edge_mode = "undirected"
    frontier = "sparse"
    accumulator = DenseAccumulator(I64, I64_MIN, np.maximum)

    def init(self, runtime):
        return np.arange(runtime.num_vertices, dtype=np.int64)

    def gather_local(self, ctx):
        partial = self.accumulator.empty(ctx.part.num_vertices)
        targets, sources = ctx.select(*ctx.part.undirected())
        self.accumulator.fold(partial, targets, ctx.values, sources)
        return partial

    def apply(self, runtime, vertex_ids, old_values, acc):
        return np.maximum(old_values, acc)


@pytest.mark.parametrize("backend", BACKENDS)
def test_user_defined_accumulator_program_runs(backend, crawl_stream):
    rng = np.random.default_rng(3)
    assignment = PartitionAssignment(
        crawl_stream, rng.integers(0, 5, size=crawl_stream.num_edges), num_partitions=5
    )
    with kernel_backend(backend):
        labels, cost = LocalGasRuntime(assignment).run(LocalMaxLabelProgram(), 200)
        component, _ = connected_components(GasEngine(assignment))
    largest = np.zeros(crawl_stream.num_vertices, dtype=np.int64)
    np.maximum.at(largest, component, np.arange(component.size))
    assert np.array_equal(labels, largest[component])
    assert cost.total_messages > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_programs_hold_no_backend_handle(backend, crawl_stream):
    """A program is pickled to distributed workers after ``setup`` and a
    backend holds ctypes function pointers: nothing may cache one."""
    assignment = PartitionAssignment(
        crawl_stream, np.arange(crawl_stream.num_edges) % 3, num_partitions=3
    )
    with kernel_backend(backend):
        runtime = LocalGasRuntime(assignment)
        for program in (
            LocalPageRankProgram(), LocalConnectedComponentsProgram(), LocalSsspProgram(0)
        ):
            values = program.init(runtime)[runtime.index.vertices]
            if hasattr(program, "setup"):
                program.setup(runtime)
            partial = program.gather_local(
                LocalContext(runtime.index.flat, values, None, runtime)
            )
            clone = pickle.loads(pickle.dumps(program))
            again = clone.gather_local(
                LocalContext(runtime.index.flat, values, None, runtime)
            )
            assert partial.tobytes() == again.tobytes()


def test_dense_payload_is_described_not_copied():
    table = np.array([1.5, 2.5, 3.5, 4.5])
    slots = np.array([3, 0, 3], dtype=I64)
    described = DensePayload(table, slots)
    assert described.values.tolist() == [4.5, 1.5, 4.5] and described.nbytes == 24
    assert described.table is table  # nothing was gathered to build it
    # what a transport hands over is the wire form itself: the same bytes
    assert described.values.nbytes == described.nbytes
    assert DensePayload(table.astype(np.float32), slots).nbytes == 3 * 4

