"""Compiled hot loops, and the one place a tier is chosen.

The kernels are the scalar loops DESIGN.md §4.3 proved cannot be
bulk-committed bit-identically (the HDRF and greedy decision cores,
CLUGP's pass-1 replay, pass-2 game round and pass-3 transform tail), the
fused take-and-combine walks a dense GAS superstep is made of
(``out[dst[i]] (+)= table[src[i]]``), and ``slot_index``, the
deployment's replica-slot index (DESIGN.md §5.3).  The walks and the
index build index with caller data, so they check every row and report
the first bad one.

A kernel is a C function in ``kernels.c``, its Python twin in
:mod:`._pykernels` and one row of :data:`KERNELS`.  Both backends bind
every row from the table alone, and both refuse, with a ``TypeError``
before the kernel runs, an array that is not a C-contiguous array of its
kind's element type and a scalar that is not of its kind.  Every hot
class asks :func:`get_backend` with no argument (the partitioner classes
once, at construction; the GAS dispatcher per call, because vertex
programs are pickled to workers) and runs its kernels — bit-identical on
either tier, both implementations of the per-edge oracles:

* ``"cc"`` — ``kernels.c`` compiled once per machine with the system C
  compiler (~0.5 s, cached on disk), bound via ctypes; what an unset
  environment resolves;
* ``"python"`` — the :mod:`._pykernels` functions: list loops and numpy,
  what a host without a working C compiler runs.

:func:`get_backend` always returns a backend: without a working C
compiler it is ``python``, with one warning naming the failed build step
(an error under ``CLUGP_KERNEL_REQUIRE=1``).  ``CLUGP_KERNEL_BACKEND``
(one of :data:`BACKEND_NAMES`) is the one deployment and test override.
"""

from __future__ import annotations

import logging
import numbers
import operator
import os
from typing import Any, NamedTuple

import numpy as np

from . import _pykernels

__all__ = [
    "BACKEND_NAMES",
    "ENV_REQUIRE",
    "KERNELS",
    "KernelUnavailableError",
    "available",
    "backend_name",
    "get_backend",
    "indexable",
    "popcount",
    "warmup",
]

logger = logging.getLogger("repro.kernels")

#: set to ``1``/``true`` to make silent kernel degradation a hard error
ENV_REQUIRE = "CLUGP_KERNEL_REQUIRE"


class KernelUnavailableError(RuntimeError):
    """Raised under ``CLUGP_KERNEL_REQUIRE=1`` when ``cc`` does not build."""


class Kernel(NamedTuple):
    """One row of :data:`KERNELS`: the C parameters in order as ``(name,
    kind)`` pairs — an array kind of :data:`ARRAY_KINDS`, a scalar
    ``i64`` / ``f64``, or ``len(arg)``, a length only C takes, read off
    array ``arg`` (the numpy-level call takes the others, in order) —
    and ``ret``: None, ``"i64"`` (a count or status), or ``"row"`` (a
    first bad row, raised by :func:`._pykernels.checked_take`)."""

    args: tuple[tuple[str, str], ...]
    ret: str | None

    @property
    def params(self) -> list[str]:
        """The numpy-level call's parameters: every C one but the lengths."""
        return [arg for arg, kind in self.args if not kind.startswith("len(")]


def _row(signature: str, ret: str | None = None) -> Kernel:
    return Kernel(tuple(tuple(arg.split(":")) for arg in signature.split()), ret)


def _take(t: str) -> Kernel:
    return _row(
        f"dst:i64[] src:i64[] m:len(dst) table:{t}[] table_len:len(table) "
        f"out:{t}[] out_len:len(out)",
        "row",
    )


#: every kernel: ``kernels.c`` and :mod:`._pykernels` define one function
#: per row, under the row's name
KERNELS: dict[str, Kernel] = {
    "hdrf_chunk": _row(
        "u:i64[] v:i64[] m:len(u) k:i64 nw:i64 lam:f64 eps:f64 "
        "loads:f64[] degree:i64[] words:u64[] out:i64[]"
    ),
    "greedy_chunk": _row(
        "u:i64[] v:i64[] m:len(u) k:i64 nw:i64 loads:i64[] words:u64[] out:i64[]"
    ),
    "clustering_chunk": _row(
        "u:i64[] v:i64[] m:len(u) vmax:i64 splitting:i64 clu:i64[] deg:i64[] "
        "divided:u8[] vol:i64[] mirror_v:i64[] mirror_c:i64[] counters:i64[]"
    ),
    "transform_chunk": _row(
        "u:i64[] v:i64[] m:len(u) k:i64 vp:i64[] divided:u8[] deg:i64[] "
        "loads:i64[] caps:i64[] counters:i64[] check_mapped:i64 out:i64[]",
        "i64",
    ),
    "game_round": _row(
        "k:i64 lam_over_k:f64 eps:f64 relaxed:i64 "
        "indptr:i64[] indices:i64[] weights:f64[] "
        "in_indptr:i64[] in_indices:i64[] in_weights:f64[] "
        "internal:f64[] cut_degree:f64[] "
        "assignment:i64[] m:len(assignment) loads:f64[] adj:f64[] has_adj:i64 "
        "last_eval:i64[] nbr_epoch:i64[] inc_epoch:i64[] dec_epoch:i64[] "
        "counters:i64[] phi:f64[] move_log:i64[] cost_buf:f64[] row_buf:f64[]",
        "i64",
    ),
    "game_cost_rows": _row(
        "start:i64 stop:i64 k:i64 lam_over_k:f64 "
        "indptr:i64[] indices:i64[] weights:f64[] "
        "in_indptr:i64[] in_indices:i64[] in_weights:f64[] "
        "internal:f64[] cut_degree:f64[] "
        "assignment:i64[] loads:f64[] out:f64[]"
    ),
    "take_add_f64": _take("f64"),
    "take_min_f64": _take("f64"),
    "take_min_i64": _take("i64"),
    "take_put_i64": _take("i64"),
    "slot_index": _row(
        "src:i64[] dst:i64[] part:i64[] m:len(src) n:i64 k:i64 "
        "edge_ids:i64[] edge_indptr:i64[] src_slot:i64[] dst_slot:i64[] "
        "vertices:i64[] part_indptr:i64[] master:i64[] replica_counts:i64[] "
        "is_master:bool[] master_slots:i64[] mirror_slot:i64[] master_slot:i64[] "
        "mirror_indptr:i64[] master_order:i64[] master_indptr:i64[] "
        "slot_of:i64[] words:u64[] sizes:i64[]",
        "i64",
    ),
}

#: element type of each array kind (``bool[]`` is a ``uint8_t *`` in C)
ARRAY_KINDS = {
    "i64[]": np.dtype(np.int64),
    "f64[]": np.dtype(np.float64),
    "u64[]": np.dtype(np.uint64),
    "u8[]": np.dtype(np.uint8),
    "bool[]": np.dtype(np.bool_),
}


def _addr(arr: np.ndarray, dtype: np.dtype) -> int:
    """Address of ``arr``'s first element, once it is checked to be what
    a kernel indexes.

    The kernels index raw memory, so a wrong element type or a stride
    reads past the buffer: both are a ``TypeError`` here, whatever the
    caller promised.  No ctypes object is built — the interface dict is
    ~1 us, a ``data_as`` pointer ~4 us, and a feed marshals ~13 000
    arguments.
    """
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise TypeError(
            f"kernel argument must be a C-contiguous {dtype} array, got "
            f"{arr.dtype} with strides {arr.strides}"
        )
    return arr.__array_interface__["data"][0]


def _real(value) -> float:
    if not isinstance(value, numbers.Real):
        raise TypeError(f"kernel argument must be a real number, got {type(value).__name__}")
    return float(value)


#: what a scalar kind accepts, as what C takes: ``i64`` anything
#: ``operator.index`` takes, ``f64`` any real number
SCALAR_KINDS = {"i64": operator.index, "f64": _real}


def bind(name: str, fn, native: bool):
    """The numpy-level call of kernel ``name`` over ``fn``: the C function
    (``native``), handed checked addresses, checked scalars and the
    ``len(...)`` lengths, or the :mod:`._pykernels` function, handed the
    arguments after the same checks.  The per-argument work is chosen
    here, once."""
    kernel = KERNELS[name]
    params = kernel.params
    at = {arg: i for i, arg in enumerate(params)}

    def check(arg: str, kind: str):
        i = at[arg]
        if kind in ARRAY_KINDS:
            dtype = ARRAY_KINDS[kind]
            return lambda args: _addr(args[i], dtype)
        convert = SCALAR_KINDS[kind]
        return lambda args: convert(args[i])

    def arity(args) -> None:
        if len(args) != len(params):
            raise TypeError(f"{name}() takes {len(params)} arguments, got {len(args)}")

    if native:
        def marshal(arg: str, kind: str):
            if kind.startswith("len("):
                i = at[kind[4:-1]]
                return lambda args: args[i].shape[0]
            return check(arg, kind)

        steps = [marshal(arg, kind) for arg, kind in kernel.args]

        def call(*args):
            arity(args)
            return fn(*[step(args) for step in steps])
    else:
        checks = [check(arg, kind) for arg, kind in kernel.args if not kind.startswith("len(")]

        def call(*args):
            arity(args)
            for step in checks:
                step(args)
            return fn(*args)

    return _pykernels.checked_take(call) if kernel.ret == "row" else call


def indexable(arr, dtype: np.dtype) -> bool:
    """``arr`` is what a kernel indexes: a 1-d C-contiguous ``dtype`` array.

    The dispatch test of the kernels whose arguments are caller data: an
    argument that fails it takes the numpy form instead.
    """
    return (
        isinstance(arr, np.ndarray)
        and arr.ndim == 1
        and arr.dtype == dtype
        and arr.flags.c_contiguous
    )


def popcount(words: np.ndarray) -> int:
    """Total set bits in a uint64 array (replica accounting at finish)."""
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(words).sum())
    return int(np.unpackbits(words.view(np.uint8)).sum())  # numpy < 2.0


BACKEND_NAMES = ("auto", "cc", "python")


class PythonBackend:
    """The :mod:`._pykernels` functions behind the table's checks."""

    name = "python"

    def __init__(self) -> None:
        for name in KERNELS:
            setattr(self, name, bind(name, getattr(_pykernels, name), native=False))


_cache: dict[str, Any] = {}
_failures: dict[str, str] = {}
_warned_degraded = False


def _load(name: str) -> Any:
    """Load one concrete backend by name, memoized (None on failure)."""
    if name in _cache:
        return _cache[name]
    backend = None
    if name == "cc":
        from . import _cc_backend

        try:
            backend = _cc_backend.load()
        except _cc_backend.BuildError as exc:
            _failures[name] = str(exc)
    else:
        backend = PythonBackend()
    _cache[name] = backend
    return backend


def _require_enabled() -> bool:
    """True when the environment demands a compiled backend."""
    return os.environ.get(ENV_REQUIRE, "").strip().lower() in {"1", "true", "yes"}


def _degraded(requested: str):
    """``cc`` failed to build: the ``python`` backend, with one warning per
    process naming the failed step — or an error when required."""
    global _warned_degraded
    detail = f"cc: {_failures.get('cc', 'not attempted')}"
    if _require_enabled():
        raise KernelUnavailableError(
            f"kernel backend {requested!r} is unavailable ({detail}) and a "
            f"compiled backend was required ({ENV_REQUIRE}=1)"
        )
    if not _warned_degraded:
        _warned_degraded = True
        logger.warning(
            "the compiled kernels did not build (%s); running the python "
            "kernels instead — results are identical, only slower.  Set "
            "%s=1 to make this an error.",
            detail, ENV_REQUIRE,
        )
    return _load("python")


def get_backend(name: str | None = None) -> Any:
    """Resolve a kernel backend; never None.

    The hot classes call this with no argument: the
    ``CLUGP_KERNEL_BACKEND`` environment variable is honoured first,
    then the C backend is tried.  ``name`` (one of
    :data:`BACKEND_NAMES`) asks for one backend outright; ``"python"``
    is only ever resolved by name, by the variable, or when ``cc`` fails.

    A ``cc`` that does not build resolves to ``python``, with a one-time
    warning naming the failed build step.  With ``CLUGP_KERNEL_REQUIRE=1``
    in the environment that becomes a :class:`KernelUnavailableError`
    instead — for deployments where silently losing the compiled kernels
    would invalidate a benchmark.
    """
    if name is None:
        name = "auto"
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    if name == "auto":
        env = os.environ.get("CLUGP_KERNEL_BACKEND", "").strip().lower()
        if env and env != "auto":
            if env not in BACKEND_NAMES:
                raise ValueError(
                    f"CLUGP_KERNEL_BACKEND={env!r} is not one of {BACKEND_NAMES}"
                )
            return get_backend(env)
        name = "cc"
    return _load(name) or _degraded(name)


def available() -> bool:
    """True when the compiled backend (``cc``) can be resolved."""
    return _load("cc") is not None


def backend_name(name: str | None = None) -> str:
    """Name of the backend :func:`get_backend` would return."""
    return get_backend(name).name


def warmup(name: str | None = None) -> str:
    """Resolve the backend now: ``cc`` compiles (first time on a machine)
    and binds every kernel at load, so nothing is left to a first call.

    Returns the resolved backend name.  Idempotent, so benchmark
    harnesses call it unconditionally before timing.
    """
    return backend_name(name)
