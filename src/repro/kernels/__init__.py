"""Compiled hot loops, and the one place a tier is chosen.

Three kinds of loop live here.  *Scalar decision cores*: the chunked
partitioners keep three scalar hot loops that DESIGN.md §4.3 proved
cannot be bulk-committed bit-identically — the HDRF decision core, the
greedy decision core, and CLUGP's pass-1 allocation/splitting/migration
replay (plus the pass-3 transform tail and the pass-2 game round).
*Index-table walks*: the fused take-and-combine primitives
(``take_add_f64``, ``take_min_f64``, ``take_min_i64``, ``take_put_i64``:
``out[dst[i]] (+)= table[src[i]]``, i.e. ``ufunc.at(out, dst,
table[src])`` without the temporary) a dense GAS superstep is made of
(DESIGN.md §5.3).  *The index build*: ``slot_index``, the deployment's
whole replica-slot index, placement and routes in counting passes over
the partition-grouped edges (DESIGN.md §5.3).  The walks and the build
are the kernels whose indices are caller data, so they check every row
before using it and report the first bad one (the walks raise it as
``IndexError``; ``build_local_index`` raises it naming the edge).  This
package holds compiled implementations of those loops behind one
numpy-level API.
Every hot class asks :func:`get_backend` with no argument (the
partitioner classes once, at construction; the GAS dispatcher per call,
because vertex programs are pickled to workers) and runs the kernels
when it answers with a backend and its own numpy tier when it answers
None — bit-identical either way.  No caller names an implementation.

Backends, in resolution order:

* ``"numba"`` — ``@njit`` over :mod:`._pykernels` (needs the ``[jit]``
  extra installed);
* ``"cc"`` — ``kernels.c`` compiled at first use with the system C
  compiler and bound via ctypes;
* ``"python"`` — the plain-Python :mod:`._pykernels` functions.  Never
  resolved unasked (it is *slower* than the numpy tier); it exists so
  tests can exercise the kernel glue everywhere;
* ``"none"`` — explicit empty resolution: the numpy tier.

Importing this package never hard-fails: with neither numba nor a C
compiler present, :func:`available` is False, :func:`get_backend`
returns None, and the process runs the numpy tier with one warning
(identical results; an error under ``CLUGP_KERNEL_REQUIRE=1``).  The
``CLUGP_KERNEL_BACKEND`` environment variable (one of
:data:`BACKEND_NAMES`) is the one deployment and test override of the
resolution.

The ``cc`` backend compiles ``kernels.c`` once per machine (~0.5 s, the
shared object is cached on disk) when the first hot class is
constructed.  :func:`warmup` triggers that deferred compile (or the
numba nopython build) up front and runs each kernel once on tiny
inputs, so benchmark timing regions never include compiler time.
"""

from __future__ import annotations

import logging
import os
from typing import Any

import numpy as np

from . import _pykernels

__all__ = [
    "BACKEND_NAMES",
    "ENV_REQUIRE",
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
    """Raised under ``CLUGP_KERNEL_REQUIRE=1`` when no backend resolves."""


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

BACKEND_NAMES = ("auto", "numba", "cc", "python", "none")

_AUTO_ORDER = ("numba", "cc")


class PythonBackend:
    """Plain-Python kernels; the always-available glue-test backend."""

    name = "python"

    hdrf_chunk = staticmethod(_pykernels.hdrf_chunk)
    greedy_chunk = staticmethod(_pykernels.greedy_chunk)
    clustering_chunk = staticmethod(_pykernels.clustering_chunk)
    transform_chunk = staticmethod(_pykernels.transform_chunk)
    game_round = staticmethod(_pykernels.game_round)
    game_cost_rows = staticmethod(_pykernels.game_cost_rows)
    take_add_f64 = staticmethod(_pykernels.checked_take(_pykernels.take_add_f64))
    take_min_f64 = staticmethod(_pykernels.checked_take(_pykernels.take_min_f64))
    take_min_i64 = staticmethod(_pykernels.checked_take(_pykernels.take_min_i64))
    take_put_i64 = staticmethod(_pykernels.checked_take(_pykernels.take_put_i64))
    slot_index = staticmethod(_pykernels.slot_index)


_cache: dict[str, Any] = {}
_failures: dict[str, str] = {}
_warned_degraded = False


def _load(name: str) -> Any:
    """Load one concrete backend by name, memoized (None on failure)."""
    if name in _cache:
        return _cache[name]
    backend = None
    if name == "numba":
        from . import _numba_backend

        backend = _numba_backend.load()
        if backend is None:
            _failures[name] = "numba not importable (or broken install)"
    elif name == "cc":
        from . import _cc_backend

        backend = _cc_backend.load()
        if backend is None:
            _failures[name] = "no working C compiler, or compile/bind failed"
    elif name == "python":
        backend = PythonBackend()
    _cache[name] = backend
    return backend


def _require_enabled() -> bool:
    """True when the environment demands a compiled backend."""
    return os.environ.get(ENV_REQUIRE, "").strip().lower() in {"1", "true", "yes"}


def _degraded(requested: str):
    """Handle a failed resolution: warn once per process, raise when required."""
    global _warned_degraded
    detail = "; ".join(
        f"{cand}: {_failures.get(cand, 'not attempted')}" for cand in _AUTO_ORDER
    )
    if _require_enabled():
        raise KernelUnavailableError(
            f"kernel backend {requested!r} is unavailable ({detail}) and a "
            f"compiled backend was required ({ENV_REQUIRE}=1)"
        )
    if not _warned_degraded:
        _warned_degraded = True
        logger.warning(
            "compiled kernels are the default but no backend resolved "
            "(tried %s); running the numpy tier instead — results "
            "are identical, only slower.  Set %s=1 to make this an error.",
            detail, ENV_REQUIRE,
        )
    return None


def get_backend(name: str | None = None) -> Any:
    """Resolve a kernel backend; None means "run the numpy tier".

    The hot classes call this with no argument: the
    ``CLUGP_KERNEL_BACKEND`` environment variable is honoured first,
    then numba and the C backend are tried in order.  ``name`` (one of
    :data:`BACKEND_NAMES`) asks for one backend outright; ``"python"``
    and ``"none"`` are only ever resolved by name or by the variable.

    A backend that is unavailable resolves to None — the process runs
    the numpy tier, with a one-time warning naming each backend that
    failed and why.  With ``CLUGP_KERNEL_REQUIRE=1`` in the environment
    that becomes a :class:`KernelUnavailableError` instead — for
    deployments where silently losing the compiled kernels would
    invalidate a benchmark.  An explicit ``"none"`` is an intentional
    resolution of nothing and never raises.
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
        for candidate in _AUTO_ORDER:
            backend = _load(candidate)
            if backend is not None:
                return backend
        return _degraded(name)
    if name == "none":
        return None
    backend = _load(name)
    if backend is None:
        return _degraded(name)
    return backend


def available() -> bool:
    """True when a *compiled* backend (numba or cc) can be resolved."""
    return any(_load(candidate) is not None for candidate in _AUTO_ORDER)


def backend_name(name: str | None = None) -> str | None:
    """Name of the backend :func:`get_backend` would return (or None)."""
    backend = get_backend(name)
    return None if backend is None else backend.name


_warmed: set[str] = set()


def warmup(name: str | None = None) -> str | None:
    """One-shot compile + tiny-input run of every kernel.

    Returns the resolved backend name (None if no backend is available,
    in which case there is nothing to warm).  Idempotent per backend, so
    benchmark harnesses can call it unconditionally before timing.
    """
    backend = get_backend(name)
    if backend is None:
        return None
    if backend.name in _warmed:
        return backend.name
    k, nw, n = 2, 1, 4
    u = np.array([0, 2], dtype=np.int64)
    v = np.array([1, 3], dtype=np.int64)
    out = np.zeros(2, dtype=np.int64)
    backend.hdrf_chunk(
        u, v, k, nw, 1.0, 1.0,
        np.zeros(k, dtype=np.float64), np.zeros(n, dtype=np.int64),
        np.zeros(n * nw, dtype=np.uint64), out,
    )
    backend.greedy_chunk(
        u, v, k, nw,
        np.zeros(k, dtype=np.int64), np.zeros(n * nw, dtype=np.uint64), out,
    )
    backend.clustering_chunk(
        u, v, 4, 1,
        np.full(n, -1, dtype=np.int64), np.zeros(n, dtype=np.int64),
        np.zeros(n, dtype=np.uint8), np.zeros(16, dtype=np.int64),
        np.zeros(8, dtype=np.int64), np.zeros(8, dtype=np.int64),
        np.zeros(5, dtype=np.int64),
    )
    backend.transform_chunk(
        u, v, k,
        np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.uint8),
        np.ones(n, dtype=np.int64), np.zeros(k, dtype=np.int64),
        np.full(k, 8, dtype=np.int64), np.zeros(5, dtype=np.int64),
        1, out,
    )
    # tiny 2-cluster game: one undirected inter-cluster edge, k=2
    g_indptr = np.array([0, 1, 2], dtype=np.int64)
    g_indices = np.array([1, 0], dtype=np.int64)
    g_weights = np.ones(2, dtype=np.float64)
    g_internal = np.ones(2, dtype=np.float64)
    g_cut = np.ones(2, dtype=np.float64)
    g_assign = np.array([0, 1], dtype=np.int64)
    g_loads = np.array([1.0, 1.0])
    g_table = np.zeros(n, dtype=np.float64)
    g_slots = np.zeros(n, dtype=np.int64)
    backend.game_round(
        np.arange(2, dtype=np.int64), k, 0.5, 1e-9, 1,
        g_indptr, g_indices, g_weights, g_internal, g_cut,
        g_assign, g_loads, np.zeros(2 * k, dtype=np.float64), 1,
        np.full(2, -1, dtype=np.int64), np.zeros(2, dtype=np.int64),
        np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64),
        np.zeros(1, dtype=np.int64), np.zeros(2, dtype=np.float64),
        np.zeros(4, dtype=np.int64),
        np.zeros(k, dtype=np.float64), np.zeros(k, dtype=np.float64),
    )
    backend.game_cost_rows(
        0, 2, k, 0.5,
        g_indptr, g_indices, g_weights, g_internal, g_cut,
        g_assign, g_loads, np.zeros(2 * k, dtype=np.float64),
    )
    # the take walks: rows 0 -> 1 and 2 -> 3 of a 4-entry table, in place
    backend.take_add_f64(v, u, g_table, g_table)
    backend.take_min_f64(v, u, g_table, g_table)
    backend.take_min_i64(v, u, g_slots, g_slots)
    backend.take_put_i64(v, u, g_slots, g_slots)

    # the replica-slot index of the two edges, one per partition
    def i64(size):
        return np.empty(size, dtype=np.int64)

    cap = 2 * u.size
    backend.slot_index(
        u, v, np.arange(2, dtype=np.int64), n, k,
        i64(2), i64(k + 1), i64(2), i64(2),
        i64(cap), i64(k + 1), i64(n), i64(n),
        np.empty(cap, dtype=bool), i64(cap), i64(cap), i64(cap), i64(k + 1),
        i64(cap), i64(k + 1),
        i64(n), np.empty(1, dtype=np.uint64), i64(2),
    )
    _warmed.add(backend.name)
    return backend.name
