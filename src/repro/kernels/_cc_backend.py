"""C kernel backend: compile ``kernels.c`` on first use, bind via ctypes.

This is the "JIT" tier for machines without numba but with a system C
compiler (``cc``/``gcc``/``clang``): the shipped ``kernels.c`` is
compiled once into a per-user cache directory keyed by a hash of the
source, so every later import is a single ``dlopen``.  Compilation uses
``-O2 -ffp-contract=off`` and **no** ``-ffast-math`` — IEEE double
semantics must match CPython's exactly for the HDRF bit-identity
guarantee (DESIGN.md §8).

Everything degrades gracefully: no compiler, a failed compile, or a
failed load simply makes :func:`load` return ``None`` and the caller
falls back to the next backend tier.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from ._pykernels import checked_take

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")

# Array parameters are declared ``void *`` and fed plain integer addresses:
# what type-checks an argument is :func:`_addr`, against these dtypes
_I64P = _U64P = _U8P = _F64P = ctypes.c_void_p
_I64 = np.dtype(np.int64)
_U64 = np.dtype(np.uint64)
_U8 = np.dtype(np.uint8)
_BOOL = np.dtype(np.bool_)  # one byte, 0 or 1: a uint8_t * on the C side
_F64 = np.dtype(np.float64)


def _cache_dir() -> str:
    root = os.environ.get("CLUGP_KERNEL_CACHE")
    if not root:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        root = os.path.join(base, "clugp-kernels")
    return root


def _find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _library_path(source_path: str) -> str:
    """Where the cache holds the library built from ``source_path``: the
    name is keyed by the source's hash, so an edit is a new file (and
    whoever puts a library there under that name — the sanitizer leg's
    instrumented build — is what :func:`load` binds)."""
    with open(source_path, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(source + sys.platform.encode()).hexdigest()[:16]
    suffix = ".dylib" if sys.platform == "darwin" else ".so"
    return os.path.join(_cache_dir(), f"kernels-{key}{suffix}")


def _build(source_path: str) -> str | None:
    """Compile the kernel library if not cached; return the .so path."""
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        lib_path = _library_path(source_path)
    except OSError:
        return None
    if os.path.exists(lib_path):
        return lib_path
    cache, suffix = os.path.dirname(lib_path), os.path.splitext(lib_path)[1]
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=suffix, dir=cache)
        os.close(fd)
        cmd = [
            compiler,
            "-O2",
            "-fPIC",
            "-shared",
            "-ffp-contract=off",
            "-o",
            tmp,
            source_path,
        ]
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120
        )
        if proc.returncode != 0:
            os.unlink(tmp)
            return None
        os.replace(tmp, lib_path)  # atomic: concurrent builders agree on the key
        return lib_path
    except (OSError, subprocess.SubprocessError):
        return None


def _addr(arr: np.ndarray, dtype: np.dtype) -> int:
    """Address of ``arr``'s first element, for a ``void *`` parameter.

    The kernels index raw memory, so a wrong element size or a stride reads
    past the buffer: both are a ``TypeError`` here, whatever the caller
    promised.  No ctypes object is built — the interface dict is ~1 us, a
    ``data_as`` pointer ~4 us, and a feed marshals ~13 000 arguments.
    """
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise TypeError(
            f"kernel argument must be a C-contiguous {dtype} array, got "
            f"{arr.dtype} with strides {arr.strides}"
        )
    return arr.__array_interface__["data"][0]


def _bind_take(fn, dtype: np.dtype):
    """Bind one take kernel ``(dst, src, m, table, table_len, out, out_len)
    -> first bad row | -1`` as ``take(dst, src, table, out)``."""
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        _I64P, _I64P, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
    ]

    def kernel(dst, src, table, out) -> int:
        return fn(
            _addr(dst, _I64), _addr(src, _I64), dst.shape[0],
            _addr(table, dtype), table.shape[0], _addr(out, dtype), out.shape[0],
        )

    return checked_take(kernel)


class CcBackend:
    """ctypes bindings presenting the uniform numpy-level kernel API."""

    name = "cc"

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.hdrf_chunk.restype = None
        lib.hdrf_chunk.argtypes = [
            _I64P, _I64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_double, ctypes.c_double, _F64P, _I64P, _U64P, _I64P,
        ]
        lib.greedy_chunk.restype = None
        lib.greedy_chunk.argtypes = [
            _I64P, _I64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _I64P, _U64P, _I64P,
        ]
        lib.clustering_chunk.restype = None
        lib.clustering_chunk.argtypes = [
            _I64P, _I64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _I64P, _I64P, _U8P, _I64P, _I64P, _I64P, _I64P,
        ]
        lib.transform_chunk.restype = ctypes.c_int64
        lib.transform_chunk.argtypes = [
            _I64P, _I64P, ctypes.c_int64, ctypes.c_int64,
            _I64P, _U8P, _I64P, _I64P, _I64P, _I64P, ctypes.c_int64, _I64P,
        ]
        lib.game_round.restype = ctypes.c_int64
        lib.game_round.argtypes = [
            _I64P, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_double, ctypes.c_double, ctypes.c_int64,
            _I64P, _I64P, _F64P, _F64P, _F64P,
            _I64P, _F64P, _F64P, ctypes.c_int64,
            _I64P, _I64P, _I64P, _I64P,
            _I64P, _F64P, _I64P, _F64P, _F64P,
        ]
        lib.game_cost_rows.restype = None
        lib.game_cost_rows.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
            _I64P, _I64P, _F64P, _F64P, _F64P, _I64P, _F64P, _F64P,
        ]
        self.take_add_f64 = _bind_take(lib.take_add_f64, _F64)
        self.take_min_f64 = _bind_take(lib.take_min_f64, _F64)
        self.take_min_i64 = _bind_take(lib.take_min_i64, _I64)
        self.take_put_i64 = _bind_take(lib.take_put_i64, _I64)
        lib.slot_index.restype = ctypes.c_int64
        lib.slot_index.argtypes = [
            _I64P, _I64P, _I64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _I64P, _I64P, _I64P, _I64P, _I64P, _I64P, _I64P, _I64P,
            _U8P, _I64P, _I64P, _I64P, _I64P, _I64P, _I64P,
            _I64P, _U64P, _I64P,
        ]

    def hdrf_chunk(self, u, v, k, nw, lam, eps, loads, degree, words, out) -> None:
        self._lib.hdrf_chunk(
            _addr(u, _I64), _addr(v, _I64),
            u.shape[0], k, nw, lam, eps,
            _addr(loads, _F64), _addr(degree, _I64),
            _addr(words, _U64), _addr(out, _I64),
        )

    def greedy_chunk(self, u, v, k, nw, loads, words, out) -> None:
        self._lib.greedy_chunk(
            _addr(u, _I64), _addr(v, _I64),
            u.shape[0], k, nw,
            _addr(loads, _I64), _addr(words, _U64),
            _addr(out, _I64),
        )

    def clustering_chunk(
        self, u, v, vmax, splitting, clu, deg, divided, vol, mirror_v, mirror_c, counters
    ) -> None:
        self._lib.clustering_chunk(
            _addr(u, _I64), _addr(v, _I64),
            u.shape[0], vmax, 1 if splitting else 0,
            _addr(clu, _I64), _addr(deg, _I64),
            _addr(divided, _U8), _addr(vol, _I64),
            _addr(mirror_v, _I64), _addr(mirror_c, _I64),
            _addr(counters, _I64),
        )

    def game_round(
        self, players, k, lam_over_k, eps, relaxed,
        indptr, indices, weights, internal, cut_degree,
        assignment, loads, adj, has_adj,
        last_eval, nbr_epoch, inc_epoch, dec_epoch,
        counters, phi, move_log, cost_buf, row_buf,
    ) -> int:
        return int(
            self._lib.game_round(
                _addr(players, _I64), players.shape[0],
                k, lam_over_k, eps, relaxed,
                _addr(indptr, _I64), _addr(indices, _I64),
                _addr(weights, _F64), _addr(internal, _F64),
                _addr(cut_degree, _F64),
                _addr(assignment, _I64), _addr(loads, _F64),
                _addr(adj, _F64), has_adj,
                _addr(last_eval, _I64), _addr(nbr_epoch, _I64),
                _addr(inc_epoch, _I64), _addr(dec_epoch, _I64),
                _addr(counters, _I64), _addr(phi, _F64),
                _addr(move_log, _I64),
                _addr(cost_buf, _F64), _addr(row_buf, _F64),
            )
        )

    def game_cost_rows(
        self, start, stop, k, lam_over_k,
        indptr, indices, weights, internal, cut_degree,
        assignment, loads, out,
    ) -> None:
        self._lib.game_cost_rows(
            start, stop, k, lam_over_k,
            _addr(indptr, _I64), _addr(indices, _I64),
            _addr(weights, _F64), _addr(internal, _F64),
            _addr(cut_degree, _F64),
            _addr(assignment, _I64), _addr(loads, _F64),
            _addr(out, _F64),
        )

    def transform_chunk(
        self, u, v, k, vp, divided, deg, loads, caps, counters, check_mapped, out
    ) -> int:
        return int(
            self._lib.transform_chunk(
                _addr(u, _I64), _addr(v, _I64),
                u.shape[0], k,
                _addr(vp, _I64), _addr(divided, _U8),
                _addr(deg, _I64), _addr(loads, _I64),
                _addr(caps, _I64), _addr(counters, _I64),
                1 if check_mapped else 0, _addr(out, _I64),
            )
        )

    def slot_index(
        self, src, dst, part, n, k,
        edge_ids, edge_indptr, src_slot, dst_slot,
        vertices, part_indptr, master, replica_counts,
        is_master, master_slots, mirror_slot, master_slot, mirror_indptr,
        master_order, master_indptr,
        slot_of, words, sizes,
    ) -> int:
        return int(
            self._lib.slot_index(
                _addr(src, _I64), _addr(dst, _I64), _addr(part, _I64),
                src.shape[0], n, k,
                _addr(edge_ids, _I64), _addr(edge_indptr, _I64),
                _addr(src_slot, _I64), _addr(dst_slot, _I64),
                _addr(vertices, _I64), _addr(part_indptr, _I64),
                _addr(master, _I64), _addr(replica_counts, _I64),
                _addr(is_master, _BOOL), _addr(master_slots, _I64),
                _addr(mirror_slot, _I64), _addr(master_slot, _I64),
                _addr(mirror_indptr, _I64),
                _addr(master_order, _I64), _addr(master_indptr, _I64),
                _addr(slot_of, _I64), _addr(words, _U64), _addr(sizes, _I64),
            )
        )


def load() -> CcBackend | None:
    """Build (cached) and bind the C kernel library; None if impossible."""
    lib_path = _build(_SOURCE)
    if lib_path is None:
        return None
    try:
        return CcBackend(ctypes.CDLL(lib_path))
    except OSError:
        return None
