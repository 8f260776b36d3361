"""C kernel backend: compile ``kernels.c`` on first use, bind via ctypes.

The shipped ``kernels.c`` is compiled once with the system C compiler
(``cc``/``gcc``/``clang``) into a per-user cache directory keyed by a
hash of the source, so every later import is a single ``dlopen``.
Compilation uses ``-O2 -ffp-contract=off`` and **no** ``-ffast-math`` —
IEEE double semantics must match CPython's exactly for the HDRF
bit-identity guarantee (DESIGN.md §8).  Every row of
:data:`repro.kernels.KERNELS` is bound from the table: array parameters
are ``void *`` fed checked addresses, lengths and scalars are
``int64_t`` / ``double``.

Nothing here hard-fails the caller: no compiler, a failed or timed-out
compile, or a failed load raises :class:`BuildError` naming the step,
which the resolver records and reports before running the numpy tier.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

from . import ARRAY_KINDS, KERNELS, bind

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")
_TIMEOUT_S = 120


class BuildError(RuntimeError):
    """The kernel library could not be built or loaded; says which step failed."""


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


def _build(source_path: str) -> str:
    """Compile the kernel library if not cached; return the .so path."""
    compiler = _find_compiler()
    if compiler is None:
        raise BuildError("no C compiler found (tried cc, gcc, clang)")
    tmp = None
    try:
        lib_path = _library_path(source_path)
        if os.path.exists(lib_path):
            return lib_path
        cache, suffix = os.path.dirname(lib_path), os.path.splitext(lib_path)[1]
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=suffix, dir=cache)
        os.close(fd)
        cmd = [compiler, "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-o", tmp, source_path]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, errors="replace", timeout=_TIMEOUT_S
        )
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["(no output)"])[-1]
            raise BuildError(f"{compiler} exited {proc.returncode}: {last}")
        os.replace(tmp, lib_path)  # atomic: concurrent builders agree on the key
        tmp = None
        return lib_path
    except subprocess.TimeoutExpired:
        raise BuildError(f"{compiler} timed out after {_TIMEOUT_S} s") from None
    except OSError as exc:
        raise BuildError(f"building the kernel library failed: {exc}") from exc
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _ctype(kind: str):
    if kind in ARRAY_KINDS:
        return ctypes.c_void_p  # fed a plain integer address, checked by ``_addr``
    return ctypes.c_double if kind == "f64" else ctypes.c_int64


class CcBackend:
    """ctypes bindings of every :data:`~repro.kernels.KERNELS` row."""

    name = "cc"

    def __init__(self, lib: ctypes.CDLL) -> None:
        for name, kernel in KERNELS.items():
            fn = getattr(lib, name)
            fn.argtypes = [_ctype(kind) for _, kind in kernel.args]
            fn.restype = None if kernel.ret is None else ctypes.c_int64
            setattr(self, name, bind(name, fn, native=True))


def load() -> CcBackend:
    """Build (cached) and bind the C kernel library."""
    lib_path = _build(_SOURCE)
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError as exc:
        raise BuildError(f"dlopen failed: {exc}") from exc
    return CcBackend(lib)
