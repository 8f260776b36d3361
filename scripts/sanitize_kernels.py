#!/usr/bin/env python
"""Sanitizer leg: the kernel tests against an ASan + UBSan build of kernels.c.

Every host runs ``kernels.c`` by default, and the take kernels index with
caller data, so a stray read or write there is a production bug the
ordinary tests can pass straight through.  This script compiles the
kernels with ``-fsanitize=address,undefined`` into a fresh kernel cache,
*under the file name the ``cc`` backend looks up* — so the program loads
the instrumented library through its normal path, with no switch in
``src/`` — and runs the kernel-facing test modules with the ASan runtime
preloaded.  Any report aborts the test process, so the exit status is
non-zero on any report (and on any ordinary test failure).

``tests/test_kernels.py`` holds the identity differential of the
partitioner contract (``test_streaming_three_way_identity``): under it
``hdrf_chunk`` / ``greedy_chunk`` / ``transform_chunk`` write through
``out`` *slices* of one preallocated result array at chunk sizes 1, 7,
509, 65 536 and |E| — the pointer arithmetic a sanitizer is for.
``tests/test_default_path.py`` puts the default-constructed objects of
every host (single process, service, distributed) on the instrumented
library too, ``tests/test_distributed_gas.py`` the worker side of the
GAS superstep, whose folds and puts run through the take kernels, and
``tests/test_service_incremental.py`` the game kernel warm-started batch
after batch from the previous equilibrium.  The
whole leg is ~70 s here; the differential's
``chunk_size = 1`` row alone is ~12 s, so no row is skipped under the
instrumented build.

The tests run in a child process, which ends by reading its own
``/proc/self/maps``: the instrumented library must be the kernel library
mapped, the ASan runtime must be mapped, and an unforced resolution must
have answered ``cc`` — otherwise this leg would silently be testing the
normal build.

Usage::

    python scripts/sanitize_kernels.py            # the default modules
    python scripts/sanitize_kernels.py tests/test_take_kernels.py -k put
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import kernels  # noqa: E402
from repro.kernels import _cc_backend  # noqa: E402

TESTS = [
    "tests/test_kernels.py",
    "tests/test_default_path.py",
    "tests/test_game_kernels.py",
    "tests/test_kernel_seams.py",
    "tests/test_local_runtime.py",
    "tests/test_take_kernels.py",
    "tests/test_distributed_gas.py",
    "tests/test_service_incremental.py",
]

# -ffp-contract=off as in the shipped build: the float kernels' bits are
# asserted by these tests
FLAGS = [
    "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
    "-fno-omit-frame-pointer", "-ffp-contract=off", "-fPIC", "-shared",
]


def _child(lib_path: str, pytest_args: list[str]) -> int:
    """Inside the instrumented environment: run the tests, then prove
    which kernel library this process executed."""
    import pytest

    # --capture=sys leaves fd 2 alone: a sanitizer report reaches the log
    code = int(
        pytest.main(["-x", "-q", "-p", "no:cacheprovider", "--capture=sys", *pytest_args])
    )
    resolved = kernels.backend_name()
    with open("/proc/self/maps") as f:
        mapped = [line.split()[-1] for line in f if "/" in line]
    kernel_libs = {path for path in mapped if os.path.basename(path).startswith("kernels-")}
    problems = []
    if resolved != "cc":
        problems.append(f"an unforced resolution answers {resolved!r}, not 'cc'")
    if kernel_libs != {lib_path}:
        problems.append(f"kernel libraries mapped: {sorted(kernel_libs)}, built: {lib_path}")
    if not any("libasan" in path for path in mapped):
        problems.append("the ASan runtime is not mapped")
    for problem in problems:
        print(f"sanitize_kernels: {problem}", file=sys.stderr)
    return code or (3 if problems else 0)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        return _child(argv[1], argv[2:])
    compiler = _cc_backend._find_compiler()
    if compiler is None:
        print("sanitize_kernels: no C compiler", file=sys.stderr)
        return 2
    asan = subprocess.run(
        [compiler, "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(asan):  # the bare name back: this compiler ships none
        print(f"sanitize_kernels: {compiler} has no libasan.so", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="clugp-sanitize-") as cache:
        os.environ["CLUGP_KERNEL_CACHE"] = cache
        lib_path = _cc_backend._library_path(_cc_backend._SOURCE)
        build = subprocess.run([compiler, *FLAGS, "-o", lib_path, _cc_backend._SOURCE])
        if build.returncode != 0:
            return 2
        env = dict(
            os.environ,
            LD_PRELOAD=asan,
            ASAN_OPTIONS="detect_leaks=0",  # CPython's own arenas are not the subject
            PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
        )
        env.pop("CLUGP_KERNEL_BACKEND", None)  # the default resolution is what ships
        return subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", lib_path, *(argv or TESTS)],
            env=env, cwd=_ROOT,
        ).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
