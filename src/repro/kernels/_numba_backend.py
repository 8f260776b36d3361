"""Numba kernel backend: ``@njit`` over the :mod:`._pykernels` sources.

Import is guarded — machines without numba get ``load() -> None`` and the
resolver falls through to the C backend.  Compilation is deferred to the
first call of each kernel (standard lazy ``@njit``); callers that care
about timing run :func:`repro.kernels.warmup` first so nopython compile
time never lands inside a measured region.
"""

from __future__ import annotations

from . import _pykernels


class NumbaBackend:
    """nopython-compiled kernels sharing the uniform numpy-level API."""

    name = "numba"

    def __init__(self, njit) -> None:
        opts = {"cache": True, "nogil": True}
        self.hdrf_chunk = njit(**opts)(_pykernels.hdrf_chunk)
        self.greedy_chunk = njit(**opts)(_pykernels.greedy_chunk)
        self.clustering_chunk = njit(**opts)(_pykernels.clustering_chunk)
        self.transform_chunk = njit(**opts)(_pykernels.transform_chunk)
        self.game_round = njit(**opts)(_pykernels.game_round)
        self.game_cost_rows = njit(**opts)(_pykernels.game_cost_rows)
        checked = _pykernels.checked_take
        self.take_add_f64 = checked(njit(**opts)(_pykernels.take_add_f64))
        self.take_min_f64 = checked(njit(**opts)(_pykernels.take_min_f64))
        self.take_min_i64 = checked(njit(**opts)(_pykernels.take_min_i64))
        self.take_put_i64 = checked(njit(**opts)(_pykernels.take_put_i64))
        self.slot_index = njit(**opts)(_pykernels.slot_index)


def load() -> NumbaBackend | None:
    """Wrap the Python kernels in ``@njit``; None when numba is absent."""
    try:
        from numba import njit
    except ImportError:
        return None
    try:
        return NumbaBackend(njit)
    except Exception:  # pragma: no cover - defensive: broken numba install
        return None
