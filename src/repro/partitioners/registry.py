"""Name -> partitioner factory registry used by the CLI and benchmarks.

CLUGP and its ablation variants are registered lazily to avoid a circular
import (the core package imports :mod:`repro.partitioners.base`).
"""

from __future__ import annotations

from .base import EdgePartitioner
from .dbh import DBHPartitioner
from .greedy import GreedyPartitioner
from .hashing import HashingPartitioner
from .hdrf import HDRFPartitioner
from .mint import MintPartitioner

__all__ = ["PARTITIONERS", "make_partitioner"]

PARTITIONERS: dict[str, type | str] = {
    "hashing": HashingPartitioner,
    "dbh": DBHPartitioner,
    "greedy": GreedyPartitioner,
    "hdrf": HDRFPartitioner,
    "mint": MintPartitioner,
    # lazy entries resolved in make_partitioner:
    "clugp": "repro.core.partitioner:ClugpPartitioner",
    "clugp-g": "repro.core.partitioner:ClugpGreedyPartitioner",
    "clugp-dist": "repro.core.distributed:DistributedClugpPartitioner",
}


def make_partitioner(name: str, num_partitions: int, seed: int = 0, **kwargs) -> EdgePartitioner:
    """Instantiate a registered partitioner by name.

    Extra keyword arguments are forwarded to the constructor, so e.g.
    ``make_partitioner("hdrf", 32, lambda_bal=2.0)`` works.
    """
    key = name.lower()
    if key not in PARTITIONERS:
        raise KeyError(f"unknown partitioner {name!r}; known: {sorted(PARTITIONERS)}")
    entry = PARTITIONERS[key]
    if isinstance(entry, str):
        module_name, _, attr = entry.partition(":")
        import importlib

        entry = getattr(importlib.import_module(module_name), attr)
        PARTITIONERS[key] = entry  # cache the resolved class
    return entry(num_partitions, seed=seed, **kwargs)
