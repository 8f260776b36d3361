"""Vertex-cut streaming partitioners: the Table I competitor set."""

from .base import EdgePartitioner, PartitionAssignment
from .hashing import HashingPartitioner
from .dbh import DBHPartitioner
from .greedy import GreedyPartitioner
from .hdrf import HDRFPartitioner
from .mint import MintPartitioner
from .registry import PARTITIONERS, make_partitioner

__all__ = [
    "EdgePartitioner",
    "PartitionAssignment",
    "HashingPartitioner",
    "DBHPartitioner",
    "GreedyPartitioner",
    "HDRFPartitioner",
    "MintPartitioner",
    "PARTITIONERS",
    "make_partitioner",
]
