"""The one checker every repetition's output passes through.

Each function returns a list of problem strings (empty = valid); the
caller counts a non-empty list as a failed operation and carries on with
the other repetitions and workloads.  Quality is recomputed here from
the raw ``edge_partition`` and compared with what the program's
``PartitionAssignment`` reports, so a bug in the program's own metric
code cannot vouch for itself.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

BALANCE_CAP = 1.05  # ClugpConfig.imbalance_factor default; CLUGP hosts must hold it
REL_TOL = 1e-12


def crc(*arrays: np.ndarray) -> int:
    """CRC-32 chained over the arrays' bytes (the determinism digest)."""
    value = 0
    for a in arrays:
        value = zlib.crc32(np.ascontiguousarray(a).tobytes(), value)
    return value


def replica_counts(src, dst, edge_partition, num_partitions: int, num_vertices: int):
    """``|P(v)|`` per vertex from scratch: distinct (vertex, partition) pairs."""
    k = np.int64(num_partitions)
    keys = np.unique(np.concatenate((src * k + edge_partition, dst * k + edge_partition)))
    return np.bincount(keys // k, minlength=num_vertices)


def quality(src, dst, edge_partition, num_partitions: int, num_vertices: int):
    """``(replication_factor, relative_balance, loads, replica_counts)``."""
    counts = replica_counts(src, dst, edge_partition, num_partitions, num_vertices)
    active = counts[counts > 0]
    rf = float(active.mean()) if active.size else 0.0
    loads = np.bincount(edge_partition, minlength=num_partitions)
    balance = float(num_partitions * loads.max() / max(1, edge_partition.size))
    return rf, balance, loads, counts


def load_cap(num_edges: int, num_partitions: int) -> int:
    return math.ceil(BALANCE_CAP * num_edges / num_partitions)


def check_assignment(assignment, capped: bool):
    """Validate a ``PartitionAssignment``; returns
    ``(problems, rf, balance, replica_counts)`` with quality recomputed here.

    ``capped`` is True for CLUGP hosts, whose loads must respect the
    ``ceil(1.05 |E| / k)`` hard cap (the baselines have no such cap).
    """
    stream, k = assignment.stream, assignment.num_partitions
    part = np.asarray(assignment.edge_partition)
    problems = []
    if part.shape != (stream.num_edges,):
        return [f"edge_partition shape {part.shape} != ({stream.num_edges},)"], 0.0, 0.0, None
    if part.size and (part.min() < 0 or part.max() >= k):
        return [f"edge_partition outside [0, {k})"], 0.0, 0.0, None
    rf, balance, loads, counts = quality(stream.src, stream.dst, part, k, stream.num_vertices)
    if capped and loads.max() > load_cap(stream.num_edges, k):
        problems.append(f"max load {loads.max()} > cap {load_cap(stream.num_edges, k)}")
    for name, ours, theirs in (
        ("replication_factor", rf, assignment.replication_factor()),
        ("relative_balance", balance, assignment.relative_balance()),
    ):
        if not math.isclose(ours, theirs, rel_tol=REL_TOL):
            problems.append(f"{name}: recomputed {ours!r} != reported {theirs!r}")
    return problems, rf, balance, counts


def check_service_batch(loads, edges_so_far: int, num_partitions: int, stats, migration_cap: int):
    """Per-batch-boundary invariants of the incremental service."""
    problems = []
    if int(loads.sum()) != edges_so_far:
        problems.append(f"loads sum {int(loads.sum())} != edges so far {edges_so_far}")
    if loads.max() > load_cap(edges_so_far, num_partitions):
        problems.append(
            f"batch {stats.batch}: max load {loads.max()} > cap "
            f"{load_cap(edges_so_far, num_partitions)}"
        )
    if stats.applied_moves > migration_cap:
        problems.append(f"batch {stats.batch}: applied_moves {stats.applied_moves} > {migration_cap}")
    return problems


def check_pagerank(values, cost, replica_count, supersteps: int) -> list[str]:
    """PageRank mass, superstep count and per-superstep sync traffic."""
    problems = []
    if abs(float(values.sum()) - 1.0) > 1e-6:
        problems.append(f"pagerank values sum to {float(values.sum())!r}")
    if cost.num_supersteps != supersteps:
        problems.append(f"ran {cost.num_supersteps} supersteps, expected {supersteps}")
    expected = 2 * int((replica_count[replica_count > 0] - 1).sum())
    wrong = [s.superstep for s in cost.supersteps if s.messages != expected]
    if wrong:
        problems.append(f"supersteps {wrong[:3]} moved != {expected} messages")
    return problems
