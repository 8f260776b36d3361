"""Reusable sweep machinery behind the per-figure benchmarks.

Every figure in the paper's evaluation is a sweep of one knob (number of
partitions, graph size, thread count, tau, relative weight) against one or
more metrics (replication factor, runtime, memory, PageRank cost) across
the competitor set.  This module provides those sweeps once, so each
``benchmarks/bench_fig*.py`` file is a thin, readable driver that prints
the same series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.report import format_table
from ..graph.stream import EdgeStream
from ..partitioners.base import EdgePartitioner, PartitionAssignment
from ..partitioners.registry import make_partitioner
from ..system.runtime import LocalGasRuntime, RunCost
from ..system.network import NetworkModel
from ..system.apps.pagerank import pagerank

__all__ = [
    "DEFAULT_ALGORITHMS",
    "SweepResult",
    "run_algorithm",
    "clugp_stage_times",
    "rf_vs_partitions",
    "runtime_vs_partitions",
    "memory_vs_partitions",
    "pagerank_costs",
    "distributed_merge_sweep",
    "series_table",
]

#: the Table I competitor set, in the paper's order
DEFAULT_ALGORITHMS = ("hdrf", "greedy", "hashing", "dbh", "mint", "clugp")


@dataclass
class SweepResult:
    """A (x-value -> algorithm -> metric) grid with a table printer."""

    x_name: str
    metric_name: str
    x_values: list = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)

    def add(self, algorithm: str, x, value: float) -> None:
        if x not in self.x_values:
            self.x_values.append(x)
        self.series.setdefault(algorithm, []).append(float(value))

    def get(self, algorithm: str, x) -> float:
        return self.series[algorithm][self.x_values.index(x)]

    def winner_at(self, x) -> str:
        """Algorithm with the lowest metric at ``x``."""
        idx = self.x_values.index(x)
        return min(self.series, key=lambda a: self.series[a][idx])

    def __str__(self) -> str:
        headers = [f"{self.metric_name} \\ {self.x_name}"] + [
            str(x) for x in self.x_values
        ]
        rows = [
            (name,) + tuple(f"{v:.3f}" for v in values)
            for name, values in self.series.items()
        ]
        return format_table(headers, rows)


def series_table(result: SweepResult, title: str = "") -> str:
    """Render a sweep as the paper-style series table."""
    body = str(result)
    return f"{title}\n{body}" if title else body


def run_algorithm(
    name: str,
    stream: EdgeStream,
    num_partitions: int,
    seed: int = 0,
    order_seed: int = 0,
    use_preferred_order: bool = True,
    ingest: str = "default",
    chunk_size: int | None = None,
    **kwargs,
) -> tuple[EdgePartitioner, PartitionAssignment]:
    """Instantiate + run one registered algorithm under its best order.

    ``ingest`` selects the entry: ``"default"``
    (:meth:`~EdgePartitioner.partition`, the stream read ``chunk_size``
    edges at a time) or ``"per-edge"`` (the reference one-edge-at-a-time
    loop).  Both produce identical assignments; they differ only in speed.
    """
    partitioner = make_partitioner(name, num_partitions, seed=seed, **kwargs)
    if use_preferred_order and partitioner.preferred_order != "natural":
        stream = stream.reordered(partitioner.preferred_order, seed=order_seed)
    if ingest == "default":
        assignment = partitioner.partition(stream, chunk_size=chunk_size)
    elif ingest == "per-edge":
        assignment = partitioner.partition_per_edge(stream)
    else:
        raise ValueError(f"ingest must be 'default' or 'per-edge', got {ingest!r}")
    return partitioner, assignment


def clugp_stage_times(
    stream: EdgeStream,
    num_partitions: int,
    variant: str = "clugp",
    seed: int = 0,
    chunk_size: int = 1 << 16,
    repeats: int = 3,
) -> dict[str, dict[str, float]]:
    """Best-of-``repeats`` per-pass wall-clock of one CLUGP variant.

    Returns ``{"per-edge": {...}, "chunked": {...}}`` where each inner dict
    maps pass name (``clustering`` / ``game`` / ``transform``) and
    ``total`` to seconds, read off the ``stage_times`` the two entries
    record: :meth:`~EdgePartitioner.partition_per_edge` (the three oracle
    functions) and :meth:`~EdgePartitioner.partition` at ``chunk_size``
    (the chunk engines, on whichever tier :mod:`repro.kernels` resolves).
    Both are asserted bit-identical before timings are returned.
    """
    import numpy as np

    results: dict[str, dict[str, float]] = {}
    baseline = None
    for ingest in ("per-edge", "chunked"):
        stages: dict[str, float] = {}
        for _ in range(repeats):
            partitioner = make_partitioner(variant, num_partitions, seed=seed)
            if ingest == "per-edge":
                assignment = partitioner.partition_per_edge(stream)
            else:
                assignment = partitioner.partition(stream, chunk_size=chunk_size)
            run_stages = dict(assignment.stage_times.stages)
            run_stages["total"] = assignment.total_time()
            for name, seconds in run_stages.items():
                stages[name] = min(stages.get(name, float("inf")), seconds)
        if baseline is None:
            baseline = assignment.edge_partition
        elif not np.array_equal(baseline, assignment.edge_partition):
            raise AssertionError(
                f"{variant}: chunked and per-edge assignments diverged"
            )
        results[ingest] = stages
    return results


def rf_vs_partitions(
    stream: EdgeStream,
    partition_counts: list[int],
    algorithms=DEFAULT_ALGORITHMS,
    seed: int = 0,
) -> SweepResult:
    """Figure 3/4(a): replication factor vs number of partitions."""
    result = SweepResult(x_name="k", metric_name="RF")
    for k in partition_counts:
        for name in algorithms:
            _, assignment = run_algorithm(name, stream, k, seed=seed)
            result.add(name, k, assignment.replication_factor())
    return result


def runtime_vs_partitions(
    stream: EdgeStream,
    partition_counts: list[int],
    algorithms=DEFAULT_ALGORITHMS,
    seed: int = 0,
    ingest: str = "default",
) -> SweepResult:
    """Figure 7: partitioning wall-clock vs number of partitions.

    The figure's claim is the k-dependence of scoring one edge at a
    time; ``partition()`` runs hdrf/greedy through compiled kernels, so
    a bench reproducing it passes ``ingest="per-edge"``.
    """
    result = SweepResult(x_name="k", metric_name="seconds")
    for k in partition_counts:
        for name in algorithms:
            _, assignment = run_algorithm(name, stream, k, seed=seed, ingest=ingest)
            result.add(name, k, assignment.total_time())
    return result


def memory_vs_partitions(
    stream: EdgeStream,
    partition_counts: list[int],
    algorithms=DEFAULT_ALGORITHMS,
    seed: int = 0,
) -> SweepResult:
    """Figure 6: partitioner state memory vs number of partitions."""
    result = SweepResult(x_name="k", metric_name="state_bytes")
    for k in partition_counts:
        for name in algorithms:
            partitioner, _ = run_algorithm(name, stream, k, seed=seed)
            result.add(name, k, partitioner.state_memory_bytes(stream))
    return result


def pagerank_costs(
    stream: EdgeStream,
    num_partitions: int,
    algorithms=DEFAULT_ALGORITHMS,
    network: NetworkModel | None = None,
    max_supersteps: int = 30,
    seed: int = 0,
) -> dict[str, RunCost]:
    """Figure 8: run PageRank on the GAS system layer per partitioning.

    Executes on the partition-local runtime, so the reported
    messages/bytes are *measured* off its sync buffers.
    """
    costs: dict[str, RunCost] = {}
    for name in algorithms:
        _, assignment = run_algorithm(name, stream, num_partitions, seed=seed)
        engine = LocalGasRuntime(assignment, network=network)
        _, cost = pagerank(engine, max_supersteps=max_supersteps)
        costs[name] = cost
    return costs


def distributed_merge_sweep(
    stream: EdgeStream,
    num_partitions: int,
    node_counts=(1, 2, 4, 8),
    seed: int = 0,
    backend: str = "thread",
) -> list[dict]:
    """Distributed CLUGP across node counts.

    Returns one ``DistributedResult.to_dict()`` row per node count —
    quality, per-stage walls, and merge wire bytes — the data behind the
    ``distributed_merge`` benchmark section.  Node counts larger than the
    stream are skipped.
    """
    from ..core.distributed import distributed_clugp

    return [
        distributed_clugp(
            stream, num_partitions, num_nodes=num_nodes, seed=seed, backend=backend
        ).to_dict()
        for num_nodes in node_counts
        if num_nodes <= max(1, stream.num_edges)
    ]
