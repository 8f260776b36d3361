"""Comparison tables across partitioners — the harness behind every
"X vs competitors" figure in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .._util import human_bytes
from ..graph.stream import EdgeStream
from ..partitioners.base import EdgePartitioner
from .metrics import QualityReport, quality_report

__all__ = [
    "ComparisonTable",
    "compare_partitioners",
    "format_table",
]


def format_table(headers: list[str], rows: list[tuple]) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in str_rows)
    return "\n".join(lines)


@dataclass
class ComparisonTable:
    """Collected :class:`QualityReport` rows with a pretty printer."""

    title: str = ""
    reports: list[QualityReport] = field(default_factory=list)

    def add(self, report: QualityReport) -> None:
        self.reports.append(report)

    def best_by_replication(self) -> QualityReport:
        if not self.reports:
            raise ValueError("empty comparison table")
        return min(self.reports, key=lambda r: r.replication_factor)

    def get(self, algorithm: str) -> QualityReport:
        for report in self.reports:
            if report.algorithm == algorithm:
                return report
        raise KeyError(f"no report for {algorithm!r}")

    def __str__(self) -> str:
        headers = ["algorithm", "k", "RF", "balance", "mirrors", "time", "memory"]
        rows = [r.row() + (human_bytes(r.state_memory_bytes),) for r in self.reports]
        body = format_table(headers, rows)
        return f"{self.title}\n{body}" if self.title else body


def compare_partitioners(
    partitioners: list[EdgePartitioner],
    stream: EdgeStream,
    title: str = "",
    use_preferred_orders: bool = True,
    order_seed: int = 0,
) -> ComparisonTable:
    """Run every partitioner on ``stream`` and collect quality reports.

    With ``use_preferred_orders`` (default) each algorithm receives the
    stream in its best order, matching the paper's protocol (Section VI-A:
    random order for the one-pass heuristics/hashes, BFS/crawl order for
    Mint and CLUGP).  The natural order of ``stream`` is treated as the
    crawl order.
    """
    table = ComparisonTable(title=title)
    reordered: dict[str, EdgeStream] = {"natural": stream}
    for partitioner in partitioners:
        order = partitioner.preferred_order if use_preferred_orders else "natural"
        if order not in reordered:
            reordered[order] = stream.reordered(order, seed=order_seed)
        assignment = partitioner.partition(reordered[order])
        table.add(
            quality_report(
                assignment,
                algorithm=partitioner.name,
                state_memory_bytes=partitioner.state_memory_bytes(stream),
            )
        )
    return table

