"""Partition-quality metrics and comparison reporting."""

from .metrics import mirror_count, quality_report, QualityReport
from .report import ComparisonTable, compare_partitioners

__all__ = [
    "mirror_count",
    "quality_report",
    "QualityReport",
    "ComparisonTable",
    "compare_partitioners",
]
