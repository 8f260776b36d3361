"""Design-choice ablations beyond the paper's Figure 9 (DESIGN.md §6).

Two implementation decisions the paper leaves implicit are isolated
here:

1. **stream order** — CLUGP's clustering pass assumes crawl (BFS) order;
   how much quality does a random order cost?  (Section II footnote 1
   justifies the BFS assumption; this quantifies it.)
2. **lambda mode** — Theorem-5 maximum (paper default) vs the Equation-15
   balanced value vs a fixed constant.
"""

import pytest

from repro.config import GameConfig
from repro.core.partitioner import ClugpPartitioner

from conftest import run_once

K = 32


def test_ablation_stream_order(benchmark, uk_stream):
    def sweep():
        rows = {}
        for order in ("natural", "random", "bfs"):
            stream = uk_stream if order == "natural" else uk_stream.reordered(
                order, seed=1
            )
            assignment = ClugpPartitioner(K, seed=0).partition(stream)
            rows[order] = assignment.replication_factor()
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(f"ablation (uk, k={K}): CLUGP RF by stream order: "
          + "  ".join(f"{o}={rf:.3f}" for o, rf in rows.items()))
    # crawl order is the assumption the clustering pass relies on: a random
    # order must hurt quality noticeably
    assert rows["natural"] < rows["random"]


def test_ablation_lambda_mode(benchmark, uk_stream):
    def sweep():
        rows = {}
        for mode in ("max", "balanced", "fixed"):
            cfg = GameConfig(lambda_mode=mode, lambda_value=1.0, seed=0)
            assignment = ClugpPartitioner(K, game=cfg).partition(uk_stream)
            rows[mode] = {
                "rf": assignment.replication_factor(),
                "balance": assignment.relative_balance(),
            }
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(f"ablation (uk, k={K}): lambda mode: "
          + "  ".join(f"{m}: RF={r['rf']:.3f}" for m, r in rows.items()))
    # every mode must respect the tau cap (pass 3 enforces it regardless)
    for row in rows.values():
        assert row["balance"] <= 1.06
    # the paper-default maximum is competitive with the alternatives
    best = min(r["rf"] for r in rows.values())
    assert rows["max"]["rf"] <= 1.15 * best

