"""Figure 7 — partitioning runtime vs number of partitions.

Paper's claims:
  * heuristic methods (HDRF/Greedy) and Mint slow down sharply as k grows
    (every edge scores all k partitions against a global table);
  * CLUGP and the hashing methods are insensitive to k (the paper quotes
    1162s -> 1869s for CLUGP from k=4 to 256, vs 35000s for HDRF at 256);
  * at large k CLUGP is an order of magnitude faster than the heuristics.
"""

from repro.bench.harness import runtime_vs_partitions, series_table

from conftest import run_once

K_VALUES = [4, 16, 64, 256]
ALGORITHMS = ("hdrf", "greedy", "hashing", "dbh", "mint", "clugp")


def test_fig7_runtime_vs_partitions(benchmark, uk_stream):
    def sweep():
        # the per-edge loops, named explicitly: partition() runs hdrf/greedy
        # (and CLUGP) through compiled kernels, which is not what Figure 7 times
        return runtime_vs_partitions(
            uk_stream, K_VALUES, algorithms=ALGORITHMS, seed=0, ingest="per-edge"
        )

    result = run_once(benchmark, sweep)
    print()
    print(series_table(result, title="Figure 7 (uk): partitioning seconds vs k"))

    # heuristics grow with k much faster than CLUGP does
    hdrf_growth = result.get("hdrf", 256) / result.get("hdrf", 4)
    clugp_growth = result.get("clugp", 256) / result.get("clugp", 4)
    assert clugp_growth < hdrf_growth

    # at k=256 CLUGP decisively beats the per-edge-scoring heuristics
    assert result.get("clugp", 256) < 0.5 * result.get("hdrf", 256)
    assert result.get("clugp", 256) < 0.5 * result.get("mint", 256)
