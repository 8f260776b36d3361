"""Figure 10(c) — the distributed critical path.

Figure 10(a)-(b) measure the paper's batched multi-threaded game, which
this repository does not reproduce: under CPython it only adds cost
(DESIGN.md §3).  Panel (c) does not depend on it.
"""

from repro.core.distributed import distributed_clugp

from conftest import run_once

K = 32


def test_fig10c_distributed_critical_path(benchmark, uk_stream):
    """Section III-C deployment (the two-round cluster merge): the
    distributed wall-clock is the ``critical_path`` wall — each node
    fan-out counts its slowest node, plus the coordinator's serial merge
    and game — not the summed node seconds, so sharding must shrink the
    reported wall-clock even on one machine, while the summed work stays
    in the same ballpark."""
    node_counts = [1, 2, 4, 8]

    def sweep():
        rows = []
        for nodes in node_counts:
            result = distributed_clugp(uk_stream, K, num_nodes=nodes, seed=0)
            times = result.assignment.stage_times
            rows.append(
                {
                    "nodes": nodes,
                    "summed_s": times.total,
                    "critical_path_s": result.assignment.wall_time(),
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(f"Figure 10(c) (uk, k={K}): distributed stage accounting")
    for row in rows:
        print(
            f"nodes={row['nodes']:2d} summed={row['summed_s']:.3f}s "
            f"critical_path={row['critical_path_s']:.3f}s"
        )

    for row in rows:
        assert 0.0 < row["critical_path_s"] <= row["summed_s"] + 1e-9
    # with >= 4 shards the critical path must sit well below the summed
    # work (near-equal shards; allow generous slack for shard skew)
    four = next(r for r in rows if r["nodes"] == 4)
    assert four["critical_path_s"] < 0.75 * four["summed_s"]
