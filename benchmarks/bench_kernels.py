#!/usr/bin/env python
"""Compiled-kernel (``chunk_impl="jit"``) throughput and identity floors.

Standalone script in the run_all.py family: it demonstrates the PR 7
engineering claims for the :mod:`repro.kernels` backends —

* the hdrf/greedy jit chunk path is >= 5x faster than the ``"fast"``
  scalar core it bypasses and >= 10x faster than per-edge streaming on
  the 100k-edge bench graph,
* the pass-2 game stage with ``game_impl="jit"`` (PR 9: fused
  best-response rounds, incremental delta-scoring, O(1) potential)
  is >= 5x faster than the numpy adjacency-table engine,
* CLUGP end-to-end (pass 1 + game + pass 3) with ``chunk_impl="jit"``
  + ``game_impl="jit"`` is >= 20x faster than the per-edge reference
  pipeline (up from ~13x with the chunk kernels alone), and
* every jit assignment is **bit-identical** to the fast and per-edge
  paths (``identity_mismatches`` must be empty in the JSON artifact,
  both top-level and in the ``game`` section — the game identity also
  covers move sequences and full potential traces).

Kernel compilation (numba nopython build or the one-off ``cc`` call) is
excluded from every timing region via :func:`repro.kernels.warmup`.
When no compiled backend is available the floors are skipped — the
section then only records ``backend: null`` so CI without a compiler
still passes.

Usage::

    python benchmarks/bench_kernels.py           # full run
    python benchmarks/bench_kernels.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# allow running straight from a checkout without `pip install -e .`
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

import numpy as np

from repro import kernels
from repro._util import Timer
from repro.bench.harness import clugp_stage_times
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.partitioners.registry import make_partitioner

#: scalar-core heuristics the kernels accelerate
JIT_ALGORITHMS = ("hdrf", "greedy")
JIT_VS_FAST_FLOOR = 5.0
JIT_VS_PER_EDGE_FLOOR = 10.0
CLUGP_E2E_FLOOR = 20.0
GAME_VS_FAST_FLOOR = 5.0

#: jit assignments that must match the fast path bit for bit
IDENTITY_ALGORITHMS = ("hdrf", "greedy", "clugp", "clugp-s", "clugp-g")


def build_stream(num_edges: int, seed: int = 7) -> EdgeStream:
    """The same power-law web-crawl fixture bench_chunked_throughput uses."""
    avg_out = 10.0
    graph = web_crawl_graph(
        max(64, int(num_edges / avg_out)),
        avg_out_degree=avg_out,
        host_size=30,
        intra_host_prob=0.88,
        seed=seed,
    )
    return EdgeStream.from_graph(graph, order="random", seed=seed)


def measure_jit(stream: EdgeStream, k: int, chunk_size: int, repeats: int) -> dict:
    """Best-of-``repeats`` timings for per-edge / fast / jit per algorithm."""
    rows = {}
    for name in JIT_ALGORITHMS:
        timings = {}
        for path in ("per-edge", "fast", "jit"):
            best = float("inf")
            for _ in range(repeats):
                kwargs = {} if path == "per-edge" else {"chunk_impl": path}
                partitioner = make_partitioner(name, k, seed=0, **kwargs)
                with Timer() as t:
                    if path == "per-edge":
                        partitioner.partition_per_edge(stream)
                    else:
                        partitioner.partition_chunked(stream, chunk_size=chunk_size)
                best = min(best, t.elapsed)
            timings[path] = max(best, 1e-9)
        rows[name] = {
            "per_edge_eps": stream.num_edges / timings["per-edge"],
            "fast_eps": stream.num_edges / timings["fast"],
            "jit_eps": stream.num_edges / timings["jit"],
            "speedup_vs_fast": timings["fast"] / timings["jit"],
            "speedup_vs_per_edge": timings["per-edge"] / timings["jit"],
        }
    return rows


def measure_clugp(stream: EdgeStream, k: int, repeats: int) -> dict:
    """End-to-end CLUGP per-pass timings: fast engines vs jit chunk
    kernels + the fused jit game."""
    fast = clugp_stage_times(
        stream, k, repeats=repeats, chunk_impl="fast", game_impl="fast"
    )
    jit = clugp_stage_times(
        stream, k, repeats=repeats, chunk_impl="jit", game_impl="jit"
    )
    per_edge = fast["per-edge"]["total"]
    return {
        "per_edge": fast["per-edge"],
        "fast": fast["chunked"],
        "jit": jit["chunked"],
        "speedup_fast_vs_per_edge": per_edge / max(fast["chunked"]["total"], 1e-9),
        "speedup_jit_vs_per_edge": per_edge / max(jit["chunked"]["total"], 1e-9),
    }


def measure_game(stream: EdgeStream, k: int, repeats: int) -> dict:
    """Pass-2 game engine timings + three-way identity on one cluster graph.

    Isolates the game from the pipeline: pass 1 runs once, then each
    engine (per-neighbor ``reference``, numpy adjacency-table ``fast``,
    fused-kernel ``jit``) replays the identical potential-game descent
    from the same random initial assignment.  Identity covers the final
    assignment, the committed move sequence ``(cluster, from, to)``,
    round/move counts, and the full per-round potential trace — the
    jit trace comes from the kernel's O(1) maintained potential, so
    trace equality also certifies the incremental (S, C) bookkeeping.
    """
    from repro.config import GameConfig
    from repro.core.cluster_graph import build_cluster_graph
    from repro.core.clustering import streaming_clustering
    from repro.core.game import ClusterPartitioningGame

    cfg = make_partitioner("clugp", k, seed=0).config
    clustering = streaming_clustering(
        stream, cfg.resolve_vmax(stream.num_edges),
        enable_splitting=cfg.enable_splitting,
    )
    cluster_graph = build_cluster_graph(stream, clustering)

    def run(impl):
        game = ClusterPartitioningGame(
            cluster_graph, k, GameConfig(seed=0, game_impl=impl)
        )
        with Timer() as t:
            result = game.run(record_moves=True)
        return game, result, t.elapsed

    timings = {}
    results = {}
    for impl in ("reference", "fast", "jit"):
        best = float("inf")
        for _ in range(repeats):
            game, result, elapsed = run(impl)
            best = min(best, elapsed)
        timings[impl] = max(best, 1e-9)
        results[impl] = (game, result)

    mismatches = []
    _, fast_res = results["fast"]
    for impl in ("reference", "jit"):
        _, res = results[impl]
        same = (
            np.array_equal(res.assignment, fast_res.assignment)
            and res.move_log == fast_res.move_log
            and res.rounds == fast_res.rounds
            and res.potential_trace == fast_res.potential_trace
        )
        if not same:
            mismatches.append(f"game[{impl}]")
    jit_game, jit_res = results["jit"]
    # the O(1) maintained potential must equal the from-scratch recompute
    if jit_res.potential_trace[-1] != jit_game.potential():
        mismatches.append("game[jit-potential]")

    return {
        "clusters": cluster_graph.num_clusters,
        "rounds": fast_res.rounds,
        "moves": fast_res.moves,
        "reference_ms": timings["reference"] * 1000,
        "fast_ms": timings["fast"] * 1000,
        "jit_ms": timings["jit"] * 1000,
        "speedup_jit_vs_fast": timings["fast"] / timings["jit"],
        "speedup_jit_vs_reference": timings["reference"] / timings["jit"],
        "identity_mismatches": mismatches,
    }


def check_bit_identical(num_edges: int, k: int, chunk_size: int) -> list[str]:
    """Names whose jit assignment differs from fast/per-edge (want: none)."""
    stream = build_stream(num_edges, seed=11)
    mismatches = []
    for name in IDENTITY_ALGORITHMS:
        kwargs = {"chunk_impl": "jit"}
        if name.startswith("clugp"):
            kwargs["game_impl"] = "jit"  # both compiled seams at once
        per_edge = make_partitioner(name, k, seed=1).partition_per_edge(stream)
        jit = make_partitioner(name, k, seed=1, **kwargs).partition_chunked(
            stream, chunk_size=chunk_size
        )
        if not np.array_equal(per_edge.edge_partition, jit.edge_partition):
            mismatches.append(name)
    # the multiword-bitmask corner: k > 64 needs two words per vertex row
    for name in JIT_ALGORITHMS:
        per_edge = make_partitioner(name, 100, seed=1).partition_per_edge(stream)
        jit = make_partitioner(name, 100, seed=1, chunk_impl="jit").partition_chunked(
            stream, chunk_size=chunk_size
        )
        if not np.array_equal(per_edge.edge_partition, jit.edge_partition):
            mismatches.append(f"{name}[k=100]")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", type=int, default=100_000, help="stream size")
    parser.add_argument("-k", "--partitions", type=int, default=8)
    parser.add_argument("--chunk-size", type=int, default=1 << 16)
    parser.add_argument("--repeats", type=int, default=3, help="best-of timing repeats")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small graph, single repeat, relaxed floors",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write results as JSON"
    )
    args = parser.parse_args(argv)
    if args.edges <= 0 or args.partitions <= 0 or args.chunk_size <= 0 or args.repeats <= 0:
        parser.error("--edges, --partitions, --chunk-size, and --repeats must be positive")

    if args.quick:
        args.edges = min(args.edges, 20_000)
        args.repeats = 1

    # one-shot compile, outside every timing region
    backend = kernels.warmup()
    if backend is None:
        print("kernels: no compiled backend available (numba or cc) — skipping floors")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump({"backend": None, "skipped": True}, fh, indent=2)
            print(f"wrote {args.json}")
        return 0
    print(f"kernels: backend={backend} (warm-up excluded from timings)")

    # quick mode runs a warm-up-dominated graph on noisy CI runners
    vs_fast_floor = 2.0 if args.quick else JIT_VS_FAST_FLOOR
    vs_pe_floor = 3.0 if args.quick else JIT_VS_PER_EDGE_FLOOR
    e2e_floor = 3.0 if args.quick else CLUGP_E2E_FLOOR
    game_floor = 1.5 if args.quick else GAME_VS_FAST_FLOOR

    stream = build_stream(args.edges)
    print(
        f"stream: |V|={stream.num_vertices} |E|={stream.num_edges}, "
        f"k={args.partitions}, chunk_size={args.chunk_size}"
    )

    failures = []
    rows = measure_jit(stream, args.partitions, args.chunk_size, args.repeats)
    print(
        f"\n{'algorithm':10s} {'per-edge e/s':>14s} {'fast e/s':>14s} "
        f"{'jit e/s':>14s} {'vs fast':>9s} {'vs per-edge':>12s}"
    )
    for name, row in rows.items():
        print(
            f"{name:10s} {row['per_edge_eps']:14.0f} {row['fast_eps']:14.0f} "
            f"{row['jit_eps']:14.0f} {row['speedup_vs_fast']:8.1f}x "
            f"{row['speedup_vs_per_edge']:11.1f}x"
        )
        if row["speedup_vs_fast"] < vs_fast_floor:
            failures.append(
                f"{name}: jit {row['speedup_vs_fast']:.1f}x vs the fast core, "
                f"below the {vs_fast_floor:.0f}x floor"
            )
        if row["speedup_vs_per_edge"] < vs_pe_floor:
            failures.append(
                f"{name}: jit {row['speedup_vs_per_edge']:.1f}x vs per-edge, "
                f"below the {vs_pe_floor:.0f}x floor"
            )

    clugp = measure_clugp(stream, args.partitions, args.repeats)
    print(
        f"\nclugp e2e: per-edge {clugp['per_edge']['total']*1000:.0f}ms, "
        f"fast {clugp['fast']['total']*1000:.0f}ms "
        f"({clugp['speedup_fast_vs_per_edge']:.1f}x), "
        f"jit {clugp['jit']['total']*1000:.0f}ms "
        f"({clugp['speedup_jit_vs_per_edge']:.1f}x, floor {e2e_floor:.0f}x)"
    )
    print(
        "  jit stages: "
        + " ".join(
            f"{stage}={clugp['jit'][stage]*1000:.1f}ms"
            for stage in ("clustering", "game", "transform")
        )
    )
    if clugp["speedup_jit_vs_per_edge"] < e2e_floor:
        failures.append(
            f"clugp: jit end-to-end {clugp['speedup_jit_vs_per_edge']:.1f}x "
            f"vs per-edge, below the {e2e_floor:.0f}x floor"
        )

    game = measure_game(stream, args.partitions, args.repeats)
    print(
        f"\ngame stage ({game['clusters']} clusters, {game['rounds']} rounds, "
        f"{game['moves']} moves): reference {game['reference_ms']:.1f}ms, "
        f"fast {game['fast_ms']:.1f}ms, jit {game['jit_ms']:.1f}ms "
        f"({game['speedup_jit_vs_fast']:.1f}x vs fast, floor {game_floor:.1f}x; "
        f"{game['speedup_jit_vs_reference']:.1f}x vs reference)"
    )
    if game["speedup_jit_vs_fast"] < game_floor:
        failures.append(
            f"game: jit {game['speedup_jit_vs_fast']:.1f}x vs the numpy "
            f"adjacency-table engine, below the {game_floor:.1f}x floor"
        )
    if game["identity_mismatches"]:
        failures.append(
            "game: engines diverged for: "
            + ", ".join(game["identity_mismatches"])
        )
    else:
        print(
            "  game identity: reference == fast == jit on assignment, "
            "move sequence, rounds, and full potential trace "
            "(incl. maintained == recomputed potential)"
        )

    identity_edges = min(args.edges, 20_000)
    mismatches = check_bit_identical(identity_edges, args.partitions, chunk_size=1013)
    if mismatches:
        failures.append(f"jit != per-edge for: {', '.join(mismatches)}")
    else:
        print(
            f"\nbit-identity: jit == per-edge for "
            f"{'/'.join(IDENTITY_ALGORITHMS)} incl. the k=100 multiword "
            f"corner ({identity_edges} edges, chunk_size=1013)"
        )

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {
                    "backend": backend,
                    "edges": stream.num_edges,
                    "vertices": stream.num_vertices,
                    "partitions": args.partitions,
                    "chunk_size": args.chunk_size,
                    "floors": {
                        "jit_vs_fast": vs_fast_floor,
                        "jit_vs_per_edge": vs_pe_floor,
                        "clugp_e2e_vs_per_edge": e2e_floor,
                        "game_jit_vs_fast": game_floor,
                    },
                    "jit": rows,
                    "clugp": clugp,
                    "game": game,
                    "identity_mismatches": mismatches,
                },
                fh,
                indent=2,
            )
        print(f"wrote {args.json}")

    if failures:
        print("\nFAIL:\n  " + "\n  ".join(failures))
        return 1
    print("\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
