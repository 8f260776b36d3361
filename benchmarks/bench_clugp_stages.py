#!/usr/bin/env python
"""CLUGP chunked pipeline vs per-edge reference, per pass.

Standalone script demonstrating the engineering claim of the vectorized
chunked CLUGP core:

* the chunked three-pass pipeline (array-backed ``ClusteringState``, CSR
  cluster graph + adjacency-table game, masked-join ``TransformState``) is
  >= 4x faster end-to-end than the faithful per-edge reference path on a
  100k-edge graph, for CLUGP and the CLUGP-G ablation, and
* both paths produce **bit-identical** assignments (asserted per variant
  before any timing is reported).

Per-pass timings are printed so regressions are attributable to a stage.

Usage::

    python benchmarks/bench_clugp_stages.py             # full run
    python benchmarks/bench_clugp_stages.py --quick     # CI smoke
    python benchmarks/bench_clugp_stages.py --json out.json

Exit status is non-zero if the end-to-end speedup floor fails.
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

from repro.bench.harness import clugp_stage_times
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream

VARIANTS = ("clugp", "clugp-g")
SPEEDUP_FLOOR = 4.0
STAGES = ("clustering", "game", "transform", "total")


def build_stream(num_edges: int, seed: int = 7) -> EdgeStream:
    """A power-law web-crawl stand-in, streamed in random order."""
    avg_out = 10.0
    graph = web_crawl_graph(
        max(64, int(num_edges / avg_out)),
        avg_out_degree=avg_out,
        host_size=30,
        intra_host_prob=0.88,
        seed=seed,
    )
    return EdgeStream.from_graph(graph, order="random", seed=seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", type=int, default=100_000, help="stream size")
    parser.add_argument("-k", "--partitions", type=int, default=8)
    parser.add_argument("--chunk-size", type=int, default=1 << 16)
    parser.add_argument("--repeats", type=int, default=5, help="best-of timing repeats")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small graph, single repeat, relaxed speedup floor",
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
    floor = 1.5 if args.quick else SPEEDUP_FLOOR

    stream = build_stream(args.edges)
    print(
        f"stream: |V|={stream.num_vertices} |E|={stream.num_edges}, "
        f"k={args.partitions}, chunk_size={args.chunk_size}, floor={floor:.1f}x"
    )

    report = {
        "edges": stream.num_edges,
        "vertices": stream.num_vertices,
        "partitions": args.partitions,
        "chunk_size": args.chunk_size,
        "floor": floor,
        "variants": {},
    }
    failures = []
    for variant in VARIANTS:
        times = clugp_stage_times(
            stream,
            args.partitions,
            variant=variant,
            seed=1,
            chunk_size=args.chunk_size,
            repeats=args.repeats,
        )
        per_edge = times["per-edge"]
        chunked = times["chunked"]
        speedups = {s: per_edge[s] / max(chunked[s], 1e-9) for s in STAGES}
        report["variants"][variant] = {
            "per_edge_seconds": per_edge,
            "chunked_seconds": chunked,
            "speedup": speedups,
            "bit_identical": True,  # asserted inside clugp_stage_times
        }
        print(f"\n{variant} (bit-identical: yes)")
        print(f"  {'pass':12s} {'per-edge':>10s} {'chunked':>10s} {'speedup':>9s}")
        for stage in STAGES:
            print(
                f"  {stage:12s} {per_edge[stage]*1000:9.1f}ms "
                f"{chunked[stage]*1000:9.1f}ms {speedups[stage]:8.2f}x"
            )
        if speedups["total"] < floor:
            failures.append(
                f"{variant}: end-to-end speedup {speedups['total']:.2f}x "
                f"below the {floor:.1f}x floor"
            )

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"\nwrote {args.json}")

    if failures:
        print("\nFAIL:\n  " + "\n  ".join(failures))
        return 1
    print("\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
