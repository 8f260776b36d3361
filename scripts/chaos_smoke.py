#!/usr/bin/env python
"""Chaos smoke: injected faults must leave distributed CLUGP bit-identical.

CI runs this over a fixed seed matrix (``--seed N``); each seed picks a
different victim node per stage via the deterministic
:class:`~repro.reliability.faults.FaultInjector`, so the matrix together
exercises crash, hang, corrupt, and slow recovery on every stage of the
distributed protocol — the round-2 ``attribute`` stage and, on the persistent
backend, the shared-memory result plane included.  Real process deaths
and hangs run on the persistent backend, the one process transport.  The
gate is exact: every chaotic edge partition, on both executor backends,
must equal the fault-free one bit for bit, and no shared-memory segment
may outlive a run.

Usage::

    python scripts/chaos_smoke.py --seed 1
"""

from __future__ import annotations

import argparse
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

import numpy as np

from repro.config import ClugpConfig, ReliabilityConfig
from repro.core.distributed import distributed_clugp
from repro.distributed import leaked_segments
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream


def _run(stream, spec: str, backend: str, timeout=None):
    rel = ReliabilityConfig(
        inject_faults=spec, task_timeout=timeout,
        backoff_base=0.0, backoff_max=0.0,
    )
    cfg = ClugpConfig(num_partitions=4, reliability=rel)
    return distributed_clugp(
        stream, 4, num_nodes=3, config=cfg, seed=0,
        backend=backend,
    )


def main(argv=None) -> int:
    """Run the seeded chaos scenarios; returns a shell exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-injection seed (victim selector)")
    args = parser.parse_args(argv)

    graph = web_crawl_graph(400, avg_out_degree=8.0, host_size=25, seed=3)
    stream = EdgeStream.from_graph(graph, order="natural")
    scenarios = [
        ("thread", f"crash,slow,corrupt,seed={args.seed},slow_seconds=0.05",
         None),
        ("persistent", f"crash,seed={args.seed}", None),
        ("persistent", f"hang,seed={args.seed},hang_seconds=30", 2.0),
        ("persistent", f"crash,corrupt,seed={args.seed}", None),
    ]
    baseline = _run(stream, "", "thread")
    status = 0
    for backend, spec, timeout in scenarios:
        chaotic = _run(stream, spec, backend, timeout)
        identical = np.array_equal(
            baseline.assignment.edge_partition,
            chaotic.assignment.edge_partition,
        )
        counters = chaotic.to_dict().get("reliability", {})
        print(
            f"chaos_smoke: {backend} {spec!r}: identical={identical} "
            f"(retries={counters.get('retries', 0)})"
        )
        if not identical:
            status = 1
    leaked = leaked_segments()
    if leaked:
        print(f"chaos_smoke: leaked shared-memory segments: {leaked}")
        status = 1
    if status:
        print("FAIL: a chaotic run diverged from the fault-free partition "
              "or leaked a segment")
    else:
        print(f"OK: seed {args.seed} chaos runs are bit-identical")
    return status


if __name__ == "__main__":
    sys.exit(main())
