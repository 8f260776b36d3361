#!/usr/bin/env python
"""Fault-tolerance cost and recovery: the PR-8 reliability gates.

Standalone script demonstrating that the reliability runtime
(DESIGN.md §9) is cheap when idle and correct when exercised:

* **checkpoint overhead** — a ``PartitionService`` feed with the
  write-ahead journal plus rotated checkpoints enabled must stay within
  ``OVERHEAD_CEILING`` of the same feed with durability off, and the
  final partition must be bit-identical (durability must never perturb
  results), hard gates;
* **retry-harness overhead** — a fault-free merged distributed run with
  summary validation on must stay within ``OVERHEAD_CEILING`` of the
  same run with validation off, bit-identical, hard gates;
* **recovery beats recompute** — a service killed mid-feed and resumed
  from checkpoint + journal must finish the feed faster than replaying
  the whole feed from scratch, and land bit-identical to the
  uninterrupted run, hard gates (the speed gate is advisory in
  ``--quick``: the tiny fixture makes the saved work comparable to the
  resume cost);
* **chaos bit-identity** — ``distributed_clugp`` with deterministic
  fault injection (crash / hang / corrupt / slow, one victim per stage)
  must produce the exact edge partition of the fault-free thread run on
  both the thread and persistent backends (real worker-process crashes
  and hangs run on the persistent one), hard gate.

The overhead ceilings are relaxed in ``--quick``: the CI fixture is two
orders of magnitude smaller, so constant costs (journal fsync, pool
spin-up) dominate and only the identity gates stay hard.

Usage::

    python benchmarks/bench_reliability.py           # full run
    python benchmarks/bench_reliability.py --quick   # CI smoke

Exit status is non-zero if any gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

import numpy as np

from repro._util import Timer
from repro.config import ClugpConfig, GameConfig, ReliabilityConfig
from repro.core.distributed import distributed_clugp
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.service import PartitionService

#: relative wall-clock excess allowed for the always-on reliability
#: machinery (journal + cadenced checkpoints; summary validation) on a
#: fault-free feed.  Measured on the 100k-edge fixture: ~1-3%.
OVERHEAD_CEILING = 0.05
OVERHEAD_CEILING_QUICK = 0.60  # tiny fixture: constant costs dominate

NUM_BATCHES = 50
#: checkpoint cadence — a full snapshot every tenth batch, the journal
#: covering the batches in between (the documented operating point).
CHECKPOINT_EVERY = 10


def _scratch_dir(prefix: str) -> str:
    """A temp dir on tmpfs when available (else the default temp root).

    The overhead gates measure the *apparatus* — serialization, hashing,
    journaling, replay — not the latency of one particular disk's
    ``fsync``, which on shared CI runners varies by an order of
    magnitude with unrelated writeback.  tmpfs removes that noise; the
    device-latency tradeoff is a documented policy knob
    (``journal_sync``), not a regression this benchmark could catch.
    """
    base = "/dev/shm" if os.path.isdir("/dev/shm") else None
    return tempfile.mkdtemp(prefix=prefix, dir=base)


def build_stream(num_edges: int, seed: int = 11) -> EdgeStream:
    """A power-law web-crawl stand-in with ~``num_edges`` edges."""
    avg_out = 10.0
    graph = web_crawl_graph(
        max(64, int(num_edges / avg_out)),
        avg_out_degree=avg_out,
        host_size=30,
        intra_host_prob=0.88,
        seed=seed,
    )
    return EdgeStream.from_graph(graph, order="bfs")


def _service_config(k: int, seed: int, checkpoint_every: int = CHECKPOINT_EVERY):
    return ClugpConfig(
        num_partitions=k,
        game=GameConfig(seed=seed),
        reliability=ReliabilityConfig(checkpoint_every=checkpoint_every),
    )


def _feed_service(stream, k, seed, batch_size, checkpoint_dir=None):
    """Feed the whole stream; return (service, wall seconds)."""
    svc = PartitionService(
        stream.num_vertices,
        _service_config(k, seed),
        migration_cap=256,
        expected_edges=stream.num_edges,
        checkpoint_dir=checkpoint_dir,
    )
    with Timer() as t:
        for src, dst in stream.batches(batch_size):
            svc.ingest_pair(src, dst)
    svc.close()
    return svc, t.elapsed


def run_checkpoint_overhead(stream, k, seed, quick, repeats) -> tuple[dict, list[str]]:
    """Durability on vs off over the same feed: wall ratio + bit-identity."""
    batch_size = max(1, stream.num_edges // NUM_BATCHES)
    t_plain = t_durable = float("inf")
    plain = durable = None
    for _ in range(repeats):
        plain, elapsed = _feed_service(stream, k, seed, batch_size)
        t_plain = min(t_plain, elapsed)
        ckpt_dir = _scratch_dir("bench-rel-ckpt-")
        try:
            durable, elapsed = _feed_service(
                stream, k, seed, batch_size, checkpoint_dir=ckpt_dir
            )
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        t_durable = min(t_durable, elapsed)
    overhead = t_durable / max(t_plain, 1e-9) - 1.0
    ceiling = OVERHEAD_CEILING_QUICK if quick else OVERHEAD_CEILING
    identical = bool(
        np.array_equal(plain.edge_partition, durable.edge_partition)
        and np.array_equal(plain.loads, durable.loads)
    )
    report = {
        "num_edges": stream.num_edges,
        "num_batches": NUM_BATCHES,
        "checkpoint_every": CHECKPOINT_EVERY,
        "plain_seconds": t_plain,
        "durable_seconds": t_durable,
        "overhead": overhead,
        "ceiling": ceiling,
        "identical": identical,
    }
    failures = []
    if not identical:
        failures.append(
            "reliability: enabling checkpoints perturbed the partition"
        )
    if overhead > ceiling:
        failures.append(
            f"reliability: checkpoint+journal overhead {overhead:+.1%} "
            f"exceeds the {ceiling:.0%} ceiling"
        )
    print(
        f"reliability/checkpoint: plain {t_plain*1000:.0f}ms, "
        f"durable {t_durable*1000:.0f}ms ({overhead:+.1%}, "
        f"ceiling {ceiling:.0%}), identical={identical}"
    )
    return report, failures


def _distributed(stream, k, validate: bool, spec: str = "", backend="thread",
                 timeout=None):
    rel = ReliabilityConfig(
        validate_summaries=validate, inject_faults=spec,
        task_timeout=timeout, backoff_base=0.0, backoff_max=0.0,
    )
    cfg = ClugpConfig(num_partitions=k, reliability=rel)
    return distributed_clugp(
        stream, k, num_nodes=4, config=cfg, seed=0,
        backend=backend,
    )


def run_retry_overhead(stream, k, quick, repeats) -> tuple[dict, list[str]]:
    """Summary validation on vs off on a fault-free merged run."""
    t_off = t_on = float("inf")
    off = on = None
    for _ in range(repeats):
        with Timer() as t:
            off = _distributed(stream, k, validate=False)
        t_off = min(t_off, t.elapsed)
        with Timer() as t:
            on = _distributed(stream, k, validate=True)
        t_on = min(t_on, t.elapsed)
    overhead = t_on / max(t_off, 1e-9) - 1.0
    ceiling = OVERHEAD_CEILING_QUICK if quick else OVERHEAD_CEILING
    identical = bool(
        np.array_equal(
            off.assignment.edge_partition, on.assignment.edge_partition
        )
    )
    report = {
        "validation_off_seconds": t_off,
        "validation_on_seconds": t_on,
        "overhead": overhead,
        "ceiling": ceiling,
        "identical": identical,
    }
    failures = []
    if not identical:
        failures.append("reliability: summary validation perturbed the partition")
    if overhead > ceiling:
        failures.append(
            f"reliability: validation+retry overhead {overhead:+.1%} "
            f"exceeds the {ceiling:.0%} ceiling"
        )
    print(
        f"reliability/retry: validation off {t_off*1000:.0f}ms, "
        f"on {t_on*1000:.0f}ms ({overhead:+.1%}, ceiling {ceiling:.0%}), "
        f"identical={identical}"
    )
    return report, failures


def run_recovery(stream, k, seed, quick) -> tuple[dict, list[str]]:
    """Kill mid-feed; resume must beat recomputing the whole feed."""
    batch_size = max(1, stream.num_edges // NUM_BATCHES)
    batches = list(stream.batches(batch_size))
    kill_at = (3 * len(batches)) // 4

    ref, t_recompute = _feed_service(stream, k, seed, batch_size)

    ckpt_dir = _scratch_dir("bench-rel-resume-")
    try:
        svc = PartitionService(
            stream.num_vertices, _service_config(k, seed),
            migration_cap=256, expected_edges=stream.num_edges,
            checkpoint_dir=ckpt_dir,
        )
        for src, dst in batches[:kill_at]:
            svc.ingest_pair(src, dst)
        del svc  # simulated crash: no close(), journal left as-is
        with Timer() as t:
            resumed = PartitionService.resume(ckpt_dir)
            for src, dst in batches[resumed.batch_index:]:
                resumed.ingest_pair(src, dst)
        t_recover = t.elapsed
        resumed.close()
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    identical = bool(
        np.array_equal(ref.edge_partition, resumed.edge_partition)
        and np.array_equal(ref.vertex_partition, resumed.vertex_partition)
    )
    speedup = t_recompute / max(t_recover, 1e-9)
    report = {
        "killed_after_batches": kill_at,
        "total_batches": len(batches),
        "recompute_seconds": t_recompute,
        "recover_seconds": t_recover,
        "speedup": speedup,
        "identical": identical,
    }
    failures = []
    if not identical:
        failures.append(
            "reliability: resumed service is not bit-identical to the "
            "uninterrupted feed"
        )
    if speedup <= 1.0 and not quick:
        failures.append(
            f"reliability: recovery ({t_recover:.2f}s) is not faster than "
            f"recomputing the feed ({t_recompute:.2f}s)"
        )
    print(
        f"reliability/recovery: killed after {kill_at}/{len(batches)} batches; "
        f"recompute {t_recompute*1000:.0f}ms vs resume+finish "
        f"{t_recover*1000:.0f}ms ({speedup:.2f}x), identical={identical}"
    )
    return report, failures


def run_chaos_gate(stream, k, quick) -> tuple[dict, list[str]]:
    """Injected crash/hang/corrupt/slow leave the partition bit-identical."""
    rows = []
    failures = []
    baseline_thread = _distributed(stream, k, validate=True)
    scenarios = [
        ("thread", "crash,slow,corrupt,seed=0,slow_seconds=0.05", None),
        ("thread", "crash,slow,corrupt,seed=2,slow_seconds=0.05", None),
        ("persistent", "crash,seed=1", None),
    ]
    if not quick:
        scenarios.append(("persistent", "hang,seed=0,hang_seconds=30", 5.0))
    for backend, spec, timeout in scenarios:
        chaotic = _distributed(stream, k, validate=True, spec=spec,
                               backend=backend, timeout=timeout)
        identical = bool(
            np.array_equal(
                baseline_thread.assignment.edge_partition,
                chaotic.assignment.edge_partition,
            )
        )
        counters = chaotic.to_dict().get("reliability", {})
        rows.append(
            {"backend": backend, "spec": spec, "identical": identical,
             "counters": counters}
        )
        if not identical:
            failures.append(
                f"reliability: chaos run ({backend}, {spec!r}) diverged "
                f"from the fault-free partition"
            )
        print(
            f"reliability/chaos: {backend} {spec!r}: identical={identical} "
            f"(retries={counters.get('retries', 0)})"
        )
    return {"rows": rows}, failures


def main(argv=None) -> int:
    """CLI entry point; returns a shell exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small fixture, relaxed ceilings")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the JSON report")
    args = parser.parse_args(argv)

    num_edges = 4_000 if args.quick else 100_000
    repeats = 1 if args.quick else 3
    k = 8
    seed = 0
    stream = build_stream(num_edges)
    chaos_stream = build_stream(3_000 if args.quick else 10_000, seed=3)

    report: dict = {"quick": args.quick, "num_edges": stream.num_edges}
    failures: list[str] = []

    sub, fails = run_checkpoint_overhead(stream, k, seed, args.quick, repeats)
    report["checkpoint_overhead"] = sub
    failures += fails

    sub, fails = run_retry_overhead(chaos_stream, k, args.quick, repeats)
    report["retry_overhead"] = sub
    failures += fails

    sub, fails = run_recovery(stream, k, seed, args.quick)
    report["recovery"] = sub
    failures += fails

    sub, fails = run_chaos_gate(chaos_stream, k, args.quick)
    report["chaos"] = sub
    failures += fails

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.json}")

    if failures:
        print("FAIL:\n  " + "\n  ".join(failures))
        return 1
    print("OK: all reliability gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
