"""The six workloads, and the child process that runs one round of one.

A *round* is a fresh process: set-up (fixture load, ``kernels.warmup``,
runtime spawn, one untimed warm-up repetition), then timed repetitions
until the round's share of ``--seconds`` is used, then validation.  The
parent (``run.py``) runs several rounds and pools their samples.

Every object is built the way a user gets it: default ``ClugpConfig`` /
``GameConfig`` / registry defaults except ``k`` and sizes.  Layers are
timed from outside, by this file's clock around public calls; counts are
read off the objects those calls return; seconds never come from the
program's ``StageTimes`` / ``BatchStats.seconds``.

Each workload has two forms of its timed operation:

``host()``    the single public entry point a user calls, timed with a
              plain clock (tracing off) -- the end-to-end numbers;
``traced()``  the same work as the sequence of public layer calls, each
              inside a span -- the per-layer ledger.  It must reproduce
              ``host()``'s output bit for bit.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import re
import resource
import sys
import time
import traceback

import numpy as np

import validate
from spans import Tracer

from repro import kernels
from repro.config import ClugpConfig
from repro.core.cluster_graph import build_cluster_graph
from repro.core.clustering import ClusteringState
from repro.core.distributed import distributed_clugp
from repro.core.game import ClusterPartitioningGame
from repro.core.partitioner import ClugpPartitioner
from repro.core.transform import TransformState
from repro.distributed.runtime import PersistentRuntime
from repro.graph.io import read_edges_binary
from repro.graph.stream import EdgeStream
from repro.partitioners.base import PartitionAssignment
from repro.partitioners.registry import make_partitioner
from repro.service import PartitionService
from repro.system import build_local_index, build_placement, make_engine, pagerank

now = time.perf_counter

SERVICE_BATCHES = 200
SERVICE_K = 16
MIGRATION_CAP = 256
QUALITY_EVERY = 20
SUPERSTEPS = 20


@dataclasses.dataclass
class Rep:
    """One timed operation: its wall, output digest and what validation needs."""

    wall: float
    digest: int
    output: object
    extra: dict = dataclasses.field(default_factory=dict)
    failed_ops: int = 0  # operations inside this repetition that failed a check
    problems: list = dataclasses.field(default_factory=list)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    ``VmHWM`` belongs to the address space ``exec`` created.  ``ru_maxrss``
    does not: the kernel carries the high-water mark of the *spawning*
    process across ``vfork`` + ``exec``, so it reads no lower than
    ``run.py``'s own peak.
    """
    with open("/proc/self/status") as f:
        return int(re.search(r"VmHWM:\s+(\d+) kB", f.read()).group(1)) / 1024


def load_stream(path: str) -> EdgeStream:
    return EdgeStream.from_graph(read_edges_binary(path))


def config_kwargs(cfg, fn) -> dict:
    """The fields of ``cfg`` whose names are parameters of ``fn``.

    The staged replay takes every knob from a default config this way,
    never by naming ``chunk_impl`` / ``kernel_backend``, so it keeps
    working when those knobs are removed.
    """
    params = inspect.signature(fn).parameters
    return {
        f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name in params
    }


def staged_partition(tracer: Tracer, stream: EdgeStream, k: int) -> PartitionAssignment:
    """``ClugpPartitioner(k).partition(stream)`` as its public layer calls."""
    cfg = ClugpConfig(num_partitions=k)
    chunk = ClugpPartitioner.default_chunk_size
    n, m = stream.num_vertices, stream.num_edges
    with tracer.span("core.partitioner.replay"):
        with tracer.span("core.clustering.pass1", edges=m) as s1:
            state = ClusteringState(
                n, cfg.resolve_vmax(m), **config_kwargs(cfg, ClusteringState)
            )
            for src, dst in stream.batches(chunk):
                state.ingest_pair(src, dst)
            clustering = state.finalize()
        with tracer.span("core.cluster_graph.build") as s2:
            graph = build_cluster_graph(stream, clustering)
        with tracer.span("core.game.run") as s3:
            game = ClusterPartitioningGame(
                graph, config=cfg.game, **config_kwargs(cfg, ClusterPartitioningGame)
            ).run()
        with tracer.span("core.transform.pass3", edges=m) as s4:
            transform = TransformState(
                clustering, game.assignment, num_edges=m, num_vertices=n,
                **config_kwargs(cfg, TransformState),
            )
            parts = [transform.ingest_pair(src, dst) for src, dst in stream.batches(chunk)]
            edge_partition = parts[0] if len(parts) == 1 else np.concatenate(parts)
        assignment = PartitionAssignment(stream, edge_partition, k)
    s1["counts"].update(
        num_clusters=clustering.num_clusters,
        splits=clustering.splits,
        migrations=clustering.migrations,
    )
    s2["counts"].update(nnz=int(graph.indices.size), total_cut=graph.total_cut())
    s3["counts"].update(rounds=game.rounds, moves=game.moves, clusters=graph.num_clusters)
    stats = transform.stats
    s4["counts"].update(
        balance_spill=stats.balance_spill,
        agreement=stats.agreement,
        mirror_reuse=stats.mirror_reuse,
        degree_cut=stats.degree_cut,
    )
    return assignment


class Workload:
    """Base: a fixture path, the size table, and the process's tracer."""

    min_reps = 2  # timed repetitions per round before the time budget may stop it
    ops_per_rep = 1  # operations a repetition attempts (service: one per batch)

    def __init__(self, path: str, sizes: dict, tracer: Tracer) -> None:
        self.path = path
        self.sizes = sizes
        self.tracer = tracer

    def setup(self) -> None:
        self.stream = load_stream(self.path)

    def warm_up(self) -> Rep:
        return self.host()

    def teardown(self) -> None:
        pass

    def check(self, rep: Rep) -> tuple[list[str], dict]:
        """``(problems, quality)`` for one repetition's output."""
        problems, rf, balance, _ = validate.check_assignment(rep.output, capped=True)
        return problems, {"replication_factor": rf, "relative_balance": balance}


class ClugpBatch(Workload):
    """``web_k256`` (file -> stream -> partition) and ``rmat_k32`` (in-memory)."""

    def __init__(self, *args, k: int, read_in_op: bool) -> None:
        super().__init__(*args)
        self.k = k
        self.read_in_op = read_in_op

    def setup(self) -> None:
        if not self.read_in_op:
            super().setup()

    def host(self) -> Rep:
        t0 = now()
        stream = load_stream(self.path) if self.read_in_op else self.stream
        t1 = now()
        assignment = ClugpPartitioner(self.k).partition(stream)
        t2 = now()
        return Rep(
            t2 - t0, validate.crc(assignment.edge_partition), assignment,
            {"partition_s": t2 - t1},
        )

    def traced(self) -> Rep:
        tr = self.tracer
        with tr.span("rep") as root:
            if self.read_in_op:
                with tr.span("graph.io.read", bytes=os.path.getsize(self.path)):
                    graph = read_edges_binary(self.path)
                with tr.span("graph.stream.build"):
                    stream = EdgeStream.from_graph(graph)
            else:
                stream = self.stream
            assignment = staged_partition(tr, stream, self.k)
        return Rep(
            root["end"] - root["start"], validate.crc(assignment.edge_partition), assignment
        )


class Baselines(Workload):
    """``baselines_k32``: hdrf + greedy on a crawl prefix; bypasses ``core/``."""

    names = ("hdrf", "greedy")
    k = 32

    def setup(self) -> None:
        super().setup()
        m = self.sizes["baseline_edges"]
        prefix = EdgeStream(self.stream.src[:m], self.stream.dst[:m], self.stream.num_vertices)
        # the paper runs the one-pass heuristics under their best order, random
        # (EdgePartitioner.preferred_order); crawl order also makes their RF and
        # balance swing several percent from one seed to the next
        self.stream = prefix.reordered("random", seed=self.sizes["seed"])

    def host(self) -> Rep:
        t0 = now()
        outs = [make_partitioner(name, self.k).partition(self.stream) for name in self.names]
        wall = now() - t0
        return Rep(wall, validate.crc(*(a.edge_partition for a in outs)), outs)

    def traced(self) -> Rep:
        tr = self.tracer
        outs = []
        with tr.span("rep") as root:
            for name in self.names:
                with tr.span(f"partitioners.{name}.partition"):
                    outs.append(make_partitioner(name, self.k).partition(self.stream))
        with tr.span("probe"):  # not part of the timed operation
            with tr.span("partitioners.base.quality"):
                for a in outs:
                    a.replication_factor(), a.relative_balance()
        return Rep(
            root["end"] - root["start"], validate.crc(*(a.edge_partition for a in outs)), outs
        )

    def check(self, rep: Rep):
        problems, quality = [], {"replication_factor": 0.0, "relative_balance": 0.0}
        for name, a in zip(self.names, rep.output):
            bad, rf, balance, _ = validate.check_assignment(a, capped=False)
            problems += [f"{name}: {p}" for p in bad]
            quality[f"{name}.replication_factor"] = rf
            # the workload reports the worse of the two comparators
            quality["replication_factor"] = max(quality["replication_factor"], rf)
            quality["relative_balance"] = max(quality["relative_balance"], balance)
        return problems, quality


class ServiceFeed(Workload):
    """``service_feed``: one operation is a whole feed of ``SERVICE_BATCHES``
    ``ingest_pair`` calls; its wall is the sum of the per-batch walls."""

    min_reps = 1
    ops_per_rep = SERVICE_BATCHES

    def setup(self) -> None:
        super().setup()
        self.m = self.sizes["service_edges"]

    def warm_up(self) -> Rep:
        return self._feed(10, traced=False)

    def host(self) -> Rep:
        return self._feed(SERVICE_BATCHES, traced=False)

    def traced(self) -> Rep:
        return self._feed(SERVICE_BATCHES, traced=True)

    def _feed(self, batches: int, traced: bool) -> Rep:
        src, dst, tr = self.stream.src, self.stream.dst, self.tracer
        step = self.m // SERVICE_BATCHES
        service = PartitionService(
            self.stream.num_vertices,
            ClugpConfig(num_partitions=SERVICE_K),
            migration_cap=MIGRATION_CAP,
            expected_edges=self.m,
            quality_every=QUALITY_EVERY,
        )
        walls, bad_batches, problems = [], 0, []
        try:
            for i in range(batches):
                u, v = src[i * step : (i + 1) * step], dst[i * step : (i + 1) * step]
                if traced:
                    with tr.span("service.service.ingest_pair") as s:
                        stats = service.ingest_pair(u, v)
                    walls.append(s["end"] - s["start"])
                    s["counts"].update(
                        batch=i, clusters=stats.clusters,
                        frontier_clusters=stats.frontier_clusters,
                        game_rounds=stats.game_rounds, applied_moves=stats.applied_moves,
                    )
                else:
                    t0 = now()
                    stats = service.ingest_pair(u, v)
                    walls.append(now() - t0)
                bad = validate.check_service_batch(
                    service.loads, service.num_edges, SERVICE_K, stats, MIGRATION_CAP
                )
                bad_batches += bool(bad)
                problems += bad
            assignment = service.assignment()
            history = service.history
            t0 = now()
            oracle = service.oracle_assignment()
            oracle_s = now() - t0
        finally:
            service.close()
        extra = {
            "batch_ms": [w * 1e3 for w in walls],
            "oracle_s": oracle_s,
            "frontier_fraction_mean": float(
                np.mean([h.frontier_clusters / h.clusters for h in history])
            ),
        }
        for key in ("applied_moves", "deferred_moves", "reassigned_edges", "churn_edges"):
            extra[key] = sum(getattr(h, key) for h in history)
        extra["game_rounds_total"] = sum(h.game_rounds for h in history)
        return Rep(
            sum(walls), validate.crc(assignment.edge_partition), (assignment, oracle), extra,
            failed_ops=bad_batches, problems=problems,
        )

    def check(self, rep: Rep):
        problems, quality = [], {}
        for label, assignment in zip(("", "oracle_"), rep.output):
            bad, rf, balance, _ = validate.check_assignment(assignment, capped=True)
            problems += [label + p for p in bad]
            quality.update({f"{label}replication_factor": rf, f"{label}relative_balance": balance})
        return problems, quality


class Distributed(Workload):
    """``distributed_2node``: merged-mode CLUGP on one resident 2-worker runtime."""

    k = 32
    nodes = 2

    def setup(self) -> None:
        # workers are forked: spawned before the stream is loaded, their peak
        # RSS counts what they allocate, not the coordinator's copy of the graph
        with self.tracer.span("distributed.runtime.spawn"):
            self.runtime = PersistentRuntime(self.nodes)
        super().setup()

    def warm_up(self) -> Rep:
        with self.tracer.span("core.distributed.first_call"):
            return self.host()

    def _call(self):
        return distributed_clugp(
            self.stream, self.k, num_nodes=self.nodes, merge_mode="merged",
            backend="persistent", runtime=self.runtime,
        )

    def host(self) -> Rep:
        t0 = now()
        result = self._call()
        wall = now() - t0
        return Rep(wall, validate.crc(result.assignment.edge_partition), result.assignment)

    def traced(self) -> Rep:
        tr = self.tracer
        with tr.span("rep") as root:
            with tr.span("core.distributed.call") as s:
                result = self._call()
        merge = result.merge
        s["counts"].update(
            wire_bytes=merge.total_wire_bytes(),
            unresolved_edges=merge.num_unresolved_edges,
            boundary_vertices=merge.num_boundary_vertices,
            global_clusters=merge.num_global_clusters,
        )
        with tr.span("probe"):  # single-process reference for speedup_vs_single
            with tr.span("core.partitioner.partition"):
                ClugpPartitioner(self.k).partition(self.stream)
        a = result.assignment
        return Rep(root["end"] - root["start"], validate.crc(a.edge_partition), a)

    def teardown(self) -> None:
        runtime = getattr(self, "runtime", None)
        if runtime is not None:
            with self.tracer.span("distributed.runtime.close"):
                runtime.close()


class DeployPagerank(Workload):
    """``deploy_pagerank``: placement + local index + 20 GAS supersteps on a
    CLUGP(32) assignment (partitioning is set-up); bypasses all three passes."""

    k = 32

    def setup(self) -> None:
        super().setup()
        assignment = ClugpPartitioner(self.k).partition(self.stream)
        self.edge_partition = assignment.edge_partition
        self.problems, rf, balance, self.replicas = validate.check_assignment(
            assignment, capped=True
        )
        self.quality = {"replication_factor": rf, "relative_balance": balance}

    def _fresh(self) -> PartitionAssignment:
        """An assignment without the layout caches earlier repetitions filled."""
        return PartitionAssignment(self.stream, self.edge_partition, self.k)

    def host(self) -> Rep:
        assignment = self._fresh()
        t0 = now()
        engine = make_engine(assignment, mode="local")
        values, cost = pagerank(engine, max_supersteps=SUPERSTEPS)
        wall = now() - t0
        return Rep(wall, validate.crc(np.round(values, 12)), (values, cost))

    def traced(self) -> Rep:
        tr = self.tracer
        assignment = self._fresh()
        with tr.span("rep") as root:
            with tr.span("system.runtime.init"):
                engine = make_engine(assignment, mode="local")
            with tr.span("system.runtime.run") as s:
                values, cost = pagerank(engine, max_supersteps=SUPERSTEPS)
        s["counts"].update(
            supersteps=cost.num_supersteps, messages=cost.total_messages,
            bytes=cost.total_bytes, mirrors=engine.placement.total_mirrors,
        )
        assignment = self._fresh()
        with tr.span("probe"):  # the two halves of system.runtime.init, on their own
            with tr.span("system.placement.build_placement"):
                placement = build_placement(assignment)
            with tr.span("system.placement.build_local_index"):
                build_local_index(assignment, placement)
        return Rep(
            root["end"] - root["start"], validate.crc(np.round(values, 12)), (values, cost)
        )

    def check(self, rep: Rep):
        values, cost = rep.output
        bad = validate.check_pagerank(values, cost, self.replicas, SUPERSTEPS)
        return self.problems + bad, dict(self.quality)


WORKLOADS = {
    "web_k256": lambda *a: ClugpBatch(*a, k=256, read_in_op=True),
    "rmat_k32": lambda *a: ClugpBatch(*a, k=32, read_in_op=False),
    "baselines_k32": Baselines,
    "service_feed": ServiceFeed,
    "distributed_2node": Distributed,
    "deploy_pagerank": DeployPagerank,
}


def run_round(spec: dict) -> dict:
    """Set up, repeat the timed operation for ``spec['seconds']``, validate."""
    tracer = Tracer(spec["workload"])
    workload = WORKLOADS[spec["workload"]](spec["fixture"], spec["sizes"], tracer)
    reps = {"host": [], "traced": []}
    seen = set()

    def attempt(kind: str, fn) -> None:
        try:
            rep = fn()
        except Exception:  # a failed operation must not stop the other repetitions
            traceback.print_exc()
            rep = None
        else:
            if rep.digest in seen:
                rep.output = None  # validated through the first rep with this digest
            seen.add(rep.digest)
        reps[kind].append(rep)

    try:
        with tracer.span("setup"):
            with tracer.span("kernels.warmup"):
                backend = kernels.warmup()
            workload.setup()
            # the warm-up's output is the one kept for validation: every timed
            # repetition that reproduces it drops its own at once, so host and
            # traced calls run against the same heap
            warm = workload.warm_up()
            seen.add(warm.digest)
        setup_s = time.monotonic() - spec["t0"]
        start = now()
        while True:
            tracer.rep = len(reps["host"])
            attempt("host", workload.host)
            if spec["trace"]:
                attempt("traced", workload.traced)
            elapsed = now() - start
            done = len(reps["host"])
            enough = done >= (spec["min_reps"] or workload.min_reps)
            if enough and elapsed + elapsed / done > spec["seconds"]:  # no room for one more
                break
        rss_mb = peak_rss_mb()  # before validation, whose temporaries are not the program's
    finally:
        tracer.rep = "teardown"
        workload.teardown()
    children_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    # digest -> (problems, quality), from the one rep per digest that kept its output
    verdicts = {
        rep.digest: workload.check(rep)
        for rep in [warm, *reps["host"], *reps["traced"]]
        if rep is not None and rep.output is not None
    }
    out = {"host": [], "traced": []}
    for kind, rows in reps.items():
        for rep in rows:
            if rep is None:
                out[kind].append(None)
                continue
            problems = rep.problems + verdicts[rep.digest][0]
            out[kind].append({
                "wall": rep.wall, "digest": rep.digest,
                "failed_ops": rep.failed_ops or int(bool(problems)),
                "problems": problems[:5], "quality": verdicts[rep.digest][1],
                "extra": rep.extra,
            })
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "children_peak_rss_mb": children_rss_mb,
        "backend": backend,
        "numpy": np.__version__,
        "ops_per_rep": workload.ops_per_rep,
        "reps": out,
        "spans": tracer.spans,
    }


if __name__ == "__main__":
    if sys.argv[1] == "--build":  # compile the kernels into the cache, nothing else
        kernels.warmup()
        sys.exit(0)
    with open(sys.argv[1]) as f:
        round_spec = json.load(f)
    result = run_round(round_spec)
    with open(round_spec["result"], "w") as f:
        json.dump(result, f)
