"""How each metric is computed from a workload's rounds.

Names, units and directions of the contract's metrics live in
``BENCHMARK.json`` alone; this file computes a value for each name.  Every
metric is reported for every workload; a layer the workload bypasses did
no work there and reads 0.
"""

from __future__ import annotations

from statistics import median, quantiles

from spans import durations

# end-to-end metrics only ``service_feed`` has: the suite reports them and
# ``--compare`` judges them; the contract's result line cannot carry them
# (it wants every end-to-end metric from every workload, never 0)
SERVICE_END_TO_END = {
    "batch_latency_p50_ms": "ms",
    "batch_latency_p95_ms": "ms",
    "rf_drift_pct": "%",
}

# metric "<span>_s" = median duration of the spans called "<span>"
SPAN_SECONDS = [
    "graph.io.read",
    "graph.stream.build",
    "core.clustering.pass1",
    "core.cluster_graph.build",
    "core.game.run",
    "core.transform.pass3",
    "partitioners.hdrf.partition",
    "partitioners.greedy.partition",
    "partitioners.base.quality",
    "kernels.warmup",
    "distributed.runtime.spawn",
    "distributed.runtime.close",
    "core.distributed.first_call",
    "core.distributed.call",
    "system.placement.build_placement",
    "system.placement.build_local_index",
    "system.runtime.run",
]

# metric "<layer>.<key>" = counts[key] of the first span called <span>
SPAN_COUNTS = {
    "core.clustering.pass1": ("core.clustering", ["num_clusters", "splits", "migrations"]),
    "core.cluster_graph.build": ("core.cluster_graph", ["nnz", "total_cut"]),
    "core.game.run": ("core.game", ["rounds", "moves"]),
    "core.transform.pass3": ("core.transform", [
        "balance_spill", "agreement", "mirror_reuse", "degree_cut"]),
    "core.distributed.call": ("core.distributed", [
        "wire_bytes", "unresolved_edges", "boundary_vertices", "global_clusters"]),
    "system.runtime.run": ("system.runtime", ["messages", "bytes"]),
}

SERVICE_COUNTS = [
    "applied_moves", "deferred_moves", "reassigned_edges", "churn_edges", "game_rounds_total",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(samples) -> float:
    samples = list(samples)
    return median(samples) if samples else 0.0  # no sample: every operation failed


def _live(rounds: list[dict]) -> list[dict]:
    """The rounds whose process reported (``run.run_round`` marks the others)."""
    return [r for r in rounds if "crashed" not in r]


def _ok(rounds: list[dict], kind: str) -> list[dict]:
    return [rep for r in _live(rounds) for rep in r["reps"][kind] if rep is not None]


def outcome(rounds: list[dict], trace: bool) -> dict:
    """Attempted / failed operations and determinism mismatches over all rounds.

    A round whose process died, hung or raised outside a repetition counts
    as one operation attempted and failed: what it would have run is unknown.
    """
    kinds = ("host", "traced") if trace else ("host",)
    attempted = failed = 0
    digests, problems = [], []
    for index, r in enumerate(rounds):
        if "crashed" in r:
            attempted += 1
            failed += 1
            problems.append(f"round {index}: {r['crashed']}")
            continue
        for kind in kinds:
            for rep in r["reps"][kind]:
                attempted += r["ops_per_rep"]
                failed += r["ops_per_rep"] if rep is None else rep["failed_ops"]
                if rep is not None:
                    digests.append(rep["digest"])
                    problems += rep["problems"]
    mismatch = sum(d != digests[0] for d in digests)
    return {
        "attempted": attempted,
        "failed": failed,
        "determinism_mismatch": mismatch,
        "correct": failed == 0 and mismatch == 0,
        "problems": problems[:10],
    }


def service_latency(host: list[dict]) -> dict:
    """Samples of the ``service_feed`` end-to-end metrics, one per feed.

    Each feed gives 200 batch walls: their median, and their p95 (ten
    samples lie beyond it).  Drift is exact for a seed, so one sample.
    """
    feeds = [rep["extra"]["batch_ms"] for rep in host if "batch_ms" in rep["extra"]]
    if not feeds:
        return {}
    quality = host[0]["quality"]
    return {
        "batch_latency_p50_ms": [median(ms) for ms in feeds],
        "batch_latency_p95_ms": [quantiles(ms, n=20, method="inclusive")[18] for ms in feeds],
        "rf_drift_pct": [100 * (
            _ratio(quality["replication_factor"], quality["oracle_replication_factor"]) - 1)],
    }


def end_to_end(rounds: list[dict]) -> dict:
    """Samples of each end-to-end metric (repetitions, or rounds); the
    reported value is their median."""
    host = _ok(rounds, "host")
    # quality is exact for a seed: one sample, from the first repetition
    return {
        "setup_s": [r["setup_s"] for r in _live(rounds)],
        "wall_s": [rep["wall"] for rep in host],
        "replication_factor": [rep["quality"]["replication_factor"] for rep in host[:1]],
        "relative_balance": [rep["quality"]["relative_balance"] for rep in host[:1]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in _live(rounds)],
        **service_latency(host),
    }


def per_layer(rounds: list[dict], spans: list[dict], mismatch: int) -> dict:
    """The value of every per-layer metric from a traced run's spans and repetitions."""
    host = _ok(rounds, "host")

    def seconds(span: str) -> float:
        return _median(durations(spans, span))

    def counts(span: str) -> dict:
        return next((s["counts"] for s in spans if s["name"] == span), {})

    value = {f"{span}_s": seconds(span) for span in SPAN_SECONDS}
    for span, (layer, keys) in SPAN_COUNTS.items():
        for key in keys:
            value[f"{layer}.{key}"] = counts(span).get(key, 0)

    pass1, game, pass3 = (
        counts(f"core.{s}") for s in ("clustering.pass1", "game.run", "transform.pass3"))
    value["graph.io.read_mb_per_s"] = _ratio(
        counts("graph.io.read").get("bytes", 0) / 1e6, value["graph.io.read_s"])
    value["core.clustering.edges_per_s"] = _ratio(
        pass1.get("edges", 0), value["core.clustering.pass1_s"])
    value["core.game.useful_move_ratio"] = _ratio(
        game.get("moves", 0), game.get("rounds", 0) * game.get("clusters", 0))
    value["core.transform.spill_ratio"] = _ratio(
        pass3.get("balance_spill", 0), pass3.get("edges", 0))
    # the untraced host call's partition() wall where the workload has one,
    # else the single-process reference span of distributed_2node
    partition = [rep["extra"]["partition_s"] for rep in host if "partition_s" in rep["extra"]]
    value["core.partitioner.partition_s"] = (
        median(partition) if partition else seconds("core.partitioner.partition"))
    layers = sum(value[f"core.{s}_s"] for s in (
        "clustering.pass1", "cluster_graph.build", "game.run", "transform.pass3"))
    value["core.partitioner.layers_sum_ratio"] = (
        _ratio(layers, value["core.partitioner.partition_s"]) if partition else 0.0)

    quality = host[0]["quality"] if host else {}
    for name in ("hdrf", "greedy"):
        value[f"partitioners.{name}.replication_factor"] = quality.get(
            f"{name}.replication_factor", 0.0)

    latency = service_latency(host)
    for name in SERVICE_END_TO_END:
        value[f"service.{name}"] = _median(latency.get(name, ()))
    feeds = [rep["extra"] for rep in host if "batch_ms" in rep["extra"]]
    first20 = _median(sum(f["batch_ms"][:20]) / 20 for f in feeds)
    last20 = _median(sum(f["batch_ms"][-20:]) / 20 for f in feeds)
    value["service.first20_mean_ms"] = first20
    value["service.last20_mean_ms"] = last20
    value["service.latency_growth"] = _ratio(last20, first20)
    value["service.cost_vs_oracle"] = _ratio(
        _median(rep["wall"] for rep in host if "batch_ms" in rep["extra"]),
        _median(f["oracle_s"] for f in feeds))
    value["service.frontier_fraction_mean"] = feeds[0]["frontier_fraction_mean"] if feeds else 0.0
    for key in SERVICE_COUNTS:
        value[f"service.{key}"] = feeds[0][key] if feeds else 0

    value["core.distributed.speedup_vs_single"] = _ratio(
        seconds("core.partitioner.partition"), value["core.distributed.call_s"])
    value["distributed.children_peak_rss_mb"] = (
        _median(r["children_peak_rss_mb"] for r in _live(rounds))
        if value["core.distributed.call_s"] else 0.0)
    run = counts("system.runtime.run")
    value["system.placement.mirrors"] = run.get("mirrors", 0)
    value["system.runtime.superstep_ms"] = _ratio(
        1e3 * value["system.runtime.run_s"], run.get("supersteps", 0))
    # each traced repetition against the host call run just before it, so drift
    # in machine speed between rounds cancels
    pairs = [(h, t) for r in _live(rounds)
             for h, t in zip(r["reps"]["host"], r["reps"]["traced"])
             if h is not None and t is not None]
    value["perf.trace_overhead_pct"] = (
        100 * (median(t["wall"] / h["wall"] for h, t in pairs) - 1) if pairs else 0.0)
    value["perf.determinism_mismatch"] = mismatch
    return value
