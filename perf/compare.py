"""Noise-aware diff of two ``result.json`` files (``run.py --compare A B``).

For two runs of the **same seed on the same machine**: there the quality
metrics are exact, so they get ISSUE 11's tight bounds below.  (The
bounds in ``BENCHMARK.json`` are the driver's: it compares runs of
*different* seeds, so they must cover the seed-to-seed swing of RF.)

Per (end-to-end metric, workload) the verdict is

``regressed``   B's median is worse than A's by more than the metric's bound;
``improved``    it is better by more than the bound;
``unresolved``  the recorded run-to-run spread (the wider interquartile range
                of the two) exceeds the bound, so the files cannot tell --
                unless every sample of B reads better than every sample of
                A, which is ``improved``;
``ok``          otherwise.

A workload that failed operations or determinism in B is ``regressed``
(``failed_ops`` and ``determinism_mismatch`` have bound 0).  Every metric
here is better when lower.
"""

from __future__ import annotations

import json

# share of A's median by which B's may be worse
BOUNDS = {
    "setup_s": 0.15,
    "wall_s": 0.10,
    "replication_factor": 0.01,
    "relative_balance": 0.001,
    "peak_rss_mb": 0.10,
    "batch_latency_p50_ms": 0.15,
    "batch_latency_p95_ms": 0.15,
}
# in the metric's own unit: drift is a percentage that may sit near 0
ABSOLUTE_BOUNDS = {"rf_drift_pct": 1.0}


def verdict(a: dict, b: dict, bound: float, base: float) -> tuple[str, float, float]:
    """``(verdict, change of the median, spread)``, both as shares of ``base``."""
    worse_by = (b["value"] - a["value"]) / base
    noise = max(a["p75"] - a["p25"], b["p75"] - b["p25"]) / base
    if noise > bound:
        return ("improved" if b["max"] < a["min"] else "unresolved"), worse_by, noise
    if worse_by > bound:
        return "regressed", worse_by, noise
    if worse_by < -bound:
        return "improved", worse_by, noise
    return "ok", worse_by, noise


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for key in ("git_commit", "cpu_model", "nproc", "kernel_backend", "seed"):
        ea, eb = a["environment"].get(key), b["environment"].get(key)
        note = "" if ea == eb else "   <- differs"
        print(f"{key:16s} A={ea}  B={eb}{note}")
    tally = {"ok": 0, "improved": 0, "regressed": 0, "unresolved": 0}
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name, {"status": "missing"})
        if wb.get("failed_ops") or wb.get("determinism_mismatch"):
            print(f"{name:18s} {'outputs':20s} regressed   failed_ops={wb['failed_ops']} "
                  f"determinism_mismatch={wb['determinism_mismatch']}")
            tally["regressed"] += 1
        if "end_to_end" not in wa or "end_to_end" not in wb:
            print(f"{name}: not comparable (A {wa['status']}, B {wb['status']})")
            continue
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"].get(metric)
            if mb is None or not (ma["n"] and mb["n"]):  # every operation failed
                print(f"{name:18s} {metric:20s} no samples to compare")
                continue
            if metric in ABSOLUTE_BOUNDS:
                bound, base, scale, suffix = ABSOLUTE_BOUNDS[metric], 1.0, 1.0, f" {ma['unit']}"
            else:
                bound, base, scale, suffix = BOUNDS[metric], abs(ma["value"]) or 1.0, 100.0, "%"
            v, change, noise = verdict(ma, mb, bound, base)
            tally[v] += 1
            print(f"{name:18s} {metric:20s} {v:11s} A={ma['value']:.6g} B={mb['value']:.6g} "
                  f"{ma['unit']}  worse by {scale * change:+.2f}{suffix} "
                  f"(bound {scale * bound:g}{suffix}, spread {scale * noise:.2f}{suffix})")
    print("  ".join(f"{k}={n}" for k, n in tally.items()))
    return 1 if tally["regressed"] else 0
