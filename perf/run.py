#!/usr/bin/env python3
"""The repo's benchmark: one edge's whole journey, end to end and layer by layer.

    python3 perf/run.py [--workload W] [--trace 0|1] [--seed N] [--seconds S]
                        [--out DIR] [--smoke]
        every selected workload (default: all six) in every selected mode
        (default: tracing off for the end-to-end metrics, then traced for the
        per-layer ledger).  Each run prints every metric by name with its
        unit and then, on one line, the JSON object the benchmark contract
        asks for; DIR/result.json and DIR/trace.jsonl hold all of them.
        ``--only W`` and ``--no-trace`` are other spellings of
        ``--workload W`` and ``--trace 0``.

    python3 perf/run.py --compare A.json B.json
        noise-aware diff of two result files; exits 1 on any regression.

See perf/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median, quantiles

import compare
import metrics
import spans

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

ROUNDS = 3  # fresh processes per run; set-up, wall and RSS samples pool over them
RUN_TIMEOUT_S = 165  # the contract gives one run 180 s, however the program behaves
GRACE_S = 5  # for a process told to stop at that limit, before it is killed

# Sized so a run (ROUNDS x (set-up + seconds/ROUNDS of repetitions)) stays near
# 16 s on 2 cores; "smoke" is the same code at ~1/50 size.
SIZES = {
    "full": {"crawl_pages": 84_000, "rmat_scale": 16,
             "baseline_edges": 150_000, "service_edges": 240_000},
    "smoke": {"crawl_pages": 1_680, "rmat_scale": 10,
              "baseline_edges": 3_000, "service_edges": 4_800},
}
# the generator (perf/fixtures.py) and size each workload's graph comes from
FIXTURES = {"rmat_k32": ("rmat", "rmat_scale")}
CRAWL = ("crawl", "crawl_pages")


def run_process(script: str, argv: list[str], tmpdir: str, deadline: float) -> str | None:
    """Run a script of this directory, with the program importable, in a fresh
    process group, to its end or to ``deadline``; leave none of the group
    running.  ``None`` = exit code 0, else why not."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        TMPDIR=tmpdir,
    )
    proc = subprocess.Popen(
        [sys.executable, os.path.join(PERF, script), *argv],
        env=env, cwd=ROOT, start_new_session=True, stdout=sys.stderr,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # an interrupt first: its ``finally`` blocks release what would outlive
        # it (the runtime's shared-memory segments)
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=GRACE_S)
        except subprocess.TimeoutExpired:
            pass
        return f"{script} still running at the run's {RUN_TIMEOUT_S} s limit"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the script and any worker it left
        except ProcessLookupError:
            pass
        proc.wait()
    return None if code == 0 else f"{script} exited with code {code}"


def run_round(spec: dict, scratch: str, deadline: float) -> dict:
    """One fresh-process round: the fixture in a process of its own (so its
    temporaries count toward nobody's memory), then the workload.  A process
    that dies, hangs or raises outside a repetition gives ``{"crashed": why}``;
    the traceback is on stderr."""
    if time.monotonic() >= deadline:
        return {"crashed": f"not started: the run's {RUN_TIMEOUT_S} s were up"}
    spec = {**spec, "t0": time.monotonic(),  # set-up starts with fixture generation
            "result": os.path.join(scratch, "round.json")}
    kind, size = FIXTURES.get(spec["workload"], CRAWL)
    why = run_process("fixtures.py", [kind, str(spec["sizes"][size]),
                                      str(spec["sizes"]["seed"]), spec["fixture"]], scratch, deadline)
    if why is None:
        spec_path = os.path.join(scratch, "spec.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        why = run_process("workloads.py", [spec_path], scratch, deadline)
    if why is not None:
        return {"crashed": why}
    with open(spec["result"]) as f:
        return json.load(f)


def spread(samples: list[float]) -> dict:
    """Median, quartiles, range and count of a metric's samples (all 0 when
    every operation failed and left none).  Quartiles interpolate inside the
    sample (numpy's default): of a per-round metric's 3 samples the exclusive
    method would return the minimum and the maximum."""
    if not samples:
        return dict.fromkeys(("value", "p25", "p75", "min", "max", "n"), 0)
    q = quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else [samples[0]] * 3
    return {"value": median(samples), "p25": q[0], "p75": q[2],
            "min": min(samples), "max": max(samples), "n": len(samples)}


def run_workload(name: str, manifest: dict, *, seed: int, seconds: float, trace: bool,
                 smoke: bool, out: str) -> dict:
    """All rounds of one workload in one mode; returns its report."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    scratch = tempfile.mkdtemp(prefix="run-", dir=out)
    spec = {
        "workload": name, "fixture": os.path.join(scratch, "fixture.clugped1"),
        "sizes": {**SIZES["smoke" if smoke else "full"], "seed": seed},
        "trace": trace, "seconds": 0 if smoke else seconds / ROUNDS,
        # a traced round needs one host/traced pair; smoke's single round
        # takes three so its ratios are medians
        "min_reps": 3 if smoke else 1 if trace else None,
    }
    rounds, trace_spans = [], []
    try:
        for index in range(1 if smoke else ROUNDS):
            result = run_round(spec, scratch, deadline)
            for span in result.pop("spans", ()):
                span["round"] = index  # span ids are per process, i.e. per round
                trace_spans.append(span)
            rounds.append(result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    first = next((r for r in rounds if "crashed" not in r), {})
    report = {"workload": name, "trace": trace, "kernel_backend": first.get("backend"),
              "numpy": first.get("numpy"), **metrics.outcome(rounds, trace)}
    if trace:
        value = metrics.per_layer(rounds, trace_spans, report["determinism_mismatch"])
        report["metrics"] = {m["name"]: {"value": value[m["name"]], "unit": m["unit"]}
                             for m in manifest["per_layer"]}
        report["spans"] = trace_spans
        report["harness_problems"] = harness_problems(report)
    else:
        unit = {**{m["name"]: m["unit"] for m in manifest["end_to_end"]},
                **metrics.SERVICE_END_TO_END}
        report["metrics"] = {
            metric: {**spread(samples), "unit": unit[metric], "samples": samples}
            for metric, samples in metrics.end_to_end(rounds).items()}
        report["harness_problems"] = []
    return report


def harness_problems(report: dict) -> list[str]:
    """The benchmark's checks on its own trace (not on the program's outputs)."""
    problems = []
    for index in sorted({s["round"] for s in report["spans"]}):
        problems += spans.nesting_problems(
            [s for s in report["spans"] if s["round"] == index])
    ratio = report["metrics"]["core.partitioner.layers_sum_ratio"]["value"]
    if ratio and not 0.9 <= ratio <= 1.1:  # 0 = the workload has no staged replay
        problems.append(f"layers_sum_ratio {ratio:.3f} outside [0.9, 1.1]")
    return problems


def print_report(report: dict, manifest: dict, smoke: bool) -> None:
    """Every metric by name with its unit, what went wrong, then the contract's
    result line: the manifest's metrics of this mode and nothing else."""
    name, trace = report["workload"], report["trace"]
    print(f"== {name}: {'per layer (traced)' if trace else 'end to end (tracing off)'}, "
          f"kernel backend {report['kernel_backend']}")
    for metric, m in report["metrics"].items():
        value = m["value"]
        line = f"{metric:44s} {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}"
        if m.get("n", 0) > 1:
            line += (f"   (p25 {m['p25']:.4g}, p75 {m['p75']:.4g}, "
                     f"min {m['min']:.4g}, max {m['max']:.4g}, n={m['n']})")
        print(line)
    for problem in report["problems"]:
        print(f"  ! invalid: {problem}")
    for problem in report["harness_problems"]:
        print(f"  ! harness: {problem}")
    overhead = report["metrics"].get("perf.trace_overhead_pct", {"value": 0})["value"]
    if overhead > 5 and not smoke:  # a timing: worth a look, not a verdict from one run
        print(f"  ! trace overhead {overhead:.1f} % > 5 %")
    listed = manifest["per_layer" if trace else "end_to_end"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]]["value"], "unit": m["unit"]}
                    for m in listed},
    }), flush=True)


def environment(seed: int) -> dict:
    def first_line(cmd: list[str]) -> str:
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "seed": seed,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "load_average_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        # the workload processes report these two; this one never imports the program
        "numpy": None,
        "kernel_backend": None,
        "c_compiler": first_line([os.environ.get("CC", "cc"), "--version"]),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run(args, manifest: dict) -> int:
    """The selected workloads in the selected modes; one result file; exit status."""
    result = {"schema": 2, "smoke": args.smoke, "environment": environment(args.seed),
              "workloads": {}}
    trace_spans = []
    # the build: compile the C kernels into the cache now, so no set-up pays for
    # it.  Should it fail, the first round fails the same way and is counted.
    run_process("workloads.py", ["--build"], args.out, time.monotonic() + 900)
    for spec in manifest["workloads"]:
        name = spec["name"]
        if args.workload not in (None, name):
            continue
        if name == "distributed_2node" and (os.cpu_count() or 1) < 2 and not args.workload:
            result["workloads"][name] = {"status": "skipped", "why": "needs nproc >= 2"}
            print(f"== {name}: skipped (needs nproc >= 2)")
            continue
        entry = {"status": "ok", "attempted_ops": 0, "failed_ops": 0,
                 "determinism_mismatch": 0, "problems": [], "harness_problems": []}
        for trace in (False, True) if args.trace is None else (bool(args.trace),):
            report = run_workload(name, manifest, seed=args.seed, seconds=args.seconds,
                                  trace=trace, smoke=args.smoke, out=args.out)
            print_report(report, manifest, args.smoke)
            entry["attempted_ops"] += report["attempted"]
            entry["failed_ops"] += report["failed"]
            entry["determinism_mismatch"] += report["determinism_mismatch"]
            entry["problems"] += report["problems"]
            entry["harness_problems"] += report["harness_problems"]
            entry["per_layer" if trace else "end_to_end"] = report["metrics"]
            trace_spans += report.get("spans", ())
            result["environment"].update(
                {key: report[key] for key in ("numpy", "kernel_backend") if report[key]})
        if entry["failed_ops"] or entry["determinism_mismatch"] or entry["harness_problems"]:
            entry["status"] = "failed"
        result["workloads"][name] = entry
    with open(os.path.join(args.out, "result.json"), "w") as f:
        json.dump(result, f, indent=1)
    if trace_spans:
        spans.write_jsonl(os.path.join(args.out, "trace.jsonl"), trace_spans)
    statuses = {name: w["status"] for name, w in result["workloads"].items()}
    print(f"{statuses}; wrote {os.path.join(args.out, 'result.json')}", file=sys.stderr)
    return 1 if "failed" in statuses.values() else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--only", help="run this one workload (default: all)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: tracing off, end-to-end metrics; 1: traced, per-layer "
                        "metrics (default: one run of each)")
    parser.add_argument("--no-trace", dest="trace", action="store_const", const=0,
                        help="same as --trace 0")
    parser.add_argument("--seconds", type=float, help="measured seconds per run "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default=os.path.join(PERF, "out"))
    parser.add_argument("--smoke", action="store_true",
                        help="same code paths at ~1/50 size; no timing verdicts")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()

    if args.compare:
        return compare.main(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf/run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    with open(MANIFEST) as f:
        manifest = json.load(f)
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds is None:
        args.seconds = manifest["run_seconds"]
    args.out = os.path.abspath(args.out)
    os.makedirs(args.out, exist_ok=True)
    # the compiled-kernel cache is a build output: keep it inside the checkout
    os.environ["CLUGP_KERNEL_CACHE"] = os.path.join(args.out, "kernel_cache")
    return run(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
