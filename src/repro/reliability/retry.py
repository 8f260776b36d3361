"""Retrying task execution with per-task deadlines and result validation.

:func:`run_reliable` is the fault-tolerant stage loop of the ``thread``
backend in :mod:`repro.core.distributed`.  It maps a worker over a task
list on a thread pool (or inline) and survives the ways a shard task
fails in-process:

* **raise** — the worker raises (an injected crash degrades to
  :class:`~repro.reliability.faults.InjectedCrash` here: a thread cannot
  die without taking the host with it).  The task is resubmitted.
* **hang** — the worker never returns.  Each attempt runs under
  ``task_timeout`` seconds; tasks still pending at the deadline are
  declared timed out, the pool is abandoned without waiting on them,
  and the stragglers are resubmitted to a fresh pool.
* **corruption** — the worker returns, but the payload fails the
  caller's ``validate`` hook (schema or checksum mismatch).  The result
  is quarantined and the shard re-run, exactly like a failure.

Real process deaths (``os._exit``, a segfault in native code) are the
resident pool's job: :meth:`~repro.distributed.runtime.PersistentRuntime.
run_stage` applies the same policy, counters and :class:`ShardTaskError`
to worker processes, respawning a dead one and replaying its stages.

Retries back off exponentially (``backoff_base * backoff_factor**n``,
capped) and are counted in :class:`RetryStats` so the reliability cost
is measurable (`StageTimes.counters` in the distributed driver).  When a
task keeps failing past ``max_retries`` the run raises
:class:`ShardTaskError` chained from the last underlying exception — a
clear, single error naming the stage, the task, and every failure
reason.

Determinism: workers are pure functions of their task payload, so
re-running a shard after any fault reproduces the exact bytes the
fault-free run produces — retries never change the final merged result
(the chaos gate of ``tests/test_reliability_retry.py``).
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from .faults import FaultInjector

__all__ = [
    "RetryPolicy",
    "RetryStats",
    "ShardTaskError",
    "TaskFailure",
    "run_reliable",
]


class ShardTaskError(RuntimeError):
    """A stage task failed on every allowed attempt.

    Raised chained (``from``) the last underlying exception so the
    original traceback — the injected crash, the worker's exception, a
    dead worker's EOF — stays attached.
    """


@dataclass(frozen=True)
class TaskFailure:
    """One failed attempt of one task: who, why, and the exception."""

    index: int
    reason: str  # "crash" | "timeout" | "raise" | "invalid"
    attempt: int
    error: BaseException | None = None

    def describe(self) -> str:
        """Short human-readable form used in logs and raised messages."""
        detail = f": {self.error}" if self.error is not None else ""
        return f"task {self.index} {self.reason} (attempt {self.attempt}){detail}"


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the retry loop.

    Attributes
    ----------
    max_retries:
        Additional attempts after the first (0 disables retrying — any
        failure raises immediately, the pre-PR-8 behavior but with a
        clear chained error).
    task_timeout:
        Per-attempt deadline in seconds for each task (``None`` = wait
        forever).  All tasks of an attempt start together on a pool
        sized to the attempt, so each task gets the full window.
    backoff_base, backoff_factor, backoff_max:
        Sleep ``min(base * factor**(attempt-1), max)`` seconds before
        attempt ``attempt`` — gives a transiently sick machine (page
        cache storm, OOM-killer sweep) time to recover.
    """

    max_retries: int = 2
    task_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        """Validate operator-supplied knobs eagerly."""
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive or None, got {self.task_timeout}"
            )

    def backoff(self, attempt: int) -> float:
        """Sleep before the given (1-based) retry attempt."""
        if attempt <= 0:
            return 0.0
        return min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )


@dataclass
class RetryStats:
    """Counters the retry loop accumulates for one stage run."""

    attempts: int = 0  # task executions started (successes + failures)
    retries: int = 0  # task executions past attempt 0
    crashes: int = 0
    timeouts: int = 0
    raises: int = 0
    invalid: int = 0
    backoff_seconds: float = 0.0
    failures: list[TaskFailure] = field(default_factory=list)

    def record(self, failure: TaskFailure) -> None:
        """Count one failed attempt under its reason."""
        self.failures.append(failure)
        if failure.reason == "crash":
            self.crashes += 1
        elif failure.reason == "timeout":
            self.timeouts += 1
        elif failure.reason == "invalid":
            self.invalid += 1
        else:
            self.raises += 1

    def to_counters(self) -> dict[str, int]:
        """Flat integer view for ``StageTimes.counters`` / bench JSON."""
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "raises": self.raises,
            "invalid": self.invalid,
        }

    def report(self, stage: str, times) -> None:
        """Land this stage's failure counters in a ``StageTimes`` under
        the names every backend uses (``<stage>_retries`` ... plus the
        run-wide ``retries``)."""
        if times is None:
            return
        counters = self.to_counters()
        for name in ("retries", "crashes", "timeouts", "raises", "invalid"):
            times.bump(f"{stage}_{name}", counters[name])
        times.bump("retries", counters["retries"])


def _reliable_call(worker, task, stage, node, num_nodes, attempt, inject):
    """One task attempt: entry faults, the real worker, result faults.

    Payload-corruption faults hit the result after the worker computed
    its checksum — modelling wire corruption on the way back.
    """
    if inject is not None:
        inject.pre_task(stage, node, num_nodes, attempt, in_process=False)
    result = worker(task)
    if inject is not None:
        result = inject.post_task(stage, node, num_nodes, attempt, result)
    return result


def _serial_attempt(indices, tasks, worker, stage, num_tasks, attempt, inject,
                    results, stats):
    """One attempt over ``indices`` executed inline (no pool, no deadline)."""
    failures: list[TaskFailure] = []
    for i in indices:
        stats.attempts += 1
        if attempt:
            stats.retries += 1
        try:
            results[i] = _reliable_call(
                worker, tasks[i], stage, i, num_tasks, attempt, inject
            )
        except Exception as exc:
            failures.append(TaskFailure(i, "raise", attempt, exc))
    return failures


def _pooled_attempt(indices, tasks, worker, stage, num_tasks, attempt, inject,
                    timeout, results, stats):
    """One attempt over ``indices`` on a fresh thread pool with a deadline.

    A fresh pool per attempt is deliberate: after a hang its threads are
    occupied.  The pool is sized to the attempt so every task starts
    immediately and the deadline is a true per-task window.  A
    timed-out pool is shut down without waiting (a hung thread never
    returns in time); its stragglers finish or sleep on in the
    background, writing nowhere the retry reads.
    """
    failures: list[TaskFailure] = []
    pool = ThreadPoolExecutor(max_workers=len(indices))
    timed_out = False
    try:
        stats.attempts += len(indices)
        if attempt:
            stats.retries += len(indices)
        future_of = {
            pool.submit(
                _reliable_call, worker, tasks[i], stage, i, num_tasks, attempt, inject
            ): i
            for i in indices
        }
        pending = set(future_of)
        deadline = None if timeout is None else time.monotonic() + timeout
        while pending:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                for fut in pending:
                    failures.append(TaskFailure(future_of[fut], "timeout", attempt))
                timed_out = True
                break
            done, pending = wait(pending, timeout=remaining,
                                 return_when=FIRST_EXCEPTION)
            for fut in done:
                i = future_of[fut]
                exc = fut.exception()
                if exc is None:
                    results[i] = fut.result()
                else:
                    failures.append(TaskFailure(i, "raise", attempt, exc))
    finally:
        pool.shutdown(wait=not timed_out, cancel_futures=timed_out)
    return failures


def run_reliable(
    tasks,
    worker,
    policy: RetryPolicy | None = None,
    parallel: bool = True,
    stage: str = "stage",
    validate=None,
    inject: FaultInjector | None = None,
    stats: RetryStats | None = None,
):
    """Map ``worker`` over ``tasks`` with retries, deadlines, validation.

    Parameters
    ----------
    tasks:
        Task payloads; task ``i``'s node id for fault-injection victim
        selection is its index.
    worker:
        Function of one task.
    policy:
        :class:`RetryPolicy` (default: 2 retries, no deadline).
    parallel:
        Thread-pool execution, or inline when false or there is a single
        task.  Deadlines require a pool (inline execution cannot
        preempt); the inline path still retries raises and validation
        failures.
    validate:
        Optional hook ``validate(result, index) -> str | None`` run on
        the coordinator after each task completes; a non-None string
        quarantines the result (reason ``"invalid"``) and re-runs that
        task.
    inject:
        Optional :class:`FaultInjector` for deterministic chaos runs.
    stats:
        Optional :class:`RetryStats` to accumulate into (a fresh one is
        created otherwise; inspect via the returned list's driver).

    Returns the results in task order.  Raises :class:`ShardTaskError`
    when any task exhausts its attempts.
    """
    policy = policy or RetryPolicy()
    stats = stats if stats is not None else RetryStats()
    num_tasks = len(tasks)
    results: list = [None] * num_tasks
    pending = list(range(num_tasks))
    pooled = parallel and num_tasks > 1
    attempt = 0
    last_error: BaseException | None = None
    while pending:
        if attempt > policy.max_retries:
            recent = stats.failures[-len(pending):]
            raise ShardTaskError(
                f"stage {stage!r}: {len(pending)} task(s) failed after "
                f"{policy.max_retries + 1} attempts: "
                + "; ".join(f.describe() for f in recent)
            ) from last_error
        if attempt:
            pause = policy.backoff(attempt)
            stats.backoff_seconds += pause
            if pause > 0:
                time.sleep(pause)
        if pooled:
            failures = _pooled_attempt(
                pending, tasks, worker, stage, num_tasks, attempt, inject,
                policy.task_timeout, results, stats,
            )
        else:
            failures = _serial_attempt(
                pending, tasks, worker, stage, num_tasks, attempt, inject,
                results, stats,
            )
        failed = {f.index for f in failures}
        if validate is not None:
            for i in pending:
                if i in failed:
                    continue
                problem = validate(results[i], i)
                if problem:
                    results[i] = None
                    failures.append(
                        TaskFailure(i, "invalid", attempt,
                                    ValueError(f"{stage}: {problem}"))
                    )
                    failed.add(i)
        for failure in failures:
            stats.record(failure)
            if failure.error is not None:
                last_error = failure.error
        pending = [i for i in pending if i in failed]
        attempt += 1
    return results
