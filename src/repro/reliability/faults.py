"""Deterministic, seed-driven fault injection for chaos runs.

A serving deployment meets worker death, stragglers, and corrupt payloads
as *normal inputs*; reproducing those conditions in CI requires the
faults themselves to be reproducible.  :class:`FaultInjector` is a frozen
value object (picklable — it crosses the process boundary inside the
persistent workers' stage commands) whose decisions are pure functions of ``(seed, stage, node)``:

* at most **one victim node per stage** (the chaos gate of
  ``benchmarks/bench_reliability.py``), chosen by a SplitMix64 hash of
  the stage name;
* the fault *kind* for that victim is drawn from the enabled ``kinds``
  by a second hash, so a seed sweep exercises every kind;
* by default a fault fires only on **attempt 0** — the retry layer's
  resubmission then sees a healthy worker, which is what makes the
  chaos suite terminate deterministically.  ``persist=True`` keeps the
  fault firing on every attempt (used by the retry-exhaustion tests).

Kinds
-----
``crash``
    Persistent backend: the worker process calls ``os._exit`` (a
    ``kill -9`` stand-in — no exception, no cleanup, the pipe breaks)
    and is respawned.  Thread or serial execution cannot kill the host
    process, so the crash degrades to raising :class:`InjectedCrash`.
``hang``
    The worker sleeps ``hang_seconds`` before doing its work — past any
    sane per-task deadline, so the retry layer times it out (a worker
    process is killed and respawned, a pool thread abandoned).
``slow``
    A straggler: the worker sleeps ``slow_seconds`` and then completes
    normally.  Exercises deadline headroom without triggering retries.
``corrupt``
    The worker flips bytes in its result payload *after* the payload's
    checksum was computed (wire corruption).  Only applied to results
    that carry a ``checksum`` attribute — the two payloads of the merge
    protocol, :class:`~repro.core.partitioner.ClusterSummary` (round 1)
    and :class:`~repro.core.partitioner.GraphContribution` (round 2);
    the coordinator's validation quarantines the payload and re-runs
    that node's stage.

Injectors are built from a compact spec string (``--inject-faults`` /
``CLUGP_INJECT_FAULTS`` / ``ClugpConfig.reliability.inject_faults``)::

    crash,hang                  # both kinds, seed 0
    crash,seed=7                # crash only, seed 7
    hang,seed=3,hang_seconds=2  # tune the hang length
    crash,persist               # fire on every attempt (never recovers)
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass

from .._util import splitmix64

__all__ = ["FAULT_KINDS", "FaultInjector", "InjectedCrash", "FaultSpecError"]

FAULT_KINDS = ("crash", "hang", "slow", "corrupt")

#: environment variable overriding any configured fault spec
ENV_SPEC = "CLUGP_INJECT_FAULTS"


class InjectedCrash(RuntimeError):
    """The thread/serial stand-in for a worker process dying."""


class FaultSpecError(ValueError):
    """An ``--inject-faults`` / ``CLUGP_INJECT_FAULTS`` spec is malformed."""


def _mix(*parts: int) -> int:
    """Fold integer parts into one 64-bit value via SplitMix64 chaining."""
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        acc = int(splitmix64((acc ^ (part & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF))
    return acc


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic chaos: decides, per (stage, node, attempt), which
    fault (if any) a worker suffers.  See the module docstring."""

    kinds: tuple[str, ...] = ("crash", "hang")
    seed: int = 0
    hang_seconds: float = 30.0
    slow_seconds: float = 0.25
    persist: bool = False

    def __post_init__(self) -> None:
        """Validate the enabled kinds eagerly (specs are user input)."""
        if not self.kinds:
            raise FaultSpecError("fault spec enables no fault kinds")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_spec(cls, spec: str | None, honor_env: bool = True) -> "FaultInjector | None":
        """Parse a spec string; ``None``/empty means no injection.

        ``honor_env`` lets ``CLUGP_INJECT_FAULTS`` override the given
        spec, so chaos runs can be switched on without touching config.
        """
        if honor_env:
            env = os.environ.get(ENV_SPEC, "").strip()
            if env:
                spec = env
        if not spec:
            return None
        kinds: list[str] = []
        kwargs: dict = {}
        for raw in spec.split(","):
            token = raw.strip().lower()
            if not token:
                continue
            if "=" in token:
                key, _, value = token.partition("=")
                key = key.strip()
                try:
                    if key == "seed":
                        kwargs["seed"] = int(value)
                    elif key == "hang_seconds":
                        kwargs["hang_seconds"] = float(value)
                    elif key == "slow_seconds":
                        kwargs["slow_seconds"] = float(value)
                    else:
                        raise FaultSpecError(
                            f"unknown fault option {key!r} in spec {spec!r}"
                        )
                except ValueError as exc:
                    if isinstance(exc, FaultSpecError):
                        raise
                    raise FaultSpecError(
                        f"bad value for {key!r} in fault spec {spec!r}: {value!r}"
                    ) from None
            elif token == "persist":
                kwargs["persist"] = True
            else:
                kinds.append(token)
        if not kinds:
            raise FaultSpecError(
                f"fault spec {spec!r} names no fault kinds (expected e.g. 'crash,hang')"
            )
        return cls(kinds=tuple(kinds), **kwargs)

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #

    def decide(self, stage: str, node: int, num_nodes: int, attempt: int) -> str | None:
        """The fault (or None) for this worker — a pure function.

        Exactly one node per stage is the victim; its kind is drawn from
        the enabled set.  Attempts past 0 are fault-free unless
        ``persist`` is set.
        """
        if attempt > 0 and not self.persist:
            return None
        if num_nodes <= 0:
            return None
        h = _mix(self.seed, zlib.crc32(stage.encode("utf-8")))
        if node != h % num_nodes:
            return None
        return self.kinds[_mix(h) % len(self.kinds)]

    def pre_task(self, stage: str, node: int, num_nodes: int, attempt: int,
                 in_process: bool) -> None:
        """Apply crash/hang/slow faults at worker entry."""
        fault = self.decide(stage, node, num_nodes, attempt)
        if fault == "crash":
            if in_process:
                os._exit(17)  # the kill -9 stand-in: no unwinding, pipe breaks
            raise InjectedCrash(
                f"injected crash: stage={stage!r} node={node} attempt={attempt}"
            )
        if fault == "hang":
            time.sleep(self.hang_seconds)
        elif fault == "slow":
            time.sleep(self.slow_seconds)

    def post_task(self, stage: str, node: int, num_nodes: int, attempt: int,
                  result):
        """Apply corruption faults to a finished worker's result payload."""
        if self.decide(stage, node, num_nodes, attempt) == "corrupt":
            _corrupt_result(result)
        return result

    def describe(self) -> str:
        """One-line human-readable form (logged by chaos drivers)."""
        extras = [f"seed={self.seed}"]
        if self.persist:
            extras.append("persist")
        return f"FaultInjector({','.join(self.kinds)},{','.join(extras)})"


def _corrupt_result(result) -> None:
    """Flip bytes in the first checksummed payload found in ``result``.

    Walks tuples/lists for an object with a ``checksum`` attribute (a
    shipped :class:`ClusterSummary` or :class:`GraphContribution`) and
    XORs a byte in its first non-empty array *without* refreshing the
    checksum — exactly what a corrupt wire transfer looks like to the
    coordinator's validator.
    Results without a checksummed payload are left untouched (nothing
    downstream could detect the corruption, so injecting it would turn
    the bit-identity chaos gate into a false failure).
    """
    stack = [result]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
            continue
        if hasattr(obj, "checksum"):
            for name in ("volume", "local_assignment", "boundary_vertices",
                         "internal", "weights", "indptr"):
                array = getattr(obj, name, None)
                if array is not None and getattr(array, "size", 0):
                    view = array.view("uint8")
                    view[0] ^= 0xFF
                    return
