"""The retry loop: crash/hang/raise/invalid recovery and clean errors.

Includes the chaos gate for the distributed driver: with deterministic
fault injection killing, hanging, or corrupting one worker per stage,
``distributed_clugp`` on both backends produces edge partitions
bit-identical to the fault-free run.
"""

import zlib

import numpy as np
import pytest

from repro.config import ClugpConfig, ReliabilityConfig
from repro.core.distributed import distributed_clugp
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.reliability.faults import FaultInjector, InjectedCrash
from repro.reliability.retry import (
    RetryPolicy,
    RetryStats,
    ShardTaskError,
    TaskFailure,
    run_reliable,
)


def _double(task):
    return task * 2


def _raise_value_error(task):
    raise ValueError(f"worker rejected task {task}")


def _sleep_then_return(task):
    import time

    time.sleep(task)
    return task


class TestPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3)
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(5) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0)

    def test_failure_describe(self):
        failure = TaskFailure(3, "timeout", 1)
        assert "task 3" in failure.describe()
        assert "timeout" in failure.describe()


class TestHappyPath:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_results_in_task_order(self, parallel):
        results = run_reliable(list(range(6)), _double, parallel=parallel)
        assert results == [0, 2, 4, 6, 8, 10]

    def test_stats_count_attempts(self):
        stats = RetryStats()
        run_reliable([1, 2, 3], _double, parallel=False, stats=stats)
        assert stats.attempts == 3
        assert stats.retries == 0
        assert stats.failures == []


class TestRaisePropagation:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_worker_exception_surfaces_chained(self, parallel):
        policy = RetryPolicy(max_retries=0, backoff_base=0.0)
        with pytest.raises(ShardTaskError) as excinfo:
            run_reliable([1, 2], _raise_value_error, policy=policy,
                         parallel=parallel, stage="probe")
        message = str(excinfo.value)
        assert "probe" in message and "raise" in message
        # the original worker exception stays attached via the cause chain
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "worker rejected task" in str(excinfo.value.__cause__)


class TestCrashRecovery:
    def test_injected_crash_recovers_in_thread_mode(self):
        stats = RetryStats()
        inj = FaultInjector(kinds=("crash",), seed=1)
        results = run_reliable(
            list(range(4)), _double, policy=RetryPolicy(backoff_base=0.0),
            inject=inj, stats=stats, stage="s",
        )
        assert results == [0, 2, 4, 6]
        assert stats.raises == 1  # thread crash degrades to InjectedCrash
        assert stats.retries == 1

    def test_persistent_crash_exhausts_retries(self):
        inj = FaultInjector(kinds=("crash",), seed=1, persist=True)
        with pytest.raises(ShardTaskError, match="failed after 2 attempts"):
            run_reliable(
                list(range(4)), _double,
                policy=RetryPolicy(max_retries=1, backoff_base=0.0),
                parallel=False, inject=inj, stage="s",
            )

    def test_serial_crash_error_chains_injected_crash(self):
        inj = FaultInjector(kinds=("crash",), seed=1, persist=True)
        with pytest.raises(ShardTaskError) as excinfo:
            run_reliable(
                list(range(4)), _double,
                policy=RetryPolicy(max_retries=0, backoff_base=0.0),
                parallel=False, inject=inj, stage="s",
            )
        assert isinstance(excinfo.value.__cause__, InjectedCrash)


class TestTimeouts:
    def test_timeout_exhaustion_raises_shard_error(self):
        # the abandoned thread sleeps out its hang in the background
        inj = FaultInjector(kinds=("hang",), seed=0, hang_seconds=1.0,
                            persist=True)
        with pytest.raises(ShardTaskError, match="timeout"):
            run_reliable(
                [1, 2, 3], _double,
                policy=RetryPolicy(max_retries=0, task_timeout=0.2,
                                   backoff_base=0.0),
                inject=inj, stage="s",
            )

    def test_slow_worker_within_deadline_is_not_retried(self):
        stats = RetryStats()
        results = run_reliable(
            [0.01, 0.02], _sleep_then_return,
            policy=RetryPolicy(task_timeout=10.0, backoff_base=0.0),
            stats=stats,
        )
        assert results == [0.01, 0.02]
        assert stats.retries == 0


class _Checked:
    """Payload carrying a checksum over its volume array."""

    def __init__(self, value):
        self.volume = np.full(4, value, dtype=np.int64)
        self.checksum = zlib.crc32(self.volume.tobytes())


def _make_checked(task):
    return _Checked(task)


def _validate_checked(result, index):
    if zlib.crc32(result.volume.tobytes()) != result.checksum:
        return f"checksum mismatch on task {index}"
    return None


class TestValidation:
    def test_corrupt_result_quarantined_and_rerun(self):
        stats = RetryStats()
        inj = FaultInjector(kinds=("corrupt",), seed=0)
        results = run_reliable(
            [10, 20, 30], _make_checked,
            policy=RetryPolicy(backoff_base=0.0),
            parallel=False, inject=inj, stats=stats,
            validate=_validate_checked, stage="s",
        )
        assert [int(r.volume[0]) for r in results] == [10, 20, 30]
        assert all(_validate_checked(r, i) is None for i, r in enumerate(results))
        assert stats.invalid == 1
        assert stats.retries == 1

    def test_persistent_corruption_exhausts(self):
        inj = FaultInjector(kinds=("corrupt",), seed=0, persist=True)
        with pytest.raises(ShardTaskError, match="invalid"):
            run_reliable(
                [10, 20, 30], _make_checked,
                policy=RetryPolicy(max_retries=1, backoff_base=0.0),
                parallel=False, inject=inj,
                validate=_validate_checked, stage="s",
            )


@pytest.fixture(scope="module")
def chaos_stream():
    graph = web_crawl_graph(400, avg_out_degree=8.0, host_size=25, seed=3)
    return EdgeStream.from_graph(graph, order="natural")


def _run_distributed(stream, spec, backend="thread", timeout=None):
    rel = ReliabilityConfig(
        inject_faults=spec, task_timeout=timeout,
        backoff_base=0.0, backoff_max=0.0,
    )
    cfg = ClugpConfig(num_partitions=4, reliability=rel)
    return distributed_clugp(
        stream, 4, num_nodes=3, config=cfg, seed=0,
        backend=backend,
    )


class TestDistributedChaosGate:
    """Faults injected into the real shard pipeline leave results bit-identical."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_thread_backend_bit_identical_under_faults(self, chaos_stream, seed):
        baseline = _run_distributed(chaos_stream, "")
        chaotic = _run_distributed(
            chaos_stream, f"crash,slow,corrupt,seed={seed},slow_seconds=0.05"
        )
        assert np.array_equal(
            baseline.assignment.edge_partition, chaotic.assignment.edge_partition
        )

    def test_persistent_backend_crash_bit_identical(self, chaos_stream):
        baseline = _run_distributed(chaos_stream, "")
        chaotic = _run_distributed(
            chaos_stream, "crash,seed=1", backend="persistent"
        )
        assert np.array_equal(
            baseline.assignment.edge_partition, chaotic.assignment.edge_partition
        )
        assert chaotic.to_dict()["reliability"].get("retries", 0) >= 1

    def test_corruption_quarantined_by_summary_validation(self, chaos_stream):
        baseline = _run_distributed(chaos_stream, "")
        chaotic = _run_distributed(chaos_stream, "corrupt,seed=3")
        assert np.array_equal(
            baseline.assignment.edge_partition, chaotic.assignment.edge_partition
        )
        counters = chaotic.to_dict()["reliability"]
        # the round-1 summary and the round-2 contribution were both hit
        assert counters.get("shard_invalid") == 1
        assert counters.get("attribute_invalid") == 1

    def test_counters_reported_in_to_dict(self, chaos_stream):
        chaotic = _run_distributed(chaos_stream, "crash,seed=1")
        counters = chaotic.to_dict()["reliability"]
        assert counters.get("retries", 0) >= 1
