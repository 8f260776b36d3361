"""Deterministic fault injection: pure decisions, spec parsing, corruption."""

import numpy as np
import pytest

from repro.reliability.faults import (
    ENV_SPEC,
    FAULT_KINDS,
    FaultInjector,
    FaultSpecError,
    InjectedCrash,
    _corrupt_result,
)


class TestDecide:
    def test_pure_function(self):
        inj = FaultInjector(kinds=("crash", "hang"), seed=7)
        first = [inj.decide("stage1", n, 8, 0) for n in range(8)]
        second = [inj.decide("stage1", n, 8, 0) for n in range(8)]
        assert first == second

    def test_exactly_one_victim_per_stage(self):
        inj = FaultInjector(kinds=("crash",), seed=3)
        for stage in ("shard", "attribute", "probe", "commit"):
            decisions = [inj.decide(stage, n, 6, 0) for n in range(6)]
            assert sum(d is not None for d in decisions) == 1

    def test_kind_drawn_from_enabled_set(self):
        for seed in range(20):
            inj = FaultInjector(kinds=("slow", "corrupt"), seed=seed)
            kinds = {inj.decide("s", n, 4, 0) for n in range(4)} - {None}
            assert kinds <= {"slow", "corrupt"}

    def test_seed_sweep_reaches_every_kind(self):
        seen = set()
        for seed in range(64):
            inj = FaultInjector(kinds=FAULT_KINDS, seed=seed)
            seen |= {inj.decide("s", n, 4, 0) for n in range(4)} - {None}
        assert seen == set(FAULT_KINDS)

    def test_attempt_past_zero_is_fault_free(self):
        inj = FaultInjector(kinds=("crash",), seed=1)
        assert any(inj.decide("s", n, 4, 0) for n in range(4))
        assert all(inj.decide("s", n, 4, 1) is None for n in range(4))

    def test_persist_keeps_firing(self):
        inj = FaultInjector(kinds=("crash",), seed=1, persist=True)
        for attempt in range(4):
            assert any(inj.decide("s", n, 4, attempt) for n in range(4))

    def test_no_nodes_no_fault(self):
        inj = FaultInjector(kinds=("crash",), seed=1)
        assert inj.decide("s", 0, 0, 0) is None

    def test_different_stages_can_pick_different_victims(self):
        inj = FaultInjector(kinds=("crash",), seed=0)
        victims = set()
        for stage in ("a", "b", "c", "d", "e", "f", "g", "h"):
            (victim,) = [
                n for n in range(16) if inj.decide(stage, n, 16, 0) is not None
            ]
            victims.add(victim)
        assert len(victims) > 1


class TestSpec:
    def test_parse_kinds_and_options(self):
        inj = FaultInjector.from_spec(
            "crash, hang ,seed=7,hang_seconds=2.5,persist", honor_env=False
        )
        assert inj.kinds == ("crash", "hang")
        assert inj.seed == 7
        assert inj.hang_seconds == 2.5
        assert inj.persist is True

    def test_empty_spec_means_no_injection(self):
        assert FaultInjector.from_spec(None, honor_env=False) is None
        assert FaultInjector.from_spec("", honor_env=False) is None

    def test_unknown_kind_raises(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            FaultInjector.from_spec("segfault", honor_env=False)

    def test_unknown_option_raises(self):
        with pytest.raises(FaultSpecError, match="unknown fault option"):
            FaultInjector.from_spec("crash,color=red", honor_env=False)

    def test_bad_value_raises(self):
        with pytest.raises(FaultSpecError, match="bad value"):
            FaultInjector.from_spec("crash,seed=banana", honor_env=False)

    def test_options_without_kinds_raise(self):
        with pytest.raises(FaultSpecError, match="names no fault kinds"):
            FaultInjector.from_spec("seed=3", honor_env=False)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_SPEC, "slow,seed=9")
        inj = FaultInjector.from_spec("crash", honor_env=True)
        assert inj.kinds == ("slow",)
        assert inj.seed == 9

    def test_env_ignored_when_not_honored(self, monkeypatch):
        monkeypatch.setenv(ENV_SPEC, "slow")
        inj = FaultInjector.from_spec("crash", honor_env=False)
        assert inj.kinds == ("crash",)

    def test_describe_names_kinds_and_seed(self):
        inj = FaultInjector.from_spec("crash,seed=5", honor_env=False)
        text = inj.describe()
        assert "crash" in text and "seed=5" in text


class _Summary:
    """Minimal stand-in for a checksummed wire payload."""

    def __init__(self):
        self.checksum = 1234
        self.volume = np.arange(4, dtype=np.int64)


class TestEffects:
    def test_crash_raises_in_thread_mode(self):
        inj = FaultInjector(kinds=("crash",), seed=1)
        (victim,) = [n for n in range(4) if inj.decide("s", n, 4, 0)]
        with pytest.raises(InjectedCrash):
            inj.pre_task("s", victim, 4, 0, in_process=False)

    def test_non_victims_untouched(self):
        inj = FaultInjector(kinds=("crash",), seed=1)
        (victim,) = [n for n in range(4) if inj.decide("s", n, 4, 0)]
        for n in range(4):
            if n != victim:
                inj.pre_task("s", n, 4, 0, in_process=False)  # must not raise

    def test_corrupt_flips_bytes_after_checksum(self):
        payload = _Summary()
        before = payload.volume.copy()
        _corrupt_result((0, payload, "extra"))
        assert not np.array_equal(payload.volume, before)
        assert payload.checksum == 1234  # stale on purpose: wire corruption

    def test_corrupt_reaches_the_round_two_payload(self):
        """A GraphContribution has none of the summary's arrays; the
        injected flip must land in one of its own and break its seal."""
        from repro.core.cluster_graph import cluster_graph_from_labels
        from repro.core.partitioner import GraphContribution

        cu = np.array([0, 0, 1, 2, 2], dtype=np.int64)
        cv = np.array([0, 1, 2, 2, 0], dtype=np.int64)
        payload = GraphContribution.from_graph(
            cluster_graph_from_labels(cu, cv, 3), node=1, num_edges=5
        )
        assert payload.validate() is None
        before = [a.copy() for a in payload._wire_arrays()]
        _corrupt_result((payload, "node state", 0.1))
        assert any(
            not np.array_equal(a, b) for a, b in zip(payload._wire_arrays(), before)
        )
        assert payload.validate() is not None

    def test_corrupt_ignores_unchecksummed_results(self):
        data = np.arange(4, dtype=np.int64)
        before = data.copy()
        _corrupt_result((0, data))
        assert np.array_equal(data, before)

    def test_injector_is_picklable(self):
        import pickle

        inj = FaultInjector(kinds=("crash", "corrupt"), seed=11)
        assert pickle.loads(pickle.dumps(inj)) == inj
