"""Tests for repro._util helpers."""

import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._util import (
    StageTimes,
    Timer,
    as_rng,
    check_positive_int,
    check_probability,
    group_by_bounded,
    hash_pair_to_partition,
    hash_to_partition,
    human_bytes,
    occurrence_ranks,
    splitmix64,
    vertex_partition_pairs,
)


class TestSplitmix64:
    def test_scalar_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_scalar_returns_uint64(self):
        assert isinstance(splitmix64(7), np.uint64)

    def test_array_shape_preserved(self):
        x = np.arange(100, dtype=np.uint64)
        assert splitmix64(x).shape == (100,)

    def test_distinct_inputs_distinct_outputs(self):
        x = np.arange(10_000, dtype=np.uint64)
        assert np.unique(splitmix64(x)).size == 10_000

    def test_avalanche_changes_output(self):
        assert splitmix64(1) != splitmix64(2)

    def test_zero_input(self):
        # SplitMix64 of 0 is a well-defined non-zero constant
        assert splitmix64(0) != 0


class TestHashToPartition:
    def test_range(self):
        parts = hash_to_partition(np.arange(5000), 13)
        assert parts.min() >= 0 and parts.max() < 13

    def test_deterministic(self):
        a = hash_to_partition(np.arange(100), 7, seed=3)
        b = hash_to_partition(np.arange(100), 7, seed=3)
        assert np.array_equal(a, b)

    def test_seed_changes_mapping(self):
        a = hash_to_partition(np.arange(1000), 7, seed=0)
        b = hash_to_partition(np.arange(1000), 7, seed=1)
        assert not np.array_equal(a, b)

    def test_roughly_uniform(self):
        parts = hash_to_partition(np.arange(64_000), 8)
        counts = np.bincount(parts, minlength=8)
        assert counts.min() > 0.8 * 8000 and counts.max() < 1.2 * 8000

    @given(st.integers(min_value=1, max_value=64))
    def test_any_k(self, k):
        parts = hash_to_partition(np.arange(100), k)
        assert parts.max() < k

    def test_pair_hash_depends_on_both_endpoints(self):
        src = np.zeros(1000, dtype=np.int64)
        dst = np.arange(1000, dtype=np.int64)
        parts = hash_pair_to_partition(src, dst, 16)
        assert np.unique(parts).size == 16

    def test_pair_hash_not_symmetric_requirement(self):
        # (u, v) and (v, u) may differ; just check determinism and range
        a = hash_pair_to_partition([3], [5], 8, seed=2)
        b = hash_pair_to_partition([3], [5], 8, seed=2)
        assert a == b and 0 <= int(a[0]) < 8


class TestTimers:
    def test_timer_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_stage_times_accumulate(self):
        times = StageTimes()
        times.add("a", 1.0)
        times.add("a", 0.5)
        times.add("b", 2.0)
        assert times["a"] == pytest.approx(1.5)
        assert times.total == pytest.approx(3.5)
        assert "b" in times and "c" not in times

    def test_walls_do_not_inflate_total(self):
        times = StageTimes()
        times.add("total", 4.0)
        times.add_wall("critical_path", 1.5)
        assert times.total == pytest.approx(4.0)
        assert times.walls["critical_path"] == pytest.approx(1.5)
        assert times.critical_path == pytest.approx(1.5)

    def test_walls_keep_maximum(self):
        times = StageTimes()
        times.add_wall("critical_path", 1.0)
        times.add_wall("critical_path", 0.25)
        times.add_wall("critical_path", 2.0)
        assert times.walls["critical_path"] == pytest.approx(2.0)

    def test_critical_path_defaults_to_total(self):
        times = StageTimes()
        times.add("a", 1.0)
        times.add("b", 2.0)
        assert times.critical_path == pytest.approx(3.0)

    def test_overlaps_accumulate_without_touching_total(self):
        times = StageTimes()
        times.add("work", 2.0)
        times.add_overlap("pipeline_overlap", 0.5)
        times.add_overlap("pipeline_overlap", 0.25)
        times.add_overlap("node0_busy", 1.0)
        assert times.overlaps["pipeline_overlap"] == pytest.approx(0.75)
        assert times.overlaps["node0_busy"] == pytest.approx(1.0)
        assert times.total == pytest.approx(2.0)
        assert times.critical_path == pytest.approx(2.0)


def _ranks_reference(edges):
    """Brute-force occurrence ranks: sequential two-increment consumer."""
    seen: dict[int, int] = {}
    rank_u, rank_v = [], []
    for u, v in edges:
        seen[u] = seen.get(u, 0) + 1
        seen[v] = seen.get(v, 0) + 1
        rank_u.append(seen[u])
        rank_v.append(seen[v])
    return np.asarray(rank_u), np.asarray(rank_v)


class TestOccurrenceRanks:
    def test_matches_sequential_reference(self):
        rng = np.random.default_rng(3)
        edges = rng.integers(0, 12, size=(200, 2))
        rank_u, rank_v = occurrence_ranks(edges[:, 0], edges[:, 1], 12)
        ref_u, ref_v = _ranks_reference(edges.tolist())
        assert np.array_equal(rank_u, ref_u)
        assert np.array_equal(rank_v, ref_v)

    def test_self_loops_read_after_both_increments(self):
        edges = np.array([[2, 2], [2, 3], [2, 2]])
        rank_u, rank_v = occurrence_ranks(edges[:, 0], edges[:, 1], 4)
        # sequential consumer: after edge 0, seen[2] == 2 (both slots)
        assert rank_u.tolist() == [2, 3, 5]
        assert rank_v.tolist() == [2, 1, 5]

    def test_distinct_vertices_all_first(self):
        edges = np.array([[0, 1], [2, 3], [4, 5]])
        rank_u, rank_v = occurrence_ranks(edges[:, 0], edges[:, 1], 6)
        assert rank_u.tolist() == [1, 1, 1]
        assert rank_v.tolist() == [1, 1, 1]

    def test_empty(self):
        rank_u, rank_v = occurrence_ranks([], [], 5)
        assert rank_u.size == 0 and rank_v.size == 0

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=80
        )
    )
    def test_property_matches_reference(self, edges):
        arr = np.asarray(edges, dtype=np.int64)
        rank_u, rank_v = occurrence_ranks(arr[:, 0], arr[:, 1], 7)
        ref_u, ref_v = _ranks_reference(edges)
        assert np.array_equal(rank_u, ref_u)
        assert np.array_equal(rank_v, ref_v)


class TestGroupByBounded:
    def test_groups_are_stable_slices(self):
        keys = np.array([2, 0, 2, 1, 0, 2], dtype=np.int64)
        order, indptr = group_by_bounded(keys, 4)
        assert indptr.tolist() == [0, 2, 3, 6, 6]
        assert order[indptr[0]:indptr[1]].tolist() == [1, 4]  # key 0, stream order
        assert order[indptr[2]:indptr[3]].tolist() == [0, 2, 5]
        assert keys[order].tolist() == sorted(keys.tolist())

    def test_empty(self):
        order, indptr = group_by_bounded(np.empty(0, dtype=np.int64), 3)
        assert order.size == 0
        assert indptr.tolist() == [0, 0, 0, 0]

    @given(st.lists(st.integers(0, 6), max_size=80))
    def test_matches_stable_argsort(self, values):
        keys = np.array(values, dtype=np.int64)
        order, indptr = group_by_bounded(keys, 7)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(
            np.diff(indptr), np.bincount(keys, minlength=7)
        )


def _pairs_by_unique(src, dst, edge_partition, k):
    """``vertex_partition_pairs`` as the ``np.unique`` call it replaced."""
    k = np.int64(k)
    keys = np.concatenate([src * k + edge_partition, dst * k + edge_partition])
    pairs, counts = np.unique(keys, return_counts=True)
    return pairs // k, (pairs % k).astype(np.int64), counts


class TestVertexPartitionPairs:
    @staticmethod
    def check(src, dst, edge_partition, k):
        src, dst, edge_partition = (
            np.asarray(a, dtype=np.int64) for a in (src, dst, edge_partition)
        )
        got = vertex_partition_pairs(src, dst, edge_partition, k)
        want = _pairs_by_unique(src, dst, edge_partition, k)
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)
        return got

    def test_empty_stream(self):
        for part in self.check([], [], [], 4):
            assert part.size == 0

    def test_self_loops_count_both_endpoints(self):
        vertices, partitions, counts = self.check([3, 3, 1], [3, 3, 3], [0, 1, 0], 2)
        assert vertices.tolist() == [1, 3, 3]
        assert partitions.tolist() == [0, 0, 1]
        assert counts.tolist() == [1, 3, 2]

    def test_single_partition(self):
        vertices, partitions, _ = self.check([0, 5, 5], [5, 2, 0], [0, 0, 0], 1)
        assert vertices.tolist() == [0, 2, 5] and not partitions.any()

    @pytest.mark.parametrize("top", [2**31 // 16 - 1, 2**31 // 16, 2**40])
    def test_key_width_boundary(self, top):
        # keys are sorted as int32 while the largest fits, as int64 beyond
        self.check([0, top, top], [top, 1, top], [15, 15, 3], 16)

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 6)),
            max_size=80,
        ),
        k=st.integers(7, 9),
    )
    def test_matches_np_unique(self, edges, k):
        self.check([e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges], k)


class TestValidators:
    def test_check_positive_int_accepts(self):
        assert check_positive_int(5, "x") == 5

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_check_positive_int_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive_int(bad, "x")

    def test_check_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ValueError):
            check_probability(1.5, "p")
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")

    def test_as_rng_idempotent(self):
        rng = np.random.default_rng(0)
        assert as_rng(rng) is rng

    def test_as_rng_from_seed(self):
        assert as_rng(5).integers(100) == as_rng(5).integers(100)


class TestHumanBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, "0B"), (512, "512B"), (2048, "2.00KB"), (3 * 1024**2, "3.00MB")],
    )
    def test_formatting(self, value, expected):
        assert human_bytes(value) == expected

    def test_terabytes(self):
        assert human_bytes(2 * 1024**4) == "2.00TB"
