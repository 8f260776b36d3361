"""Tests for the partitioner registry."""

import pytest

from repro.core.partitioner import ClugpPartitioner
from repro.partitioners.registry import PARTITIONERS, make_partitioner


class TestRegistry:
    def test_all_table1_algorithms_registered(self):
        for name in ("hashing", "dbh", "greedy", "hdrf", "mint", "clugp"):
            assert name in PARTITIONERS

    def test_ablations_registered(self):
        # the split rule is ClugpConfig(enable_splitting=True), not a name
        assert "clugp-g" in PARTITIONERS and "clugp-s" not in PARTITIONERS

    def test_make_basic(self):
        p = make_partitioner("hashing", 8)
        assert p.num_partitions == 8
        assert p.name == "hashing"

    def test_make_lazy_clugp(self):
        p = make_partitioner("clugp", 4, seed=2)
        assert isinstance(p, ClugpPartitioner)
        assert p.config.game.seed == 2

    def test_make_case_insensitive(self):
        assert make_partitioner("HDRF", 4).name == "hdrf"

    def test_make_forwards_kwargs(self):
        p = make_partitioner("hdrf", 4, lambda_bal=3.0)
        assert p.lambda_bal == 3.0

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown partitioner"):
            make_partitioner("nope", 4)

    def test_lazy_entry_cached_after_first_use(self):
        make_partitioner("clugp-g", 2)
        assert not isinstance(PARTITIONERS["clugp-g"], str)
