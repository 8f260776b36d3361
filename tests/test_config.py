"""Tests for ClugpConfig / GameConfig validation and defaults."""

import pytest

from repro.config import ClugpConfig, GameConfig, ReliabilityConfig


class TestGameConfig:
    def test_defaults_match_paper(self):
        cfg = GameConfig()
        assert cfg.lambda_mode == "max"  # Section VI-A: lambda at maximum
        assert cfg.relative_weight == 0.5  # equal importance

    def test_invalid_lambda_mode(self):
        with pytest.raises(ValueError, match="lambda_mode"):
            GameConfig(lambda_mode="bogus")

    @pytest.mark.parametrize("w", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_relative_weight(self, w):
        with pytest.raises(ValueError, match="relative_weight"):
            GameConfig(relative_weight=w)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_invalid_lambda_value(self, value):
        # a NaN/inf lambda makes every cost NaN/inf, so the game would
        # "converge" after one round with no move on the random assignment
        with pytest.raises(ValueError, match="lambda_value"):
            GameConfig(lambda_mode="fixed", lambda_value=value)

    def test_zero_lambda_value_is_valid(self):
        # lambda = 0 drops the load term: a pure edge-cut game
        assert GameConfig(lambda_mode="fixed", lambda_value=0.0).lambda_value == 0.0

    @pytest.mark.parametrize("field", ["max_rounds"])
    def test_positive_int_fields(self, field):
        with pytest.raises(ValueError):
            GameConfig(**{field: 0})

    def test_with_returns_new_instance(self):
        cfg = GameConfig()
        cfg2 = cfg.with_(max_rounds=128)
        assert cfg2.max_rounds == 128
        assert cfg.max_rounds == 64
        assert cfg2.lambda_mode == cfg.lambda_mode


class TestClugpConfig:
    def test_defaults(self):
        cfg = ClugpConfig()
        assert cfg.enable_splitting is False
        assert cfg.use_game is True
        assert cfg.imbalance_factor >= 1.0

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            ClugpConfig(num_partitions=0)

    def test_invalid_tau(self):
        with pytest.raises(ValueError, match="imbalance_factor"):
            ClugpConfig(imbalance_factor=0.9)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau(self, tau):
        # NaN passed the >= 1 check and failed in pass 3's int cast
        with pytest.raises(ValueError, match="imbalance_factor"):
            ClugpConfig(imbalance_factor=tau)

    @pytest.mark.parametrize("game", [None, {"seed": 1}])
    def test_game_must_be_a_game_config(self, game):
        # was an AttributeError deep in pass 2
        with pytest.raises(ValueError, match="game must be a GameConfig"):
            ClugpConfig(game=game)
        with pytest.raises(ValueError, match="game must be a GameConfig"):
            ClugpConfig().with_(game=game)

    def test_from_dict_rebuilds_the_nested_configs(self):
        cfg = ClugpConfig(game=GameConfig(seed=3))
        assert ClugpConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_from_dict_drops_the_retired_ingest_mode(self, mode):
        # checkpoints store the reliability config with an ingest mode the
        # config no longer has (the CLI's --ingest-mode goes to the reader)
        cfg = ClugpConfig(reliability=ReliabilityConfig(checkpoint_every=3))
        old = cfg.to_dict()
        old["reliability"]["ingest_mode"] = mode
        assert ClugpConfig.from_dict(old) == cfg
        with pytest.raises(TypeError):
            ReliabilityConfig(ingest_mode=mode)
        old["reliability"]["strict"] = True
        with pytest.raises(TypeError):
            ClugpConfig.from_dict(old)

    def test_invalid_vmax(self):
        with pytest.raises(ValueError):
            ClugpConfig(max_cluster_volume=-5)

    def test_resolve_vmax_default_is_edges_over_k(self):
        cfg = ClugpConfig(num_partitions=16)
        assert cfg.resolve_vmax(16_000) == 1000  # |E| / k, Section VI-A

    def test_resolve_vmax_explicit_wins(self):
        cfg = ClugpConfig(num_partitions=16, max_cluster_volume=77)
        assert cfg.resolve_vmax(10**6) == 77

    def test_resolve_vmax_floors_at_one(self):
        cfg = ClugpConfig(num_partitions=64)
        assert cfg.resolve_vmax(10) == 1

    def test_with_nested_game(self):
        cfg = ClugpConfig().with_(game=GameConfig(seed=9))
        assert cfg.game.seed == 9
