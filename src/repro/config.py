"""Configuration objects for the CLUGP pipeline.

The defaults mirror the experimental setup of the paper (Section VI-A):
``V_max = |E|/k``, imbalance factor ``tau = 1.0`` (the paper's Algorithm 1
uses the cap ``L_max = tau * |E| / k``; with tau exactly 1.0 the cap is the
perfectly balanced size, so we default to a small slack like the published
implementation does in practice), and the normalization factor ``lambda``
at its Theorem-5 maximum.  The paper's batched multi-threaded game
(Section V-D) is not reproduced, so there is no batch-size or
thread-count knob: under CPython it only adds cost (DESIGN.md §3).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from ._util import check_positive_int

__all__ = ["ClugpConfig", "GameConfig", "ReliabilityConfig"]

#: fields that older checkpoints still carry in ``config`` /
#: ``config["game"]`` / ``config["reliability"]`` and that were never
#: state: the implementation selectors (every value produced the same
#: arrays), the batched game's knobs (the service always played the
#: sequential game) and the ingest mode (the CLI hands ``--ingest-mode``
#: straight to the edge-list reader; nothing read the field)
_RETIRED_KEYS = ("chunk_impl", "kernel_backend", "parallel_game")
_RETIRED_GAME_KEYS = ("game_impl", "kernel_backend", "batch_size", "num_threads")
_RETIRED_RELIABILITY_KEYS = ("ingest_mode",)


@dataclass(frozen=True)
class ReliabilityConfig:
    """Fault-tolerance knobs of the distributed and service runtimes.

    Attributes
    ----------
    max_retries:
        Additional attempts per failed/timed-out/invalid stage task
        (0 = fail fast on the first fault).
    task_timeout:
        Per-attempt deadline in seconds for each stage task, on
        either backend (``None`` = no deadline).
    backoff_base, backoff_factor, backoff_max:
        Exponential backoff before each retry attempt:
        ``min(base * factor**(n-1), max)`` seconds.
    validate_summaries:
        Coordinator-side schema + checksum validation of every shipped
        :class:`~repro.core.partitioner.ClusterSummary`; corrupt ones
        are quarantined and their shard re-run.
    checkpoint_every:
        Service checkpoint cadence in batches (1 = every batch); the
        batches in between are covered by the write-ahead journal.
    checkpoint_keep:
        Rotated checkpoint files retained on disk.
    journal_sync:
        Write-ahead journal fsync policy — ``"commit"`` (default)
        flushes every append (durable against process crashes) and
        fsyncs only at checkpoint commit points; ``"always"`` fsyncs
        every append, surviving power loss at ~1ms/batch.
    inject_faults:
        Deterministic chaos spec (see :meth:`~repro.reliability.faults.
        FaultInjector.from_spec`), e.g. ``"crash,hang,seed=7"``; empty
        = no injection.  ``CLUGP_INJECT_FAULTS`` overrides it.
    """

    max_retries: int = 2
    task_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    validate_summaries: bool = True
    checkpoint_every: int = 1
    checkpoint_keep: int = 2
    journal_sync: str = "commit"
    inject_faults: str = ""

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive or None, got {self.task_timeout!r}"
            )
        check_positive_int(self.checkpoint_every, "checkpoint_every")
        check_positive_int(self.checkpoint_keep, "checkpoint_keep")
        if self.journal_sync not in ("commit", "always"):
            raise ValueError(
                f"journal_sync must be 'commit' or 'always', got {self.journal_sync!r}"
            )

    def with_(self, **kwargs) -> "ReliabilityConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class GameConfig:
    """Parameters of the cluster-partitioning potential game (Section V).

    Attributes
    ----------
    lambda_mode:
        ``"max"`` uses the Theorem-5 upper bound
        ``k^2 * sum(cut(c_i)) / (sum(w_i))^2`` (paper default, over the
        player weights ``w_i = max(2|c_i|, cut(c_i))``),
        ``"balanced"`` solves Equation 15 iteratively from the current
        assignment, and ``"fixed"`` uses :attr:`lambda_value` directly.
    lambda_value:
        Normalization factor when ``lambda_mode == "fixed"``: finite and
        ``>= 0`` (``0`` plays a pure edge-cut game).
    relative_weight:
        Figure 11(b) knob ``w`` in (0, 1): the load term is scaled by
        ``w / (1 - w)`` on top of the chosen lambda. ``0.5`` leaves the two
        cost terms equally weighted, matching the paper default.
    max_rounds:
        Safety cap on best-response rounds; Theorem 6 bounds rounds by the
        total number of inter-cluster edges, but we stop far earlier in
        practice because each full round with no move terminates the game.
    seed:
        Seed for the random initial cluster->partition assignment.
    """

    lambda_mode: str = "max"
    lambda_value: float = 1.0
    relative_weight: float = 0.5
    max_rounds: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lambda_mode not in ("max", "balanced", "fixed"):
            raise ValueError(
                f"lambda_mode must be 'max', 'balanced' or 'fixed', got {self.lambda_mode!r}"
            )
        if not 0.0 < self.relative_weight < 1.0:
            raise ValueError(
                f"relative_weight must be in (0, 1), got {self.relative_weight!r}"
            )
        if not (math.isfinite(self.lambda_value) and self.lambda_value >= 0.0):
            raise ValueError(
                f"lambda_value must be finite and >= 0, got {self.lambda_value!r}"
            )
        check_positive_int(self.max_rounds, "max_rounds")

    def with_(self, **kwargs) -> "GameConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ClugpConfig:
    """Full CLUGP pipeline configuration (Sections III-V).

    Attributes
    ----------
    num_partitions:
        ``k``, the number of target partitions.
    max_cluster_volume:
        ``V_max``; ``None`` means the paper default ``|E| / k`` (floored to
        at least 1), computed when the stream length is known.
    imbalance_factor:
        ``tau >= 1.0``; pass-3 hard cap is ``L_max = tau * |E| / k``.
    enable_splitting:
        ``True`` runs pass 1 with the paper's splitting operation
        (Algorithm 2); the default ``False`` is Holl-style
        allocation-migration, which gives the lower replication factor
        (DESIGN.md §1, Figure 9).
    use_game:
        ``False`` gives the CLUGP-G ablation: clusters are assigned
        greedily, biggest cluster into the currently smallest partition.
    game:
        The nested :class:`GameConfig`.
    reliability:
        The nested :class:`ReliabilityConfig` (retries, deadlines,
        checkpoint cadence, fault injection, ingest hardening).
    """

    num_partitions: int = 32
    max_cluster_volume: int | None = None
    imbalance_factor: float = 1.05
    enable_splitting: bool = False
    use_game: bool = True
    game: GameConfig = GameConfig()
    reliability: ReliabilityConfig = ReliabilityConfig()

    def __post_init__(self) -> None:
        check_positive_int(self.num_partitions, "num_partitions")
        if self.max_cluster_volume is not None:
            check_positive_int(self.max_cluster_volume, "max_cluster_volume")
        if not isinstance(self.game, GameConfig):
            raise ValueError(f"game must be a GameConfig, got {self.game!r}")
        if not isinstance(self.reliability, ReliabilityConfig):
            raise ValueError(
                f"reliability must be a ReliabilityConfig, got {self.reliability!r}"
            )
        if not (math.isfinite(self.imbalance_factor) and self.imbalance_factor >= 1.0):
            raise ValueError(
                f"imbalance_factor must be finite and >= 1.0, got {self.imbalance_factor!r}"
            )

    def with_(self, **kwargs) -> "ClugpConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def resolve_vmax(self, num_edges: int) -> int:
        """Resolve ``V_max`` for a stream of ``num_edges`` edges.

        The paper (Section VI-A) sets ``V_max = |E| / k`` following the
        suggestion of Hollocou et al.  Cluster *volume* counts degree mass
        (each edge contributes 2), so the default still produces ~2k
        clusters on typical graphs.
        """
        if self.max_cluster_volume is not None:
            return self.max_cluster_volume
        return max(1, num_edges // self.num_partitions)

    def to_dict(self) -> dict:
        """JSON-safe nested dict — the checkpoint/metadata round-trip form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ClugpConfig":
        """Rebuild a config from :meth:`to_dict` output (exact round trip).

        Older checkpoints still carry the retired fields
        (:data:`_RETIRED_KEYS`, :data:`_RETIRED_GAME_KEYS`,
        :data:`_RETIRED_RELIABILITY_KEYS`); those keys are dropped at any
        value, since none of them was ever state.  Any other unknown key
        raises.
        """
        data = {k: v for k, v in data.items() if k not in _RETIRED_KEYS}
        if isinstance(data.get("game"), dict):
            data["game"] = GameConfig(**{
                k: v for k, v in data["game"].items() if k not in _RETIRED_GAME_KEYS
            })
        if isinstance(data.get("reliability"), dict):
            data["reliability"] = ReliabilityConfig(**{
                k: v
                for k, v in data["reliability"].items()
                if k not in _RETIRED_RELIABILITY_KEYS
            })
        return cls(**data)

