"""Migration planning for the incremental service.

A batch of new edges moves the clustering, which moves the game
equilibrium, which would like to move vertices between partitions.  A
serving system cannot afford unbounded reshuffles: every moved vertex
drags its incident edges (replica state, routing entries) with it.  The
planner therefore turns the *ideal* vertex->partition map produced by the
refreshed equilibrium into a bounded :class:`MigrationPlan`:

* vertices seen for the first time in this batch are placed directly
  (initial placement is not a migration and is never capped);
* previously served vertices whose ideal partition changed become
  *candidate* moves; at most ``cap`` of them are applied per batch,
  highest-degree first (a high-degree vertex influences the most edges,
  so applying its move earliest buys the most replication-factor repair
  per unit of churn), ties broken by ascending vertex id so plans are
  deterministic;
* the rest are *deferred* — not queued, simply left in place.  The next
  batch recomputes the ideal map from scratch, so a deferred move that
  is still worth making reappears and one that the equilibrium walked
  back disappears for free.

DESIGN.md §7 discusses the resulting replication-drift vs churn
tradeoff with measured numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MigrationPlan", "BatchStats", "plan_migrations"]


@dataclass(frozen=True)
class MigrationPlan:
    """A bounded set of vertex->partition moves for one batch.

    Attributes
    ----------
    vertices:
        Vertex ids to move, ascending.
    sources:
        ``sources[i]`` — the partition ``vertices[i]`` is served from now.
    targets:
        ``targets[i]`` — the partition it moves to (``!= sources[i]``).
    candidates:
        Number of vertices whose ideal partition differed before the cap
        was applied; ``candidates - len(vertices)`` moves were deferred.
    cap:
        The per-batch move budget this plan respected (``None`` =
        unbounded).
    """

    vertices: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    candidates: int
    cap: int | None

    @property
    def applied(self) -> int:
        """Number of moves this plan carries (``<= cap`` when capped)."""
        return int(self.vertices.size)

    @property
    def deferred(self) -> int:
        """Candidate moves left in place for a later batch to revisit."""
        return self.candidates - self.applied


@dataclass
class BatchStats:
    """Per-batch service diagnostics (one row of the incremental bench).

    ``replication_factor`` / ``relative_balance`` are ``None`` on batches
    where quality collection was skipped (``quality_every`` > 1);
    ``rf_oracle`` is filled only when the caller ran the from-scratch
    oracle against this batch's state.  ``phase_seconds`` splits the batch
    into the maintenance phases ``endpoints``, ``pass1``, ``snapshot``,
    ``cluster_graph``, ``warm_start``, ``game``, ``plan``, ``pass3`` (they
    sum to ``seconds``) plus ``quality`` on batches that sampled it.
    """

    batch: int
    num_edges: int
    total_edges: int
    seconds: float
    clusters: int
    #: clusters that played the game: every one (kept for the readers of
    #: stored histories and the benchmark's frontier fraction)
    frontier_clusters: int
    game_rounds: int
    game_moves: int
    candidate_moves: int
    applied_moves: int
    deferred_moves: int
    reassigned_edges: int
    churn_edges: int
    replication_factor: float | None = None
    relative_balance: float | None = None
    rf_oracle: float | None = None
    phase_seconds: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def edges_per_second(self) -> float:
        """Batch ingest throughput (maintenance work only, metrics excluded)."""
        return self.num_edges / self.seconds if self.seconds > 0 else 0.0

    @property
    def rf_drift(self) -> float | None:
        """Relative replication-factor excess over the from-scratch oracle.

        ``(RF_service - RF_oracle) / RF_oracle``; ``None`` unless both the
        service RF and the oracle RF were recorded for this batch.
        """
        if self.rf_oracle is None or self.replication_factor is None:
            return None
        if self.rf_oracle <= 0:
            return None
        return (self.replication_factor - self.rf_oracle) / self.rf_oracle

    def to_dict(self) -> dict:
        """Machine-readable row (benchmark JSON, CLI --json)."""
        return {
            "batch": self.batch,
            "num_edges": self.num_edges,
            "total_edges": self.total_edges,
            "seconds": self.seconds,
            "edges_per_second": self.edges_per_second,
            "clusters": self.clusters,
            "frontier_clusters": self.frontier_clusters,
            "game_rounds": self.game_rounds,
            "game_moves": self.game_moves,
            "candidate_moves": self.candidate_moves,
            "applied_moves": self.applied_moves,
            "deferred_moves": self.deferred_moves,
            "reassigned_edges": self.reassigned_edges,
            "churn_edges": self.churn_edges,
            "replication_factor": self.replication_factor,
            "relative_balance": self.relative_balance,
            "rf_oracle": self.rf_oracle,
            "rf_drift": self.rf_drift,
            "phase_seconds": dict(self.phase_seconds),
            **self.extras,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatchStats":
        """Rebuild a row from :meth:`to_dict` output (checkpoint restore).

        Derived fields (``edges_per_second``, ``rf_drift``) are dropped —
        they recompute from the stored fields; unknown keys land back in
        ``extras`` so custom annotations survive the round trip.
        """
        data = dict(data)
        data.pop("edges_per_second", None)
        data.pop("rf_drift", None)
        known = {
            "batch", "num_edges", "total_edges", "seconds", "clusters",
            "frontier_clusters", "game_rounds", "game_moves",
            "candidate_moves", "applied_moves", "deferred_moves",
            "reassigned_edges", "churn_edges", "replication_factor",
            "relative_balance", "rf_oracle", "phase_seconds",
        }
        extras = {k: v for k, v in data.items() if k not in known}
        kwargs = {k: v for k, v in data.items() if k in known}
        return cls(extras=extras, **kwargs)


def plan_migrations(
    served: np.ndarray,
    ideal: np.ndarray,
    degree: np.ndarray,
    cap: int | None,
) -> MigrationPlan:
    """Diff the served map against the ideal map into a capped plan.

    Parameters
    ----------
    served:
        Current vertex->partition map (``-1`` = never placed).
    ideal:
        The map the refreshed equilibrium wants (``-1`` = not clustered).
    degree:
        Per-vertex stream degrees; the cap keeps the ``cap``
        highest-degree candidates (ties broken by ascending vertex id).
    cap:
        Per-batch move budget; ``None`` applies every candidate.

    Only vertices placed in *both* maps are candidates — initial
    placements are handled by the caller and never consume budget.  The
    returned plan's ``vertices`` are sorted ascending regardless of the
    selection order, so applying a plan is deterministic.
    """
    served = np.asarray(served)
    ideal = np.asarray(ideal)
    cand = np.flatnonzero((served >= 0) & (ideal >= 0) & (served != ideal))
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0 or None, got {cap}")
    if cap is not None and cand.size > cap:
        order = np.lexsort((cand, -np.asarray(degree)[cand]))
        keep = np.sort(cand[order[:cap]])
    else:
        keep = cand
    return MigrationPlan(
        vertices=keep,
        sources=served[keep].copy(),
        targets=ideal[keep].copy(),
        candidates=int(cand.size),
        cap=cap,
    )
