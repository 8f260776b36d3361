"""Parallel batched cluster-partitioning game (Section V-D, Figure 1(d)).

The sequential game (Algorithm 3) is compute-bound, so the paper batches
clusters by *consecutive ids* — streaming clustering preserves graph
locality, so id-adjacent clusters are structurally adjacent — and hands
each batch to a partitioning thread.  Threads best-respond their batch
against a snapshot of the global loads; moves are applied at batch
barriers, and outer rounds repeat until no cluster moves.

Batched evaluation (PR 3): a thread no longer loops per cluster — it
scores its whole remaining batch as one ``(batch, k)`` cost matrix
(:meth:`ClusterPartitioningGame.batch_cost_matrix`: segmented bincount
over the batch's out- and in-CSR slices + one matrix expression — in the kernel
tier the rows come from the compiled ``game_cost_rows`` primitive
instead, bit-identically), commits every cluster before the
first mover wholesale (their frozen evaluation *is* the sequential
one), applies that mover, and re-scores only the perturbed suffix.  Mover-dense stretches fall back to the retained
sequential loop (:func:`_batch_best_response_reference`); proposed moves
are identical either way.

Notes on fidelity: the paper's Java implementation shares a lock-free load
table; under CPython the thread pool mostly pipelines numpy work, so we
report both wall time and *work units* (cost evaluations) — the scalability
shape of Figure 10 comes from the batching structure, not the GIL.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..config import GameConfig
from .cluster_graph import ClusterGraph
from .game import _IMPROVEMENT_EPS, ClusterPartitioningGame, GameResult

__all__ = ["parallel_game"]

#: movers seen in one vectorized suffix evaluation above which the batch
#: falls back to the sequential per-cluster loop: each extra mover forces
#: a full suffix re-evaluation (loads changed), so mover-dense early
#: rounds are cheaper sequentially while the quiet late rounds — the vast
#: majority — settle in a single matrix evaluation per batch.
_SCALAR_FALLBACK_MOVERS = 8


def _batch_best_response_reference(
    game: ClusterPartitioningGame,
    batch: range,
    assignment_snapshot: np.ndarray,
    loads_snapshot: np.ndarray,
) -> list[tuple[int, int]]:
    """Per-cluster best responses for ``batch`` against frozen global state.

    Returns proposed moves ``(cluster, new_partition)``.  Within the batch
    the snapshot is updated locally so the thread's own decisions compose
    (this mirrors the paper's per-thread task that finds the equilibrium of
    its batch).  Each cluster's adjacency is one bincount over its out-row
    and in-row of the cluster graph.

    This is the sequential reference loop: the correctness oracle for the
    batched evaluator below, and the fallback it hands mover-dense
    stretches to.
    """
    k = game.k
    lam_eff = game._lambda_eff
    internal = game.graph.internal
    moves: list[tuple[int, int]] = []
    local_assign = assignment_snapshot
    local_loads = loads_snapshot
    for c in batch:
        size = float(internal[c])
        cur = int(local_assign[c])
        loads_wo = local_loads.copy()
        loads_wo[cur] -= size
        load_cost = (lam_eff / k) * size * (loads_wo + size)
        cut_cost = 0.5 * (game._cut_degree[c] - game._adjacency_row(c, local_assign))
        costs = load_cost + cut_cost
        best = int(np.argmin(costs))
        if costs[best] < costs[cur] - _IMPROVEMENT_EPS:
            moves.append((c, best))
            local_assign[c] = best
            local_loads[cur] -= size
            local_loads[best] += size
    return moves


def _batch_best_response(
    game: ClusterPartitioningGame,
    batch: range,
    assignment_snapshot: np.ndarray,
    loads_snapshot: np.ndarray,
) -> list[tuple[int, int]]:
    """Batched best responses: vectorized suffix evaluation with exact
    sequential semantics.

    The whole remaining batch is scored as one
    :meth:`~repro.core.game.ClusterPartitioningGame.batch_cost_matrix`
    call (one segmented bincount over the batch's two CSR slices + one
    matrix expression).  Every cluster before the first mover provably repeats
    its sequential no-move decision (the frozen state it was scored
    against *is* the state the sequential loop would see), so the scan
    commits all of them at once, applies the first mover, and re-evaluates
    only the suffix whose loads that move perturbed.  Proposed moves are
    identical to :func:`_batch_best_response_reference` — enforced by
    tests and the bench identity check — because the cost kernel is
    bit-for-bit the same expression.

    Quiet batches (no mover, the common case once the game approaches
    equilibrium) cost a single matrix evaluation; mover-dense stretches
    are handed to the sequential reference loop, which is cheaper than
    one re-evaluation per mover.
    """
    internal = game.graph.internal
    moves: list[tuple[int, int]] = []
    local_assign = assignment_snapshot
    local_loads = loads_snapshot
    s = batch.start
    stop = batch.stop
    while s < stop:
        costs = game.batch_cost_matrix(s, stop, local_assign, local_loads)
        rows = np.arange(stop - s)
        cur = local_assign[s:stop]
        best = costs.argmin(axis=1)
        improves = costs[rows, best] < costs[rows, cur] - _IMPROVEMENT_EPS
        num_movers = int(improves.sum())
        if num_movers == 0:
            break
        first = int(np.argmax(improves))
        c = s + first
        target = int(best[first])
        size = float(internal[c])
        current = int(local_assign[c])
        moves.append((c, target))
        local_assign[c] = target
        local_loads[current] -= size
        local_loads[target] += size
        s = c + 1
        if num_movers - 1 > _SCALAR_FALLBACK_MOVERS:
            moves.extend(
                _batch_best_response_reference(
                    game, range(s, stop), local_assign, local_loads
                )
            )
            break
    return moves


def parallel_game(
    cluster_graph: ClusterGraph,
    num_partitions: int,
    config: GameConfig | None = None,
    initial_assignment: np.ndarray | None = None,
) -> GameResult:
    """Run the batched multi-threaded game; same result type as the
    sequential :meth:`ClusterPartitioningGame.run`.

    Batches are contiguous id ranges of ``config.batch_size`` clusters;
    ``config.num_threads`` threads process batches concurrently.  Outer
    rounds repeat until a full round proposes no move (a batch-consistent
    equilibrium) or ``config.max_rounds`` is hit.  ``initial_assignment``
    replaces the random initialization (the distributed coordinator's
    warm-started global refinement).
    """
    config = config or GameConfig()
    game = ClusterPartitioningGame(
        cluster_graph, num_partitions, config, initial_assignment=initial_assignment
    )
    m = cluster_graph.num_clusters
    if m == 0:
        return GameResult(
            assignment=game.assignment.copy(),
            rounds=0,
            moves=0,
            lambda_value=game.lambda_value,
            potential_trace=[game.potential()],
        )
    batches = [
        range(start, min(start + config.batch_size, m))
        for start in range(0, m, config.batch_size)
    ]
    trace = [game.potential()]
    total_moves = 0
    rounds = 0
    converged = False
    with ThreadPoolExecutor(max_workers=config.num_threads) as pool:
        for rounds in range(1, config.max_rounds + 1):
            snapshot_assign = game.assignment.copy()
            snapshot_loads = game.loads.copy()
            futures = [
                pool.submit(
                    _batch_best_response,
                    game,
                    batch,
                    snapshot_assign.copy(),
                    snapshot_loads.copy(),
                )
                for batch in batches
            ]
            proposed = [mv for fut in futures for mv in fut.result()]
            # apply moves at the barrier, re-validating against true state:
            # accept a move only if it still strictly improves (stale
            # snapshots can propose conflicting moves).
            applied = 0
            for c, target in proposed:
                costs = game.cost_vector(c)
                cur = int(game.assignment[c])
                if costs[target] < costs[cur] - _IMPROVEMENT_EPS:
                    size = float(game.graph.internal[c])
                    game.loads[cur] -= size
                    game.loads[target] += size
                    game.assignment[c] = target
                    applied += 1
            total_moves += applied
            trace.append(game.potential())
            if applied == 0:
                converged = True
                break
    return GameResult(
        assignment=game.assignment.copy(),
        rounds=rounds,
        moves=total_moves,
        lambda_value=game.lambda_value,
        potential_trace=trace,
        converged=converged,
    )
