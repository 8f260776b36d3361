"""Pass 2 — game-theoretic cluster partitioning (Section V, Algorithm 3).

Each cluster is a selfish player choosing one of the ``k`` partitions to
minimize its individual cost (Equation 11)::

    phi(a_i) = (lambda / k) * w_i * |a_i|                  (load balancing)
             + 1/2 * (|e(c_i, V\\a_i)| + |e(V\\a_i, c_i)|)  (edge cutting)

where ``|a_i|`` is the summed weight of the players on partition ``a_i``.
The paper weighs a player by its internal edges, ``w_i = |c_i|``; here
``w_i = max(2|c_i|, cut(c_i))`` (:meth:`ClusterGraph.player_weights`).
Pass 3 puts a cluster's cut edges on one endpoint's partition too, so a
cluster with ``|c_i| = 0`` (R-MAT's and twitter's singletons) would
weigh nothing in the game while the cut pulls it onto its hub's
partition; the maximum charges it for the cut it brings.  Where
``2|c_i| >= cut(c_i)`` for every cluster the weights are ``2|c_i|``:
lambda_max (and lambda_balanced) scale by exactly 1/4, and every cost,
move and potential is bit-identical to the paper's game (power-of-two
scaling is exact in floating point; DESIGN.md §1).

The game is an *exact potential game* (Theorem 4) with potential
(Equation 13)::

    Phi(L) = (lambda / 2k) * sum_i |p_i|^2 + 1/2 * sum_i |e(p_i, V\\p_i)|

(``|p_i|`` the summed player weight on partition ``i``), so round-robin
best response converges to a pure Nash equilibrium; rounds
are bounded by the total inter-cluster edge count (Theorem 6), and the
equilibrium quality is bounded by PoA <= k+1 / PoS <= 2 (Theorems 7-8).

``lambda`` defaults to its Theorem-5 maximum
``k^2 * sum_i |e(c_i, V\\c_i)| / (sum_i w_i)^2`` (the paper's
experimental setting); Figure 11(b)'s *relative weight* knob scales the
load term by ``w / (1 - w)`` on top.

Engine and the oracle
---------------------
:class:`ClusterPartitioningGame` fuses each round into one
:mod:`repro.kernels` call (``game_round``, on either tier): the kernel
scores an evaluated cluster's ``k`` candidate costs against its
adjacency row — the weight between ``c`` and its neighbors currently
placed in each partition, both directions summed — rebuilt from its
out-row, then its in-row of the cluster graph, adds the
decision-preserving epoch skip rule, and maintains the potential in
O(1) per move instead of recomputing it per round (DESIGN.md §10).  The
kernel reads the graph's int64 arrays as they are, converting each
weight as it reads it: integer-valued sums below ``2**53``, exact in
any order, so neither a symmetrized copy nor an ``(m, k)`` table is
kept.

:func:`best_response_dynamics` is the pass-2 oracle, the counterpart of
:func:`~repro.core.clustering.streaming_clustering` and
:func:`~repro.core.transform.transform_partitions`: Algorithm 3 as the
paper writes it, every cluster rescored every round from its out- and
in-row of the cluster graph, no table, no skip rule.  All adjacency
weights are integers, so the engine on either tier and the oracle
produce bit-identical float costs and therefore identical move
sequences, round counts and potential traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .. import kernels
from .._util import adjacency_rows, as_rng, check_positive_int
from ..config import GameConfig
from .cluster_graph import ClusterGraph

__all__ = [
    "compute_lambda_max",
    "compute_lambda_balanced",
    "ClusterPartitioningGame",
    "GameResult",
    "best_response_dynamics",
    "exhaustive_optimum",
]

#: strict-improvement tolerance; moves must beat the current cost by this
#: much, which (with integer cut weights) guarantees termination.
_IMPROVEMENT_EPS = 1e-9

#: float64 holds every integer below this exactly.  The game kernel's
#: O(1)-maintained ``sum(loads**2)`` is exact only under it, and
#: ``sum(loads**2) <= (sum weights)**2`` bounds it before round 1.
_EXACT_INT_LIMIT = float(2**53)


def compute_lambda_max(cluster_graph: ClusterGraph, num_partitions: int) -> float:
    """Theorem-5 upper bound ``k^2 * sum(cut) / (sum w_i)^2``."""
    total_weight = int(cluster_graph.player_weights().sum())
    if total_weight == 0:
        return 0.0
    return (
        num_partitions**2 * cluster_graph.total_cut() / float(total_weight) ** 2
    )


def compute_lambda_balanced(
    cluster_graph: ClusterGraph, num_partitions: int, assignment: np.ndarray
) -> float:
    """Equation 15: ``lambda = k * sum(cut(p_i)) / sum(|p_i|^2)`` for the
    given assignment (equal-importance normalization)."""
    loads = np.bincount(
        assignment, weights=cluster_graph.player_weights(), minlength=num_partitions
    )
    denom = float(np.sum(loads**2))
    if denom == 0.0:
        return 0.0
    cut = _total_partition_cut(cluster_graph, assignment)
    return num_partitions * cut / denom


def _total_partition_cut(cluster_graph: ClusterGraph, assignment: np.ndarray) -> int:
    """``sum_i |e(p_i, V\\p_i)|`` — inter-partition edges (each once).

    One vectorized pass over the out-CSR: an inter-cluster edge is cut iff
    its endpoint clusters sit in different partitions.
    """
    if cluster_graph.indices.size == 0:
        return 0
    rows = cluster_graph.out_rows()
    cut_mask = assignment[rows] != assignment[cluster_graph.indices]
    return int(cluster_graph.weights[cut_mask].sum())


@dataclass
class GameResult:
    """Outcome of the cluster-partitioning game."""

    assignment: np.ndarray
    rounds: int
    moves: int
    lambda_value: float
    potential_trace: list[float] = field(default_factory=list)
    converged: bool = True
    #: committed moves as ``(cluster, from, to)`` in commit order; only
    #: populated by ``run(record_moves=True)`` (identity testing hook)
    move_log: list[tuple[int, int, int]] | None = None


class ClusterPartitioningGame:
    """Round-robin best-response dynamics for cluster partitioning.

    Parameters
    ----------
    cluster_graph:
        The weighted cluster digraph from pass 1/2 (CSR-backed).
    num_partitions:
        ``k``.
    config:
        Game parameters (lambda mode, relative weight, round cap, seed).
    initial_assignment:
        Optional warm start: a length-``m`` cluster->partition array that
        replaces Algorithm 3's random initialization.  The distributed
        merged mode seeds the coordinator's global game with the union of
        the per-node local equilibria, so global refinement starts from a
        state that is already locally consistent (and, with a single
        node, is a Nash equilibrium outright — the refinement run then
        proposes zero moves and the result is bit-identical to the
        single-machine game).
    """

    def __init__(
        self,
        cluster_graph: ClusterGraph,
        num_partitions: int,
        config: GameConfig | None = None,
        initial_assignment: np.ndarray | None = None,
    ) -> None:
        self.graph = cluster_graph
        self.k = check_positive_int(num_partitions, "num_partitions")
        self.config = config or GameConfig()
        self._backend = kernels.get_backend()
        m = cluster_graph.num_clusters
        if initial_assignment is None:
            rng = as_rng(self.config.seed)
            # Algorithm 3 line 2: random initial assignment
            self.assignment = rng.integers(0, self.k, size=m, dtype=np.int64)
        else:
            given = np.asarray(initial_assignment)
            if given.shape != (m,):
                raise ValueError(
                    f"initial_assignment must map all {m} clusters, "
                    f"got shape {given.shape}"
                )
            with np.errstate(invalid="ignore"):  # NaN / inf: refused below
                init = given.astype(np.int64)  # a copy: the game owns it
            if given.dtype.kind not in "biu" and not np.array_equal(init, given):
                raise ValueError("initial_assignment partitions must be whole numbers")
            if init.size and (int(init.min()) < 0 or int(init.max()) >= self.k):
                raise ValueError("initial_assignment partitions out of range")
            self.assignment = init
        #: each player's weight w_i, the one cluster size every reader uses
        self._sizes = cluster_graph.player_weights()
        # (astype: a bincount of no clusters is int64 zeros whatever the weights)
        self.loads = np.bincount(
            self.assignment, weights=self._sizes, minlength=self.k
        ).astype(np.float64, copy=False)
        self.lambda_value = self._resolve_lambda()
        w = self.config.relative_weight
        self._lambda_eff = self.lambda_value * (w / (1.0 - w))
        # the graph's own out- and in-CSR and int64 counts, read as they
        # are: every consumer converts a weight as it reads it (exact
        # below 2**53), so the game holds no float copy of the graph
        g = cluster_graph
        self._csrs = (
            (g.indptr, g.indices, g.weights),
            (g.in_indptr, g.in_indices, g.in_weights),
        )
        self._cut_degree = cluster_graph.cut_degrees()
        self._lam_over_k = self._lambda_eff / self.k

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #

    def _resolve_lambda(self) -> float:
        mode = self.config.lambda_mode
        if mode == "max":
            return compute_lambda_max(self.graph, self.k)
        if mode == "balanced":
            return compute_lambda_balanced(self.graph, self.k, self.assignment)
        return float(self.config.lambda_value)

    def _adjacency_row(self, c: int, assignment: np.ndarray) -> np.ndarray:
        """Neighbor weight of ``c`` into each partition (float64)."""
        return adjacency_rows(c, c + 1, self.k, assignment, self._csrs)[0]

    def cost_vector(self, c: int) -> np.ndarray:
        """Individual cost of cluster ``c`` for every partition choice.

        ``|a_i|`` is the partition load *with* the cluster placed there, so
        staying has cost based on the current load and moving accounts for
        the cluster's own size landing in the target.
        """
        size = float(self._sizes[c])
        cur = int(self.assignment[c])
        loads_wo = self.loads.copy()
        loads_wo[cur] -= size
        load_cost = (self._lambda_eff / self.k) * size * (loads_wo + size)
        cut_cost = 0.5 * (self._cut_degree[c] - self._adjacency_row(c, self.assignment))
        return load_cost + cut_cost

    def batch_cost_matrix(
        self, start: int, stop: int, assignment: np.ndarray, loads: np.ndarray
    ) -> np.ndarray:
        """Cost rows of clusters ``[start, stop)`` against a frozen state.

        ``result[c - start]`` equals :meth:`cost_vector` of ``c`` evaluated
        with ``assignment``/``loads`` in place of the live game state —
        bit-for-bit: every per-element float operation (the
        ``loads_wo + size`` add, the ``(lam_eff/k)*size`` scalar multiply,
        the halved cut delta, the final add) is the same single IEEE op
        the scalar path performs, and the adjacency rows are integer
        sums in float64, hence exact in any accumulation order.

        The block primitive of the vectorized :meth:`is_nash_equilibrium`
        scan: the rows come from one bincount over the block's out- and
        in-CSR slices, and every cost is one numpy expression over the
        ``(stop - start, k)`` matrix.
        """
        sizes = self._sizes[start:stop].astype(np.float64)
        cur = assignment[start:stop]
        costs = sizes[:, None] + loads[None, :]
        costs[np.arange(stop - start), cur] = (loads[cur] - sizes) + sizes
        costs *= (self._lam_over_k * sizes)[:, None]
        cut = self._cut_degree[start:stop, None] - adjacency_rows(
            start, stop, self.k, assignment, self._csrs
        )
        cut *= 0.5
        costs += cut
        return costs

    def individual_cost(self, c: int) -> float:
        """``phi(a_c)`` under the current assignment."""
        return float(self.cost_vector(c)[self.assignment[c]])

    def global_cost(self, assignment: np.ndarray | None = None) -> float:
        """``phi(Lambda)`` (Equation 10) for the given/current assignment."""
        a = self.assignment if assignment is None else np.asarray(assignment)
        loads = np.bincount(a, weights=self._sizes, minlength=self.k)
        cut = _total_partition_cut(self.graph, a)
        return float((self._lambda_eff / self.k) * np.sum(loads**2) + cut)

    def potential(self, assignment: np.ndarray | None = None) -> float:
        """Exact potential ``Phi(Lambda)`` (Equation 13)."""
        a = self.assignment if assignment is None else np.asarray(assignment)
        loads = np.bincount(a, weights=self._sizes, minlength=self.k)
        cut = _total_partition_cut(self.graph, a)
        return float((self._lambda_eff / (2 * self.k)) * np.sum(loads**2) + 0.5 * cut)

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #

    def best_response(self, c: int) -> bool:
        """Move cluster ``c`` to its cost-minimizing partition.

        Returns True iff the cluster strictly improved (and thus moved).
        """
        costs = self.cost_vector(c)
        cur = int(self.assignment[c])
        best = int(np.argmin(costs))
        if costs[best] < costs[cur] - _IMPROVEMENT_EPS:
            size = float(self._sizes[c])
            self.loads[cur] -= size
            self.loads[best] += size
            self.assignment[c] = best
            return True
        return False

    def run(self, record_moves: bool = False) -> GameResult:
        """Iterate best responses until Nash equilibrium (Algorithm 3).

        Each round is one fused ``game_round`` kernel call, which owns
        the load vector and the assignment array for the whole round and
        rebuilds each evaluated cluster's adjacency row from its out- and
        in-row of the cluster graph — no ``(m, k)`` table.  Two additions
        over the oracle, both decision-preserving (DESIGN.md §10):

        * the *epoch skip rule*: a cluster is rescored only when a
          neighbor moved, its own partition gained load, or any other
          partition lost load since its last evaluation (tracked by
          per-cluster ``nbr_epoch`` and per-partition ``inc``/``dec``
          load epochs) — costs are monotone in loads, so the prior
          no-move decision provably stands otherwise;
        * O(1) *potential maintenance*: ``sum(loads^2)`` and the total
          partition cut are updated by each mover's exact delta, and the
          per-round trace entry is priced from them with the same IEEE
          op sequence as :meth:`potential` — bit-identical while all
          quantities stay integer-valued below ``2**53``.  An instance
          whose load mass could exceed that (``(sum weights)**2 >=
          2**53``; the weights sum to about ``2|E|``, so from ~47M
          edges) has its trace priced by
          :meth:`potential` instead; the maintained value feeds the
          trace only, never a decision.  An end-of-game recompute
          parity check stays as the tripwire.

        Parameters
        ----------
        record_moves:
            Collect every committed move as ``(cluster, from, to)`` on
            ``GameResult.move_log`` — the cross-engine identity hook.
        """
        m = self.graph.num_clusters
        k = self.k
        backend = self._backend
        lam_over_k = self._lam_over_k
        # the kernel's epoch skip needs lam_over_k >= 0: GameConfig
        # refuses a negative or NaN lambda_value, and lambda_max /
        # lambda_balanced are >= 0
        last_eval = np.full(m, -1, dtype=np.int64)
        nbr_epoch = np.zeros(m, dtype=np.int64)
        inc_epoch = np.zeros(k, dtype=np.int64)
        dec_epoch = np.zeros(k, dtype=np.int64)
        counters = np.zeros(1, dtype=np.int64)
        phi = np.array(
            [
                np.sum(self.loads**2),
                float(_total_partition_cut(self.graph, self.assignment)),
            ],
            dtype=np.float64,
        )
        lam_over_2k = self._lambda_eff / (2 * k)
        exact = float(self._sizes.sum()) ** 2 < _EXACT_INT_LIMIT

        def priced() -> float:
            # the op sequence of potential() over the maintained [S, C]
            if exact:
                return float(lam_over_2k * phi[0] + 0.5 * phi[1])
            return self.potential()

        # the seed of phi already is the starting assignment's [S, C]:
        # pricing it needs no second cut sum and load bincount
        trace = [priced()]
        move_buf = np.empty(2 * m, dtype=np.int64)
        cost_buf = np.empty(k, dtype=np.float64)
        row_buf = np.empty(k, dtype=np.float64)
        move_log: list[tuple[int, int, int]] | None = None
        shadow: np.ndarray | None = None
        if record_moves:
            move_log = []
            shadow = self.assignment.copy()
        total_moves = 0
        rounds = 0
        converged = False
        for rounds in range(1, self.config.max_rounds + 1):
            moves = int(
                backend.game_round(
                    k, lam_over_k, _IMPROVEMENT_EPS,
                    *self._csrs[0], *self._csrs[1],
                    self._sizes, self._cut_degree,
                    self.assignment, self.loads,
                    last_eval, nbr_epoch, inc_epoch, dec_epoch,
                    counters, phi, move_buf, cost_buf, row_buf,
                )
            )
            total_moves += moves
            trace.append(priced())
            if move_log is not None:
                for i in range(moves):
                    c = int(move_buf[2 * i])
                    best = int(move_buf[2 * i + 1])
                    move_log.append((c, int(shadow[c]), best))
                    shadow[c] = best
            if moves == 0:
                converged = True
                break
        recomputed = self.potential()
        maintained = trace[-1]
        if abs(maintained - recomputed) > 1e-9 * max(1.0, abs(recomputed)):
            raise RuntimeError(
                f"incremental potential drifted from the recomputed value: "
                f"{maintained!r} != {recomputed!r}"
            )
        return GameResult(
            assignment=self.assignment.copy(),
            rounds=rounds,
            moves=total_moves,
            lambda_value=self.lambda_value,
            potential_trace=trace,
            converged=converged,
            move_log=move_log,
        )

    #: block width of the vectorized equilibrium scan (bounds the cost
    #: matrix materialized per step to block * k float64 cells)
    _NASH_BLOCK = 4096

    def is_nash_equilibrium(self) -> bool:
        """True iff no cluster has a strictly improving move.

        Scans blocks of :meth:`batch_cost_matrix` rows.  Same verdict as a
        per-cluster :meth:`cost_vector` loop: the batch rows are
        bit-identical to the per-cluster costs, and the per-row
        ``min < cost[cur] - eps`` test is the same scalar comparison.
        """
        m = self.graph.num_clusters
        for start in range(0, m, self._NASH_BLOCK):
            stop = min(start + self._NASH_BLOCK, m)
            costs = self.batch_cost_matrix(start, stop, self.assignment, self.loads)
            cur = self.assignment[start:stop]
            staying = costs[np.arange(stop - start), cur]
            if bool((costs.min(axis=1) < staying - _IMPROVEMENT_EPS).any()):
                return False
        return True


def best_response_dynamics(
    cluster_graph: ClusterGraph,
    num_partitions: int,
    config: GameConfig | None = None,
    initial_assignment: np.ndarray | None = None,
) -> GameResult:
    """Algorithm 3 as the paper writes it — the pass-2 oracle.

    Round-robin over every cluster, every round: each one is rescored
    from its out- and in-row of the cluster graph
    (:meth:`ClusterPartitioningGame.best_response`) and moved if it
    strictly improves; a round with no move ends the game.  No adjacency
    table, no skip rule, no kernel — what :meth:`ClusterPartitioningGame.
    run` must reproduce bit for bit, ``move_log`` and
    ``potential_trace`` included.
    """
    game = ClusterPartitioningGame(
        cluster_graph, num_partitions, config, initial_assignment=initial_assignment
    )
    trace = [game.potential()]
    move_log: list[tuple[int, int, int]] = []
    rounds = 0
    converged = False
    for rounds in range(1, game.config.max_rounds + 1):
        moved = len(move_log)
        for c in range(cluster_graph.num_clusters):
            cur = int(game.assignment[c])
            if game.best_response(c):
                move_log.append((c, cur, int(game.assignment[c])))
        trace.append(game.potential())
        if len(move_log) == moved:
            converged = True
            break
    return GameResult(
        assignment=game.assignment.copy(),
        rounds=rounds,
        moves=len(move_log),
        lambda_value=game.lambda_value,
        potential_trace=trace,
        converged=converged,
        move_log=move_log,
    )


def exhaustive_optimum(
    cluster_graph: ClusterGraph,
    num_partitions: int,
    lambda_value: float,
) -> tuple[np.ndarray, float]:
    """Brute-force the global optimum of Equation 10 (tiny instances only).

    Used by the PoA/PoS bound tests (Theorems 7-8).  Complexity
    ``k^m`` — guarded to ``k^m <= 2**20``.
    """
    m = cluster_graph.num_clusters
    k = num_partitions
    if k**m > 1 << 20:
        raise ValueError(f"instance too large for brute force: k^m = {k}^{m}")
    weights = cluster_graph.player_weights().astype(np.float64)
    best_cost = np.inf
    best: np.ndarray | None = None
    for combo in product(range(k), repeat=m):
        a = np.asarray(combo, dtype=np.int64)
        loads = np.bincount(a, weights=weights, minlength=k)
        cut = _total_partition_cut(cluster_graph, a)
        cost = (lambda_value / k) * float(np.sum(loads**2)) + cut
        if cost < best_cost:
            best_cost = cost
            best = a
    assert best is not None
    return best, float(best_cost)
