"""Every tier :mod:`repro.kernels` can resolve is bit-identical to the oracles.

The :mod:`repro.kernels` backends re-implement the scalar decision cores
(HDRF, greedy, CLUGP pass-1 replay + pass-3 transform tail) in compiled
code.  DESIGN.md §8 argues bit-identity holds by construction: the
kernels transliterate the per-edge reference semantics — same operation
order, same IEEE doubles for HDRF, integer-only state everywhere else.
This module is the enforcement, and :func:`test_streaming_three_way_identity`
is *the* identity test of the partitioner contract: for every registered
partitioner, awkward chunk size and tier — each forced the one way that
is left, ``conftest.kernel_backend`` (``CLUGP_KERNEL_BACKEND``) —
``partition(stream, chunk_size=c)`` ≡ ``partition_per_edge(stream)`` as
bytes, CLUGP's per-pass products included, over a randomly ordered
crawl and (:func:`test_streaming_identity_in_bfs_order`) the same crawl
in BFS order.  Corner inputs (empty and degenerate streams, multiword
masks, HDRF's parameter space, Mint batches straddling chunks, DBH's
exact variant) are rows of ``CASES``, not files of their own; collision-heavy hypothesis streams, the spill-heavy tau=1.0
transform, the checkpoint shapes a pass-1 state refuses to restore and
the degradation contract when ``cc`` does not build follow.

The ``python`` tier's tests always run (no compiler needed), so every
kernel is exercised even on machines where :func:`kernels.available` is
False; everything touching a compiled backend is skip-marked cleanly.
"""

import logging
import subprocess

import numpy as np
import pytest
from conftest import (
    BACKENDS,
    assert_clustering_equal,
    kernel_backend,
    needs_compiled,
)
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.config import ClugpConfig, GameConfig
from repro.core.clustering import ClusteringState, streaming_clustering
from repro.core.partitioner import ClugpPartitioner
from repro.core.transform import TransformState, transform_partitions
from repro.graph.generators import web_crawl_graph
from repro.graph.stream import EdgeStream
from repro.kernels import _cc_backend
from repro.partitioners.registry import PARTITIONERS, make_partitioner

CHUNK_SIZES = [1, 7, 509, 65_536, "all"]  # "all" = |E|: one whole-stream chunk


@pytest.fixture(scope="module")
def graph():
    return web_crawl_graph(400, avg_out_degree=6.0, host_size=16, intra_host_prob=0.85, seed=11)


@pytest.fixture(scope="module")
def stream(graph):
    return EdgeStream.from_graph(graph, order="random", seed=3)


@pytest.fixture(scope="module")
def bfs_stream(graph):
    # the order the paper says web graphs arrive in (Section II): a page's
    # out-links back to back, so long runs of a chunk hit the same few
    # clusters and vertices
    return EdgeStream.from_graph(graph, order="bfs")


def _make(name, k, backend, **kwargs):
    with kernel_backend(backend):
        return make_partitioner(name, k, seed=1, **kwargs)


#: the degenerate streams every partitioner must survive: nothing, one
#: edge, and self-loops + duplicate + parallel edges over three vertices
TINY = [
    EdgeStream([], [], num_vertices=0),
    EdgeStream([0], [1], num_vertices=2),
    EdgeStream([0, 0, 1, 1, 0, 2, 2, 1], [0, 1, 1, 0, 1, 2, 0, 1], num_vertices=3),
]

#: every input of the differential: id -> (registry name, k, ctor kwargs,
#: streams — None = the module's crawl fixture)
CASES = {name: (name, 8, {}, None) for name in sorted(PARTITIONERS)}
CASES.update({f"{name}-tiny": (name, 3, {}, TINY) for name in sorted(PARTITIONERS)})
for _name in ("hdrf", "greedy"):
    # k = 1 is the degenerate partition space, k = 64 the top bit of one
    # mask word, k = 65 the first bit of the second, k = 100 two uint64
    # words per vertex row, k = 128 two full ones
    CASES.update({f"{_name}-k{k}": (_name, k, {}, None) for k in (1, 64, 65, 100, 128)})
# lambda_bal = 0 is the all-scores-tie regime where the reference argmax
# collapses to partition 0; large lambda_bal defeats the python tier's
# members-only shortcut and forces its exact full-scan fallback
CASES.update({
    f"hdrf-lam{lam}-eps{eps}": ("hdrf", 6, {"lambda_bal": lam, "epsilon": eps}, None)
    for lam in (0.0, 0.5, 3.0) for eps in (0.25, 1.0)
})
# a balance scale lam / (eps + max - min) that overflows to inf: inf * 0
# is a nan score, and both tiers must take the exact k-scan
CASES.update({
    f"hdrf-lam{lam}-eps{eps}": ("hdrf", 6, {"lambda_bal": float(lam), "epsilon": float(eps)}, None)
    for lam, eps in (("1e300", "1e-10"), ("1e308", "5e-324"))
})
# 256 is coprime with the chunk sizes 7 and 509: games straddle chunks
CASES["mint-batch256"] = ("mint", 4, {"batch_size": 256}, None)
# Mint's other knobs: batches of one edge (a game per edge), no balance
# term, a balance term that outweighs every replica, no best-response
# round (the hashed start stands) and a single round
CASES["mint-batch1"] = ("mint", 4, {"batch_size": 1}, None)
CASES.update({
    f"mint-alpha{alpha:g}": ("mint", 4, {"alpha": alpha}, None) for alpha in (0.0, 8.0)
})
CASES.update({
    f"mint-rounds{r}": ("mint", 4, {"max_rounds": r}, None) for r in (0, 1)
})
CASES["dbh-exact"] = ("dbh", 8, {"exact_degrees": True}, None)
# CLUGP's knobs: the tightest balance cap (pass 3 spills the most edges),
# the same at k = 130, where the spill reads the replica summary's
# recent-partition fields, small clusters without and with the paper's
# split rule (pass 1 splits often), the split rule at the default
# V_max = |E| / k (Figure 9's CLUGP; ~350 of the crawl's 400 vertices
# split, and pass 3 reuses their mirrors), and k = 1, where the game has
# one strategy
CASES["clugp-imb1"] = ("clugp", 8, {"imbalance_factor": 1.0}, None)
CASES["clugp-k130-imb1"] = ("clugp", 130, {"imbalance_factor": 1.0}, None)
CASES["clugp-vol32"] = ("clugp", 8, {"max_cluster_volume": 32}, None)
CASES["clugp-split"] = ("clugp", 8, {"config": ClugpConfig(enable_splitting=True)}, None)
CASES["clugp-split-vol32"] = (
    "clugp", 8,
    {"config": ClugpConfig(enable_splitting=True, max_cluster_volume=32)}, None,
)
CASES["clugp-k1"] = ("clugp", 1, {}, None)

_oracles = {}


def _oracle(name, k, kwargs, stream):
    """The partitioner ``partition_per_edge(stream)`` ran on (it keeps
    CLUGP's per-pass products) and the answer's bytes.  Memoized: the
    oracle takes no chunk size and runs no kernel."""
    key = (
        name, k, tuple(sorted(kwargs.items())),
        stream.num_vertices, stream.src.tobytes(), stream.dst.tobytes(),
    )
    if key not in _oracles:
        partitioner = make_partitioner(name, k, seed=1, **kwargs)
        answer = partitioner.partition_per_edge(stream).edge_partition
        _oracles[key] = partitioner, answer.tobytes()
    return _oracles[key]


def _assert_identity(name, k, kwargs, stream, chunk_size, backend):
    oracle, answer = _oracle(name, k, kwargs, stream)
    engine = _make(name, k, backend, **kwargs)
    got = engine.partition(stream, chunk_size=chunk_size).edge_partition
    assert got.dtype == np.int64 and got.tobytes() == answer
    if not isinstance(engine, ClugpPartitioner):
        return
    # not just the final array: every pass's product matches the oracle's
    assert_clustering_equal(oracle.last_clustering, engine.last_clustering)
    for field in ("assignment", "rounds", "moves", "potential_trace"):
        a = getattr(oracle.last_game_result, field)
        assert np.array_equal(a, getattr(engine.last_game_result, field)), field
    for field in ("agreement", "mirror_reuse", "degree_cut", "balance_spill"):
        assert getattr(oracle.last_transform_stats, field) == getattr(
            engine.last_transform_stats, field
        )
    assert engine.last_transform_stats.total() == stream.num_edges


# --------------------------------------------------------------------- #
# probe / resolution API
# --------------------------------------------------------------------- #


def test_backend_names_and_probe_never_raise():
    # import-safe contract: probing must work on any machine, and every
    # name resolves to a backend
    assert kernels.available() in (True, False)
    assert "none" not in kernels.BACKEND_NAMES
    for name in kernels.BACKEND_NAMES:
        assert hasattr(kernels.get_backend(name), "hdrf_chunk")


def test_get_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.get_backend("fortran")


def test_python_backend_always_available():
    backend = kernels.get_backend("python")
    assert backend is not None and backend.name == "python"


def test_env_override_respected(monkeypatch):
    monkeypatch.setenv("CLUGP_KERNEL_BACKEND", "python")
    assert kernels.backend_name() == "python"
    monkeypatch.setenv("CLUGP_KERNEL_BACKEND", "cobol")
    with pytest.raises(ValueError, match="CLUGP_KERNEL_BACKEND"):
        kernels.get_backend()


def test_warmup_is_idempotent():
    first = kernels.warmup("python")
    second = kernels.warmup("python")
    assert first == second == "python"


@needs_compiled
def test_warmup_resolves_compiled_backend(monkeypatch):
    monkeypatch.delenv("CLUGP_KERNEL_BACKEND", raising=False)
    assert kernels.warmup() == "cc"


def test_popcount_matches_python_bit_count():
    rng = np.random.default_rng(0)
    words = rng.integers(0, 2**63, size=37, dtype=np.int64).view(np.uint64)
    assert kernels.popcount(words) == sum(int(w).bit_count() for w in words)


def test_config_validates_kernel_fields():
    # the selectors and the batched game's knobs are not fields any more,
    # but older checkpoints carry them: from_dict drops exactly those
    # keys, at any value, and still rejects any other unknown one
    old = ClugpConfig(num_partitions=4, game=GameConfig(seed=3)).to_dict()
    old.update(chunk_impl="fast", kernel_backend="cc")
    old["game"].update(
        game_impl="reference", kernel_backend="none", batch_size=64, num_threads=4
    )
    for parallel_game in (False, True):
        assert ClugpConfig.from_dict({**old, "parallel_game": parallel_game}) == (
            ClugpConfig(num_partitions=4, game=GameConfig(seed=3))
        )
    with pytest.raises(TypeError):
        ClugpConfig(parallel_game=True)
    with pytest.raises(TypeError):
        GameConfig(batch_size=64)
    with pytest.raises(TypeError):
        ClugpConfig.from_dict({**old, "vectorized": True})
    with pytest.raises(TypeError):
        ClugpConfig.from_dict({**old, "game": {**old["game"], "chunk_impl": "jit"}})


# --------------------------------------------------------------------- #
# the differential: partition(chunk_size=c) == per-edge oracle, for every
# registered partitioner, chunk size and loadable tier
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("case", CASES)
def test_streaming_three_way_identity(case, chunk_size, backend, stream):
    name, k, kwargs, streams = CASES[case]
    for s in streams or [stream]:
        c = max(1, s.num_edges) if chunk_size == "all" else chunk_size
        _assert_identity(name, k, kwargs, s, c, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("case", [case for case, row in CASES.items() if row[3] is None])
def test_streaming_identity_in_bfs_order(case, chunk_size, backend, bfs_stream):
    # the same differential over the crawl-ordered stream; the python
    # tier converts the rows a chunk touches in and out, and here one
    # chunk touches a row many times in a row
    name, k, kwargs, _ = CASES[case]
    c = bfs_stream.num_edges if chunk_size == "all" else chunk_size
    _assert_identity(name, k, kwargs, bfs_stream, c, backend)


edge_lists = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    min_size=1,
    max_size=120,
)
#: the partitioners whose answer could depend on where a chunk ends
CHUNK_STREAMING = ["hashing", "dbh", "greedy", "hdrf", "mint", "clugp", "clugp-g"]


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    pairs=edge_lists,
    chunk_size=st.integers(1, 130),
    k=st.integers(1, 9),
    name=st.sampled_from(CHUNK_STREAMING),
    lambda_bal=st.sampled_from([0.0, 0.7, 1.0, 2.5]),
)
@settings(max_examples=60, deadline=None)
def test_identity_on_collision_heavy_streams(backend, pairs, chunk_size, k, name, lambda_bal):
    # 5 vertices x up to 120 edges: every edge collides with prior state —
    # the within-chunk occurrence machinery behind HDRF's degree precompute
    # and the candidate-shortcut guards of both numpy-tier cores
    kwargs = {"lambda_bal": lambda_bal} if name == "hdrf" else {}
    _assert_identity(name, k, kwargs, _tiny_stream(pairs), chunk_size, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_replica_accounting_matches(backend, stream):
    # the run must report the replica table size the oracle counts
    for name in ("hdrf", "greedy"):
        oracle, _ = _oracle(name, 8, {}, stream)
        engine = _make(name, 8, backend)
        engine.partition(stream, chunk_size=311)
        assert oracle._replica_entries == engine._replica_entries
        assert oracle.state_memory_bytes(stream) == engine.state_memory_bytes(stream)


# --------------------------------------------------------------------- #
# clustering replay (pass 1)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("enable_splitting", [True, False])
def test_clustering_state_identity(backend, enable_splitting, stream):
    vmax = max(1, stream.num_edges // 8)
    oracle = streaming_clustering(
        stream, vmax, enable_splitting=enable_splitting
    )
    with kernel_backend(backend):
        state = ClusteringState(stream.num_vertices, vmax, enable_splitting)
    assert_clustering_equal(oracle, state.run(stream, 611))


@pytest.mark.parametrize("backend", BACKENDS)
def test_clustering_tiny_vmax_splitting_storm(backend, stream):
    # vmax=5 forces constant splitting/migration — the worst-case replay
    oracle = streaming_clustering(stream, 5, enable_splitting=True)
    with kernel_backend(backend):
        state = ClusteringState(stream.num_vertices, 5, enable_splitting=True)
    assert_clustering_equal(oracle, state.run(stream, 13))


def _cut_rows(arrays, rows=3):
    return {**arrays, **{key: arrays[key][:rows] for key in ("clu", "deg", "div")}}


def _shift(key, by):
    return lambda arrays: {**arrays, key: arrays[key] + by}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "corrupt",
    [
        _cut_rows,
        _shift("clu", 100),
        _shift("clu", -5),
        lambda arrays: {**arrays, "deg": arrays["deg"][:-1]},
        lambda arrays: {**arrays, "div": arrays["div"][:-1]},
        lambda arrays: {**arrays, "vol": arrays["vol"][:1]},
    ],
    ids=["rows", "clu-high", "clu-low", "deg-rows", "div-rows", "vol-short"],
)
def test_from_state_refuses_what_the_kernel_cannot_index(backend, corrupt):
    # the kernels index the restored tables with vertex and raw cluster
    # ids: a checkpoint they do not fit is refused at restore, before an
    # ingest reads past a table (cc died with SIGSEGV on the cut rows)
    with kernel_backend(backend):
        state = ClusteringState(10, 4, enable_splitting=True)
        state.ingest_pair([0, 1, 1, 2, 2, 0, 3], [1, 2, 2, 0, 3, 3, 1])
        arrays, meta = state.state_dict()
        assert state.splits  # a split cluster for vol-short to drop
        restored = ClusteringState.from_state(arrays, meta)
        restored.ingest_pair([9, 8], [8, 7])
        with pytest.raises(ValueError, match="checkpoint"):
            ClusteringState.from_state(corrupt(arrays), meta)


# --------------------------------------------------------------------- #
# transform tail (pass 3)
# --------------------------------------------------------------------- #


def _clustered(stream, k):
    vmax = max(1, stream.num_edges // k)
    clustering = streaming_clustering(stream, vmax, enable_splitting=True)
    rng = np.random.default_rng(7)
    cluster_partition = rng.integers(0, k, size=clustering.num_clusters)
    return clustering, cluster_partition.astype(np.int64)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("tau", [1.0, 1.05])
def test_transform_identity_including_spills(backend, tau, stream):
    # tau=1.0 binds the cap tightly -> heavy balance-spill traffic
    k = 8
    clustering, cluster_partition = _clustered(stream, k)
    oracle, stats_oracle = transform_partitions(
        stream, clustering, cluster_partition, k, imbalance_factor=tau
    )
    with kernel_backend(backend):
        state = TransformState(
            clustering, cluster_partition, k, num_edges=stream.num_edges,
            num_vertices=stream.num_vertices, imbalance_factor=tau,
        )
    jit = np.empty_like(oracle)
    state.run(stream, 389, jit)
    assert np.array_equal(oracle, jit)
    for field in ("agreement", "mirror_reuse", "degree_cut", "balance_spill"):
        assert getattr(stats_oracle, field) == getattr(state.stats, field)


@pytest.mark.parametrize("backend", BACKENDS)
def test_transform_rejects_unmapped_vertex(backend, stream):
    # a -1 vertex_partition entry must raise in the kernel tier as in numpy
    k = 4
    clustering, cluster_partition = _clustered(stream, k)
    vp = cluster_partition[clustering.cluster_of]
    vp[int(stream.src[0])] = -1
    with kernel_backend(backend):
        state = TransformState(
            clustering, None, k,
            num_edges=stream.num_edges,
            num_vertices=stream.num_vertices,
            vertex_partition=vp,
        )
    with pytest.raises(ValueError, match="does not cover"):
        state.ingest_pair(stream.src, stream.dst)


# --------------------------------------------------------------------- #
# full pipeline: the override reaches every seam
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
def test_clugp_partitioner_config_threads_jit(backend, stream, spy):
    with kernel_backend(backend):
        expected = kernels.get_backend()
        partitioner = ClugpPartitioner(8, seed=1, config=ClugpConfig(num_partitions=8))
        partitioner.partition(stream, chunk_size=1024)
    assert list(spy.values()) == [[expected]] * 3


def test_clugp_partitioner_ctor_overrides():
    # the implementation overrides and ``parallel=`` are gone; the rest
    # still land
    p = ClugpPartitioner(8, imbalance_factor=1.2, game=GameConfig(seed=9))
    assert p.config.imbalance_factor == 1.2
    assert p.config.game.max_rounds == GameConfig().max_rounds
    with pytest.raises(TypeError):
        ClugpPartitioner(8, parallel=True)


# --------------------------------------------------------------------- #
# collision-heavy property streams
# --------------------------------------------------------------------- #


def _tiny_stream(pairs):
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    return EdgeStream(src, dst, 5)


@given(pairs=edge_lists, chunk_size=st.sampled_from([1, 3, 64]))
@settings(max_examples=40, deadline=None)
def test_hypothesis_clustering_identity_python_backend(pairs, chunk_size):
    tiny = _tiny_stream(pairs)
    oracle = streaming_clustering(tiny, 3, enable_splitting=True)
    with kernel_backend("python"):
        state = ClusteringState(tiny.num_vertices, 3, enable_splitting=True)
    assert_clustering_equal(oracle, state.run(tiny, chunk_size))


@pytest.mark.parametrize(
    "compiled,reason",
    [
        (subprocess.TimeoutExpired("cc", 120), "timed out after 120 s"),
        (subprocess.CompletedProcess([], 1, "", "kernels.c:9: error: boom\n"),
         "exited 1: kernels.c:9: error: boom"),
    ],
    ids=["timeout", "exit"],
)
def test_failed_build_names_its_step_and_leaves_no_file(monkeypatch, tmp_path, compiled, reason):
    if _cc_backend._find_compiler() is None:
        pytest.skip("no C compiler: the build fails before compiling")

    def run(*args, **kwargs):
        if isinstance(compiled, Exception):
            raise compiled
        return compiled

    monkeypatch.setenv("CLUGP_KERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(_cc_backend.subprocess, "run", run)
    monkeypatch.setattr(kernels, "_cache", {})
    monkeypatch.setattr(kernels, "_failures", {})
    assert kernels._load("cc") is None
    assert reason in kernels._failures["cc"]
    assert list(tmp_path.iterdir()) == []  # the compiler's temp output is gone


class TestDegradationReporting:
    """A failed backend resolution warns once, or raises when required."""

    @pytest.fixture
    def broken_kernels(self, monkeypatch):
        """Force the compiled backend to look unavailable."""
        monkeypatch.setattr(kernels, "_cache", {"cc": None})
        monkeypatch.setattr(kernels, "_failures", {"cc": "no C compiler found"})
        monkeypatch.setattr(kernels, "_warned_degraded", False)
        monkeypatch.delenv("CLUGP_KERNEL_BACKEND", raising=False)
        monkeypatch.delenv(kernels.ENV_REQUIRE, raising=False)
        return kernels

    def test_broken_cc_resolves_python_with_one_warning(self, broken_kernels, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            for name in ("auto", "cc", None):
                assert broken_kernels.get_backend(name).name == "python"
            assert broken_kernels.backend_name() == "python"
            assert broken_kernels.warmup() == "python"
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert "cc: no C compiler found" in message
        assert "python kernels" in message

    def test_env_none_is_an_unknown_name(self, broken_kernels, monkeypatch):
        monkeypatch.setenv("CLUGP_KERNEL_BACKEND", "none")
        with pytest.raises(ValueError, match="not one of") as err:
            broken_kernels.get_backend()
        assert str(kernels.BACKEND_NAMES) in str(err.value)

    @pytest.fixture
    def strict(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_REQUIRE, "1")

    def test_strict_raises_kernel_unavailable(self, broken_kernels, strict):
        with pytest.raises(kernels.KernelUnavailableError, match="cc: no C compiler"):
            broken_kernels.get_backend("auto")

    def test_concrete_backend_failure_raises_in_strict(self, broken_kernels, strict):
        with pytest.raises(kernels.KernelUnavailableError):
            broken_kernels.get_backend("cc")

    def test_python_backend_unaffected_by_strict(self, broken_kernels, strict):
        backend = broken_kernels.get_backend("python")
        assert backend is not None and backend.name == "python"

    def test_available_backend_short_circuits_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(kernels, "_warned_degraded", False)
        monkeypatch.delenv("CLUGP_KERNEL_BACKEND", raising=False)
        if not kernels.available():
            pytest.skip("no compiled backend on this machine")
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            assert kernels.get_backend("auto").name == "cc"
        assert not caplog.records
