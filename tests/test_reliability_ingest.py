"""Hardened ingestion: typed errors in strict mode, counted drops in lenient."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.io import (
    _SLAB_EDGES,
    read_edgelist,
    read_edges_binary,
    read_npz,
    write_edgelist,
    write_edges_binary,
    write_npz,
)
from repro.graph.stream import EdgeStream
from repro.reliability.ingest import (
    DropReport,
    EdgeOverflowError,
    IngestError,
    MalformedEdgeError,
    TruncatedPayloadError,
    VertexRangeError,
    sanitize_edges,
)


class TestSanitizeStrict:
    def test_clean_int64_passthrough(self):
        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 0], dtype=np.int64)
        su, sv, report = sanitize_edges(u, v, num_vertices=3)
        assert su is u and sv is v  # fast path: no copy
        assert report.kept == 3 and report.total_dropped == 0

    def test_negative_id(self):
        with pytest.raises(VertexRangeError, match="negative"):
            sanitize_edges([0, -1], [1, 1])

    def test_out_of_range_id(self):
        with pytest.raises(VertexRangeError, match="out of range"):
            sanitize_edges([0, 5], [1, 1], num_vertices=3)

    def test_nan_row(self):
        with pytest.raises(MalformedEdgeError, match="non-finite"):
            sanitize_edges([0.0, float("nan")], [1.0, 1.0])

    def test_inf_row(self):
        with pytest.raises(MalformedEdgeError, match="non-finite"):
            sanitize_edges([0.0, float("inf")], [1.0, 1.0])

    def test_fractional_float(self):
        with pytest.raises(MalformedEdgeError, match="non-integral"):
            sanitize_edges([0.0, 1.5], [1.0, 1.0])

    def test_float_past_int64(self):
        with pytest.raises(EdgeOverflowError, match="int64"):
            sanitize_edges([0.0, 1e30], [1.0, 1.0])

    def test_uint64_overflow(self):
        huge = np.array([0, 2**63], dtype=np.uint64)
        with pytest.raises(EdgeOverflowError, match="int64"):
            sanitize_edges(huge, np.zeros(2, dtype=np.uint64))

    def test_python_int_overflow(self):
        with pytest.raises(EdgeOverflowError, match="int64"):
            sanitize_edges(np.array([0, 2**70], dtype=object), [1, 1])

    def test_non_numeric_object(self):
        with pytest.raises(MalformedEdgeError, match="non-integer"):
            sanitize_edges(np.array(["a", "1"], dtype=object), [1, 1])

    def test_shape_mismatch(self):
        with pytest.raises(MalformedEdgeError, match="equal length"):
            sanitize_edges([0, 1], [1])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be"):
            sanitize_edges([0], [1], mode="casual")

    def test_typed_errors_are_value_errors(self):
        # existing callers catching ValueError keep working
        assert issubclass(IngestError, ValueError)
        for exc in (MalformedEdgeError, VertexRangeError, EdgeOverflowError,
                    TruncatedPayloadError):
            assert issubclass(exc, IngestError)


class TestSanitizeLenient:
    def test_drops_are_counted_per_reason(self):
        u = [0.0, float("nan"), 2.0, -1.0, 9.0]
        v = [1.0, 1.0, 1.5, 1.0, 1.0]
        su, sv, report = sanitize_edges(u, v, num_vertices=5, mode="lenient")
        assert np.array_equal(su, [0]) and np.array_equal(sv, [1])
        assert report.kept == 1
        assert report.dropped["non_finite"] == 1
        assert report.dropped["non_integral"] == 1
        assert report.dropped["negative"] == 1
        assert report.dropped["out_of_range"] == 1

    def test_edge_dropped_when_either_endpoint_bad(self):
        su, sv, report = sanitize_edges([0, 1], [float("nan"), 1.0],
                                        mode="lenient")
        assert report.kept == 1
        assert np.array_equal(su, [1])

    def test_report_merge(self):
        a = DropReport(kept=2, dropped={"negative": 1})
        b = DropReport(kept=3, dropped={"negative": 2, "overflow": 1})
        a.merge(b)
        assert a.kept == 5
        assert a.dropped == {"negative": 3, "overflow": 1}
        assert a.to_dict()["total_dropped"] == 4

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-5, max_value=30),
                st.floats(allow_nan=True, allow_infinity=True, width=32),
            ),
            min_size=0,
            max_size=40,
        )
    )
    def test_lenient_never_raises_and_accounts_every_row(self, raw):
        u = np.array(raw, dtype=object)
        v = np.array(raw[::-1], dtype=object)
        su, sv, report = sanitize_edges(u, v, num_vertices=20, mode="lenient")
        assert su.size == sv.size == report.kept
        assert report.kept <= len(raw)
        assert su.dtype == np.int64
        if su.size:
            assert su.min() >= 0 and su.max() < 20
            assert sv.min() >= 0 and sv.max() < 20


class TestEdgeStreamHardening:
    def test_out_of_range_is_typed(self):
        with pytest.raises(VertexRangeError):
            EdgeStream([0, 9], [1, 1], 5)

    def test_negative_is_typed(self):
        with pytest.raises(VertexRangeError):
            EdgeStream([0, -2], [1, 1], 5)

    def test_typed_error_still_catchable_as_value_error(self):
        with pytest.raises(ValueError):
            EdgeStream([0, 9], [1, 1], 5)

    def test_sanitized_constructor(self):
        stream, report = EdgeStream.sanitized(
            [0.0, float("nan"), 2.0], [1, 1, 3], 5
        )
        assert stream.num_edges == 2
        assert report.dropped == {"non_finite": 1}


@pytest.fixture
def graph():
    return DiGraph(
        np.array([0, 1, 2, 3], dtype=np.int64),
        np.array([1, 2, 3, 0], dtype=np.int64),
        5,
    )


class TestEdgelistHardening:
    def test_strict_names_file_and_line(self, tmp_path, graph):
        path = tmp_path / "g.txt"
        write_edgelist(graph, path)
        with open(path, "a") as f:
            f.write("not numbers\n")
        with pytest.raises(MalformedEdgeError, match=r"g\.txt:6"):
            read_edgelist(path)

    def test_lenient_drops_and_counts(self, tmp_path, graph):
        path = tmp_path / "g.txt"
        write_edgelist(graph, path)
        with open(path, "a") as f:
            f.write("garbage\n7\n-3 2\n")
        report = DropReport()
        loaded = read_edgelist(path, mode="lenient", report=report)
        assert loaded.num_edges == 4
        assert report.dropped == {"malformed": 2, "negative": 1}

    def test_huge_textual_id_is_typed_not_traceback(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1\n2 {2**70}\n")
        with pytest.raises(EdgeOverflowError):
            read_edgelist(path)
        loaded = read_edgelist(path, mode="lenient")
        assert loaded.num_edges == 1

    def test_binary_junk_does_not_crash(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(bytes(range(256)))
        with pytest.raises((MalformedEdgeError, ValueError)):
            read_edgelist(path)


class TestBinaryEdges:
    def test_round_trip(self, tmp_path, graph):
        path = tmp_path / "g.bin"
        write_edges_binary(graph, path)
        loaded = read_edges_binary(path)
        assert np.array_equal(loaded.src, graph.src)
        assert np.array_equal(loaded.dst, graph.dst)
        assert loaded.num_vertices == graph.num_vertices

    def test_empty_graph_round_trip(self, tmp_path):
        empty = DiGraph(np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.int64), 3)
        path = tmp_path / "e.bin"
        write_edges_binary(empty, path)
        loaded = read_edges_binary(path)
        assert loaded.num_edges == 0 and loaded.num_vertices == 3

    def test_truncation_strict(self, tmp_path, graph):
        path = tmp_path / "g.bin"
        write_edges_binary(graph, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])
        with pytest.raises(TruncatedPayloadError, match="declares"):
            read_edges_binary(path)

    def test_truncation_lenient_keeps_prefix(self, tmp_path, graph):
        path = tmp_path / "g.bin"
        write_edges_binary(graph, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])
        report = DropReport()
        loaded = read_edges_binary(path, mode="lenient", report=report)
        assert loaded.num_edges == 3  # the torn 4th edge is gone
        assert np.array_equal(loaded.src, graph.src[:3])
        assert report.dropped == {"truncated": 1}

    def test_crc_corruption_strict(self, tmp_path, graph):
        path = tmp_path / "g.bin"
        write_edges_binary(graph, path)
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(TruncatedPayloadError, match="CRC"):
            read_edges_binary(path)

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("offset", [0, 7, -1])
    def test_flipped_body_byte_is_caught_before_any_edge_is_used(
        self, tmp_path, graph, mode, offset
    ):
        """The body is checksummed where it was read (no second copy) and
        still *before* it is decoded: byte 7 is the first endpoint's sign
        bit, which the sanitizer would otherwise report as a malformed
        (strict) or dropped (lenient) edge."""
        path = tmp_path / "g.bin"
        write_edges_binary(graph, path)
        raw = bytearray(path.read_bytes())
        body = range(24, len(raw) - 4)  # after the header, before the CRC
        raw[body[offset]] ^= 0x80
        path.write_bytes(bytes(raw))
        report = DropReport()
        with pytest.raises(TruncatedPayloadError, match="CRC"):
            read_edges_binary(path, mode=mode, report=report)
        assert report.dropped == {}

    def test_bad_magic(self, tmp_path, graph):
        path = tmp_path / "g.bin"
        write_edges_binary(graph, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedEdgeError, match="magic"):
            read_edges_binary(path)


#: a file of two full read slabs and a partial third
SLABBED_EDGES = 2 * _SLAB_EDGES + 37
_BODY_START = 24
_BODY_END = _BODY_START + 16 * SLABBED_EDGES
_FILE_SIZE = _BODY_END + 4
#: slab boundaries of the body +-1 byte (a torn header, a torn edge, one
#: byte past a whole edge), the body's end and every cut inside the trailer
CUTS = sorted({
    cut
    for edge in (0, _SLAB_EDGES, 2 * _SLAB_EDGES, SLABBED_EDGES)
    for cut in (_BODY_START + 16 * edge - 1, _BODY_START + 16 * edge,
                _BODY_START + 16 * edge + 1)
} | {_FILE_SIZE - 3, _FILE_SIZE - 2, _FILE_SIZE - 1})


@pytest.fixture(scope="module")
def slabbed_graph():
    rng = np.random.default_rng(11)
    n = 5000
    graph = DiGraph(rng.integers(0, n, SLABBED_EDGES), rng.integers(0, n, SLABBED_EDGES), n)
    return graph


def whole_file_prefix(raw: bytes):
    """The lenient prefix as the whole-file reader decoded it: the body in
    one buffer, ``min(m, body bytes // 16)`` edges by one ``frombuffer``."""
    _, m, _ = struct.unpack_from("<8sqq", raw)
    if _BODY_START + 16 * m + 4 <= len(raw):
        kept = m
    else:
        kept = min(m, max(0, len(raw) - _BODY_START) // 16)
    pairs = np.frombuffer(raw, "<i8", 2 * kept, _BODY_START).reshape(kept, 2)
    return pairs[:, 0], pairs[:, 1], m - kept


class TestBinaryEdgeSlabs:
    """The reader decodes fixed slabs; every way a file can be torn or
    flipped across them is a typed error, never a short or wrong graph."""

    @pytest.fixture
    def write(self, tmp_path, slabbed_graph):
        path = tmp_path / "g.bin"
        write_edges_binary(slabbed_graph, path)
        raw = path.read_bytes()
        assert len(raw) == _FILE_SIZE

        def rewrite(data):
            path.write_bytes(bytes(data))
            return path

        return raw, rewrite

    @pytest.mark.parametrize("cut", CUTS)
    def test_truncation(self, write, cut):
        raw, rewrite = write
        path = rewrite(raw[:cut])
        with pytest.raises(TruncatedPayloadError):
            read_edges_binary(path)
        if cut < _BODY_START:
            with pytest.raises(TruncatedPayloadError, match="header"):
                read_edges_binary(path, mode="lenient")
            return
        report = DropReport()
        loaded = read_edges_binary(path, mode="lenient", report=report)
        src, dst, missing = whole_file_prefix(raw[:cut])
        assert np.array_equal(loaded.src, src) and np.array_equal(loaded.dst, dst)
        assert report.kept == src.size
        assert report.dropped == ({"truncated": missing} if missing else {})

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("byte", [_BODY_START + 3, _BODY_END - 5],
                             ids=["first_slab", "last_slab"])
    def test_bit_flip(self, write, mode, byte):
        raw, rewrite = write
        flipped = bytearray(raw)
        flipped[byte] ^= 0x10
        report = DropReport()
        with pytest.raises(TruncatedPayloadError, match="CRC"):
            read_edges_binary(rewrite(flipped), mode=mode, report=report)
        assert report.dropped == {}

    def test_header_declaring_2_to_the_40_edges(self, write):
        """The declared count is checked against the file size before
        anything sized from it is allocated."""
        raw, rewrite = write
        header = struct.pack("<8sqq", b"CLUGPED1", 1 << 40, 5000)
        path = rewrite(header + raw[_BODY_START:_BODY_START + 16 * 10])
        with pytest.raises(TruncatedPayloadError, match="declares"):
            read_edges_binary(path)
        report = DropReport()
        tracemalloc.start()
        try:
            loaded = read_edges_binary(path, mode="lenient", report=report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert loaded.num_edges == 10
        assert report.dropped == {"truncated": (1 << 40) - 10}


class TestNpzHardening:
    def test_truncated_archive_is_typed(self, tmp_path, graph):
        path = tmp_path / "g.npz"
        write_npz(graph, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncatedPayloadError, match="npz"):
            read_npz(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_npz(tmp_path / "nope.npz")

    def test_intact_archive_unaffected(self, tmp_path, graph):
        path = tmp_path / "g.npz"
        write_npz(graph, path)
        loaded = read_npz(path)
        assert np.array_equal(loaded.src, graph.src)
