"""Graph persistence: edge-list text, compressed npz binary, METIS format.

Web-graph corpora ship as edge lists (SNAP style) or METIS adjacency files;
this module reads and writes both plus a fast ``.npz`` binary used by the
benchmark harness to cache generated stand-in datasets.

All readers are hardened against hostile inputs (PR 8): malformed rows
raise typed :class:`~repro.reliability.ingest.IngestError` subclasses in
``strict`` mode or are dropped-and-counted in ``lenient`` mode, and the
binary formats detect truncation (a torn write, a full disk) instead of
returning a silently short graph.  :func:`write_edges_binary` /
:func:`read_edges_binary` add a raw length-framed, CRC-checked edge dump
for feeds where npz's zip container is too slow.
"""

from __future__ import annotations

import os
import struct
import zipfile
import zlib

import numpy as np

from ..reliability.ingest import (
    DropReport,
    MalformedEdgeError,
    TruncatedPayloadError,
    _check_mode,
    sanitize_edges,
)
from .digraph import DiGraph

__all__ = [
    "write_edgelist",
    "read_edgelist",
    "write_npz",
    "read_npz",
    "write_edges_binary",
    "read_edges_binary",
    "write_metis",
    "read_metis",
]

_EDGES_MAGIC = b"CLUGPED1"
_EDGES_HEADER = struct.Struct("<8sqq")  # magic, num_edges, num_vertices
_EDGES_TRAILER = struct.Struct("<I")  # crc32 of the endpoint body
#: edges per read of :func:`read_edges_binary` (256 KiB of body)
_SLAB_EDGES = 1 << 14


def write_edgelist(graph: DiGraph, path: str | os.PathLike, comment: str = "") -> None:
    """Write a whitespace-separated ``u v`` edge list (SNAP style)."""
    with open(path, "w", encoding="ascii") as f:
        if comment:
            for line in comment.splitlines():
                f.write(f"# {line}\n")
        f.write(f"# vertices {graph.num_vertices} edges {graph.num_edges}\n")
        np.savetxt(f, graph.edges(), fmt="%d")


def read_edgelist(
    path: str | os.PathLike,
    num_vertices: int | None = None,
    mode: str = "strict",
    report: DropReport | None = None,
) -> DiGraph:
    """Read a ``u v`` edge list; ``#``-prefixed lines are comments.

    A ``# vertices N edges M`` header (as written by :func:`write_edgelist`)
    is honored so isolated trailing vertices survive a round trip.

    ``strict`` (default) raises :class:`MalformedEdgeError` naming the
    first offending line; ``lenient`` drops unparseable/negative rows and
    counts them per reason in ``report`` (pass a
    :class:`~repro.reliability.ingest.DropReport` to collect them).
    """
    _check_mode(mode)
    if report is None:
        report = DropReport()
    header_vertices = None
    src_list: list[int] = []
    dst_list: list[int] = []
    with open(path, "r", encoding="ascii", errors="replace") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                tokens = line[1:].split()
                if len(tokens) >= 4 and tokens[0] == "vertices" and tokens[2] == "edges":
                    try:
                        header_vertices = int(tokens[1])
                    except ValueError:
                        raise MalformedEdgeError(
                            f"{path}:{lineno}: bad vertex count in header: {line!r}"
                        ) from None
                continue
            parts = line.split()
            try:
                if len(parts) < 2:
                    raise ValueError
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                if mode == "strict":
                    raise MalformedEdgeError(
                        f"{path}:{lineno}: malformed edge line: {line!r}"
                    ) from None
                report.bump("malformed", 1)
                continue
            src_list.append(u)
            dst_list.append(v)
    n = num_vertices if num_vertices is not None else header_vertices
    try:
        src_arr = np.asarray(src_list, dtype=np.int64)
        dst_arr = np.asarray(dst_list, dtype=np.int64)
    except OverflowError:
        # a textual id past int64 — let the sanitizer's per-element path
        # turn it into a typed error / counted drop instead of a traceback
        src_arr = np.asarray(src_list, dtype=object)
        dst_arr = np.asarray(dst_list, dtype=object)
    src, dst, clean = sanitize_edges(src_arr, dst_arr, num_vertices=n, mode=mode)
    report.merge(clean)
    return DiGraph(src, dst, n)


def write_npz(graph: DiGraph, path: str | os.PathLike) -> None:
    """Write the graph as a compressed numpy archive."""
    np.savez_compressed(
        path,
        src=graph.src,
        dst=graph.dst,
        num_vertices=np.int64(graph.num_vertices),
    )


def read_npz(path: str | os.PathLike) -> DiGraph:
    """Read a graph written by :func:`write_npz`.

    A truncated or otherwise undecodable archive (zip central directory
    lives at the *end* of the file, so truncation is the common failure)
    raises :class:`TruncatedPayloadError` instead of a zipfile traceback.
    """
    try:
        with np.load(path) as data:
            src = np.asarray(data["src"])
            dst = np.asarray(data["dst"])
            n = int(data["num_vertices"])
    except (ValueError, KeyError, OSError, EOFError, zipfile.BadZipFile) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise TruncatedPayloadError(
            f"{path}: corrupt or truncated npz archive: {exc}"
        ) from exc
    return DiGraph(src, dst, n)


def write_edges_binary(graph: DiGraph, path: str | os.PathLike) -> None:
    """Write a raw length-framed, CRC-checked binary edge dump.

    Layout: an 8-byte magic + declared edge/vertex counts, the edges as
    little-endian int64 ``(u, v)`` pairs in stream order (row-major, so a
    truncated file still holds a prefix of complete edges), and a CRC-32
    trailer over the edge body.  No compression — this is the fast
    interchange format for service feeds; :func:`read_edges_binary`
    detects truncation exactly.
    """
    edges = np.empty((graph.num_edges, 2), dtype="<i8")
    edges[:, 0] = graph.src
    edges[:, 1] = graph.dst
    body = edges.tobytes()
    with open(path, "wb") as f:
        f.write(_EDGES_HEADER.pack(_EDGES_MAGIC, graph.num_edges, graph.num_vertices))
        f.write(body)
        f.write(_EDGES_TRAILER.pack(zlib.crc32(body)))


def read_edges_binary(
    path: str | os.PathLike,
    mode: str = "strict",
    report: DropReport | None = None,
) -> DiGraph:
    """Read a graph written by :func:`write_edges_binary`.

    ``strict`` raises :class:`TruncatedPayloadError` when the file ends
    mid-record or the CRC disagrees; ``lenient`` keeps the longest prefix
    of complete edges that the declared count allows and counts the
    missing rows in ``report`` (the CRC cannot be checked on a short
    body, so lenient reads of torn files trade integrity for liveness —
    exactly the operator call the mode encodes).

    Nothing sized from the header is allocated before the file size
    vouches for it; the body is read, CRC-folded and deinterleaved one
    slab at a time, so the peak is the two columns plus one slab.
    """
    _check_mode(mode)
    if report is None:
        report = DropReport()
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_EDGES_HEADER.size)
        if len(head) < _EDGES_HEADER.size:
            raise TruncatedPayloadError(f"{path}: truncated header")
        magic, m, n = _EDGES_HEADER.unpack(head)
        if magic != _EDGES_MAGIC:
            raise MalformedEdgeError(f"{path}: bad magic {magic!r}")
        if m < 0 or n < 0:
            raise MalformedEdgeError(f"{path}: negative count in header (m={m}, n={n})")
        avail = size - _EDGES_HEADER.size
        whole = 16 * m + _EDGES_TRAILER.size <= avail
        if whole:
            kept = m
        elif mode == "strict":
            raise TruncatedPayloadError(
                f"{path}: declares {m} edges but holds {avail} body bytes of {16 * m}"
            )
        else:
            kept = min(m, avail // 16)
            report.bump("truncated", m - kept)
        src = np.empty(kept, dtype=np.int64)
        dst = np.empty(kept, dtype=np.int64)
        slab = np.empty((min(kept, _SLAB_EDGES), 2), dtype="<i8")
        crc = 0
        # one unsigned max per slab (a negative id reads as one >= 2**63);
        # once a slab fails, sanitize_edges finds the rows
        limit = np.uint64(n)
        clean = True
        for start in range(0, kept, _SLAB_EDGES):
            pairs = slab[: min(_SLAB_EDGES, kept - start)]
            if f.readinto(pairs) != pairs.nbytes:
                raise TruncatedPayloadError(f"{path}: file shrank while being read")
            crc = zlib.crc32(pairs, crc)
            clean = clean and pairs.view("<u8").max() < limit
            src[start : start + pairs.shape[0]] = pairs[:, 0]
            dst[start : start + pairs.shape[0]] = pairs[:, 1]
        if whole:
            (want,) = _EDGES_TRAILER.unpack(f.read(_EDGES_TRAILER.size))
            if crc != want:
                raise TruncatedPayloadError(f"{path}: CRC mismatch (corrupt body)")
    if not clean:  # only then is there anything to sanitize
        src, dst, dropped = sanitize_edges(src, dst, num_vertices=n, mode=mode)
        report.merge(dropped)
    else:
        report.kept += kept
    return DiGraph(src, dst, n)


def write_metis(graph: DiGraph, path: str | os.PathLike) -> None:
    """Write the undirected simplification in METIS adjacency format.

    METIS files are 1-indexed, undirected, and disallow self-loops;
    reciprocal directed edges collapse to one undirected edge.
    """
    n = graph.num_vertices
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        if u == v:
            continue
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    num_undirected = sum(len(s) for s in neighbor_sets) // 2
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{n} {num_undirected}\n")
        for u in range(n):
            f.write(" ".join(str(v + 1) for v in sorted(neighbor_sets[u])) + "\n")


def read_metis(path: str | os.PathLike) -> DiGraph:
    """Read a METIS adjacency file as a digraph with both edge directions."""
    with open(path, "r", encoding="ascii") as f:
        lines = [ln for ln in (raw.strip() for raw in f) if ln and not ln.startswith("%")]
    if not lines:
        raise ValueError("empty METIS file")
    header = lines[0].split()
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} adjacency lines, found {len(lines) - 1}")
    src_list: list[int] = []
    dst_list: list[int] = []
    for u, line in enumerate(lines[1:]):
        for token in line.split():
            v = int(token) - 1
            if u < v:  # emit each undirected edge once, in both directions
                src_list.append(u)
                dst_list.append(v)
                src_list.append(v)
                dst_list.append(u)
    graph = DiGraph(
        np.asarray(src_list, dtype=np.int64),
        np.asarray(dst_list, dtype=np.int64),
        n,
    )
    if graph.num_edges != 2 * m:
        raise ValueError(
            f"METIS header declares {m} edges but file contains {graph.num_edges // 2}"
        )
    return graph
