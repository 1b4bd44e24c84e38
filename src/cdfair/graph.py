"""Undirected simple graph over dense node indices, plus edge-list I/O."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

from .textio import first_true, format_rows, parse_ints, parse_rows, read_pairs

log = logging.getLogger(__name__)

# the largest node count whose edge keys u * n + v (u, v < n) fit in int64
MAX_NODES = math.isqrt(2**63 - 1)


class EdgeListError(ValueError):
    """Malformed or empty edge-list input."""


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values.

    Same result as ``np.unique(keys)``, which hashes in numpy 2 and took about
    80 ms on 232k edge keys where this sort takes about 3 ms.
    """
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected, unweighted simple graph in CSR form.

    Nodes are dense integers in [0, n). The neighbors of node i are
    ``indices[indptr[i]:indptr[i + 1]]``, sorted ascending, so any iteration
    over neighbors is deterministic. ``edge_array`` holds each edge once as a
    row (u, v) with u < v, rows sorted; edge-wise metrics are bincounts over
    it. All three arrays are read-only.
    """

    n: int
    indptr: np.ndarray  # (n + 1,) int64
    indices: np.ndarray  # (2m,) int64
    edge_array: np.ndarray  # (m, 2) int64

    def __post_init__(self):
        if self.indptr.shape != (self.n + 1,) or len(self.indices) != 2 * len(self.edge_array):
            raise ValueError("CSR arrays do not match node and edge counts")
        for arr in (self.indptr, self.indices, self.edge_array):
            arr.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from edges (pairs or an (m, 2) array); duplicates are merged."""
        if n > MAX_NODES:
            raise ValueError(f"n={n} above the largest node count {MAX_NODES}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        out_of_range = ((pairs < 0) | (pairs >= n)).any(axis=1)
        loop = pairs[:, 0] == pairs[:, 1]
        bad = first_true(out_of_range | loop)
        if bad is not None:
            u, v = pairs[bad].tolist()
            if out_of_range[bad]:
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            raise ValueError(f"self-loop at node {u}")
        return cls._from_keys(n, _distinct(pairs.min(axis=1) * n + pairs.max(axis=1)))

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray) -> "Graph":
        """Graph from sorted, distinct edge keys u * n + v with u < v."""
        u, v = np.divmod(keys, n)
        both = np.sort(np.concatenate([keys, v * n + u]))
        src, indices = np.divmod(both, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n=n, indptr=indptr, indices=indices, edge_array=np.stack([u, v], axis=1))

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbor_lists(self) -> list[list[int]]:
        """Sorted neighbors of every node as Python ints, for the detectors' loops."""
        flat = self.indices.tolist()
        bounds = self.indptr.tolist()
        return [flat[bounds[i] : bounds[i + 1]] for i in range(self.n)]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        return map(tuple, self.edge_array.tolist())


@dataclass(frozen=True)
class LoadedEdgeList:
    """Result of parsing an edge-list file."""

    graph: Graph
    duplicates_dropped: int
    self_loops_dropped: int


def load_edge_list(source: bytes | TextIO | Iterable[str], *, n: int | None = None) -> LoadedEdgeList:
    """Parse a whitespace-separated edge list into a validated Graph.

    Node ids are non-negative integers, used directly as indices. n is the
    largest id plus one unless given, in which case every id must lie in
    [0, n) (nodes without edges are isolated); either way n is at most
    ``MAX_NODES``. Lines starting with '#' are comments. Duplicate edges and
    self-loops are dropped (counted, warned), never fatal. When the input has
    several problems, the one on the earliest line is reported. Bytes are read as a UTF-8 file; in the
    canonical form that ``write_edge_list`` writes they are parsed without
    decoding, with the same result.
    """
    if n is not None and n > MAX_NODES:
        raise EdgeListError(f"n={n} above the largest node count {MAX_NODES}")
    rows = parse_rows(source) if isinstance(source, bytes) else None
    error = None
    if rows is not None:  # row r is line r + 1, and every token is an integer
        ids = tokens = rows.reshape(-1)
        linenos = np.arange(1, len(rows) + 1)
    else:
        linenos, tokens, malformed = read_pairs(source)
        if malformed is not None:
            error = f"line {malformed[0]}: expected two tokens, got {malformed[1]}"
        ids, stop = parse_ints(tokens)
        if stop is not None:
            error = f"line {linenos[stop // 2]}: non-integer node id {tokens[stop]!r}"
    bad = first_true((ids < 0) | (ids >= (n if n is not None else MAX_NODES)))
    if bad is not None:
        node = int(tokens[bad])
        where = f"line {linenos[bad // 2]}"
        if node < 0:
            error = f"{where}: negative node id {node}"
        elif n is None:
            error = f"{where}: node id {node} above the largest node id {MAX_NODES - 1}"
        else:
            error = f"{where}: node id {node} outside [0, {n})"
    if error is not None:
        raise EdgeListError(error)
    if len(ids) == 0:
        raise EdgeListError("empty edge-list input")

    if n is None:
        n = int(ids.max()) + 1
    u, v = ids[0::2], ids[1::2]
    loop = u == v
    lo, hi = np.minimum(u, v)[~loop], np.maximum(u, v)[~loop]
    keys = _distinct(lo * n + hi)
    loops = int(loop.sum())
    dup = len(lo) - len(keys)
    if dup or loops:
        log.warning("dropped %d duplicate edge(s) and %d self-loop(s)", dup, loops)
    return LoadedEdgeList(
        graph=Graph._from_keys(n, keys),
        duplicates_dropped=dup,
        self_loops_dropped=loops,
    )


def write_edge_list(g: Graph, sink: TextIO) -> None:
    """Write one 'u v' line per edge, u < v, sorted."""
    sink.write(format_rows(g.edge_array[:, 0], g.edge_array[:, 1]))

