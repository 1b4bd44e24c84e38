"""Undirected simple graph as one sorted edge array, plus edge-list I/O."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .textio import NOT_ID, InputError, column, first_true, format_rows, read_rows

log = logging.getLogger(__name__)

# the largest node count whose edge keys u * n + v (u, v < n) fit in int64
MAX_NODES = math.isqrt(2**63 - 1)


class EdgeListError(InputError):
    """Malformed or empty edge-list input."""


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values; sorts `keys` in place, and returns it when it
    holds no duplicates.

    Same values as ``np.unique(keys)``, which hashes in numpy 2 and took about
    80 ms on 232k edge keys where this sort takes about 3 ms.
    """
    keys.sort()
    repeat = keys[1:] == keys[:-1]
    if not repeat.any():
        return keys
    return keys[np.r_[True, ~repeat]]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected, unweighted simple graph over nodes [0, n).

    ``edge_array`` holds each edge once as a row (u, v) with u < v, rows
    sorted, and is read-only. Edge-wise metrics are bincounts over it; the
    detectors' adjacency is derived from it by ``neighbor_lists``.
    """

    n: int
    edge_array: np.ndarray  # (m, 2) int64

    def __post_init__(self):
        self.edge_array.flags.writeable = False

    @classmethod
    def from_keys(cls, n: int, keys: np.ndarray) -> "Graph":
        """Graph from sorted, distinct edge keys u * n + v with u < v < n.

        The endpoints are divided out straight into the columns of the edge
        array, so no other array of the edge array's size is made.
        """
        edges = np.empty((len(keys), 2), dtype=np.int64)
        np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
        return cls(n=n, edge_array=edges)

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array.reshape(-1), minlength=self.n)

    def neighbor_lists(self) -> list[list[int]]:
        """Sorted neighbors of every node as Python ints, for the detectors' loops.

        Every mention of node v is the same int object, so the detectors'
        per-node rows share n int objects instead of holding 2m of them.
        """
        u, v = self.edge_array.T
        # both directions as sorted keys src * n + dst: node after node, each
        # node's neighbours ascending, each node holding degree-many entries
        keys = np.sort(np.concatenate([u * self.n + v, v * self.n + u]))
        flat = np.arange(self.n).astype(object)[keys % self.n].tolist()
        bounds = [0, *np.cumsum(self.degrees).tolist()]
        return [flat[bounds[i] : bounds[i + 1]] for i in range(self.n)]


@dataclass(frozen=True)
class LoadedEdgeList:
    """Result of parsing an edge-list file."""

    graph: Graph
    duplicates_dropped: int
    self_loops_dropped: int


def load_edge_list(data: bytes, *, n: int | None = None) -> LoadedEdgeList:
    """Parse the bytes of a whitespace-separated edge-list file into a Graph.

    The bytes are read as a UTF-8 file (``textio.read_rows``). Node ids are
    non-negative integers in ASCII digits, used directly as indices. n is
    the largest id plus one unless given, in which case every id must lie in
    [0, n) (nodes without edges are isolated); either way n is at most
    ``MAX_NODES``. Lines starting with '#' or '%' are comments. Duplicate
    edges and self-loops are dropped (counted, warned), never fatal. When
    the input has several problems, the one on the earliest line is reported.
    """
    if n is not None and n > MAX_NODES:
        raise EdgeListError(f"n={n} above the largest node count {MAX_NODES}")
    values, error, _ = read_rows(data)
    if error is not None and error.endswith(" got 3"):  # a weight column
        error += " (edge weights are not read: the detectors and IB are unweighted)"
    ids = values.reshape(-1)
    limit = n if n is not None else MAX_NODES
    if len(ids) and (ids.min() < 0 or ids.max() >= limit):  # NOT_ID is below 0
        at = first_true((ids < 0) | (ids >= limit))
        lines, tokens = column(data, at % 2)
        where, token = f"line {lines[at // 2]}", tokens[at // 2].decode()
        if ids[at] == NOT_ID:
            error = f"{where}: non-integer node id {token!r}"
        elif (node := int(token)) < 0:
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
    # the keys are built in place and the parsed ids freed before the edge
    # array is made, so a load holds little more than its input and result
    u, v = ids[0::2], ids[1::2]
    loop = u == v
    keys = np.minimum(u, v)
    keys *= n
    keys += np.maximum(u, v, out=u)  # the ids are not read again
    loops = int(np.count_nonzero(loop))
    if loops:
        keys = keys[~loop]
    del values, ids, u, v, loop
    edges = len(keys)
    keys = _distinct(keys)
    dup = edges - len(keys)
    if dup or loops:
        log.warning("dropped %d duplicate edge(s) and %d self-loop(s)", dup, loops)
    return LoadedEdgeList(
        graph=Graph.from_keys(n, keys),
        duplicates_dropped=dup,
        self_loops_dropped=loops,
    )


def write_edge_list(g: Graph, sink: TextIO) -> None:
    """Write one 'u v' line per edge, u < v, sorted."""
    sink.write(format_rows(g.edge_array[:, 0], g.edge_array[:, 1]))

