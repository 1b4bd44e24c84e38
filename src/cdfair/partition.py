"""Community assignments and the contingency table linking two of them.

The binary co-occurrence matrix of a partition (row i = indicator of the set
{j : c_j = c_i}) is never stored: every quantity that needs it reduces to
overlap counts between two partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .textio import NOT_ID, InputError, column, first_true, format_rows, read_rows


class PartitionError(InputError):
    """Invalid or incomplete community assignment."""


@dataclass(frozen=True)
class Partition:
    """One community label per node; community ids dense in [0, k)."""

    labels: np.ndarray  # shape (n,), int64
    sizes: np.ndarray  # shape (k,), int64
    k: int

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @classmethod
    def from_labels(cls, raw_labels: Sequence[int] | np.ndarray) -> "Partition":
        """Relabel integer community ids to dense ids in first-seen order."""
        raw = np.asarray(raw_labels)
        if raw.size == 0:
            raise PartitionError("empty label sequence")
        if raw.ndim != 1 or raw.dtype.kind not in "iu":
            raise PartitionError("community labels must be a sequence of integers")
        # np.unique sorts stably when asked for first indices, so `first` holds
        # each distinct label's first position; rank the labels by it
        _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        dense = rank[inverse]
        return cls(labels=dense, sizes=np.bincount(dense, minlength=len(first)), k=len(first))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return bool(np.array_equal(self.labels, other.labels))


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Overlap counts |a ∩ b| between ground-truth and predicted communities.

    Sparse: only the non-empty cells are stored, sorted by (ground-truth id,
    predicted id). ``node_cell`` maps every node to its own cell, so per-node
    quantities are a gather from per-cell ones. The row marginals are
    ``gt.sizes``, the column marginals ``pred.sizes``, and ``gt.n`` is the
    node count.
    """

    gt: Partition
    pred: Partition
    rows: np.ndarray  # (cells,) ground-truth id of each non-empty cell
    cols: np.ndarray  # (cells,) predicted id of each non-empty cell
    overlap: np.ndarray  # (cells,) cell counts, all >= 1
    node_cell: np.ndarray  # (n,) index of each node's cell

    def best_cells(self, by_gt: bool = True) -> np.ndarray:
        """Largest cell of each ground-truth row (or predicted column).

        Entry c is the index of the cell with the largest overlap in row (or
        column) c; ties go to the smaller predicted (or ground-truth) id.
        """
        key, other = (self.rows, self.cols) if by_gt else (self.cols, self.rows)
        order = np.lexsort((other, -self.overlap, key))
        ordered = key[order]
        return order[np.r_[True, ordered[1:] != ordered[:-1]]]


def contingency(gt: Partition, pred: Partition) -> ContingencyTable:
    """One ``np.unique`` over the per-node cell keys ``gt * k' + pred``."""
    if gt.n != pred.n:
        raise PartitionError(f"partition sizes differ: {gt.n} vs {pred.n}")
    keys, node_cell, overlap = np.unique(
        gt.labels * pred.k + pred.labels, return_inverse=True, return_counts=True
    )
    rows, cols = np.divmod(keys, pred.k)
    return ContingencyTable(
        gt=gt, pred=pred, rows=rows, cols=cols, overlap=overlap, node_cell=node_cell.reshape(-1)
    )


def load_partition(data: bytes, n: int | None = None) -> Partition:
    """Parse the bytes of a 'node_id community_id' file; every node in [0, n)
    exactly once.

    The bytes are read as a UTF-8 file (``textio.read_rows``). With
    ``n=None`` the node count is the number of data rows, since every node
    appears exactly once. Community ids are compared as text. When the input
    has several problems, the one on the earliest line is reported.
    """
    # each check looks only at the lines before any problem found so far, so
    # the last message set belongs to the earliest bad line
    values, error, canonical = read_rows(data)
    nodes = values[:, 0]
    if n is None:  # rows that stop at a malformed line count only some nodes
        n = len(nodes) if error is None else None
    bad = first_true(nodes < 0 if n is None else (nodes < 0) | (nodes >= n))  # NOT_ID is below 0
    if bad is not None:
        lines, tokens = column(data, 0)
        what = (f"non-integer node id {tokens[bad].decode()!r}" if nodes[bad] == NOT_ID
                else f"negative node id {int(tokens[bad])}" if n is None
                else f"node {int(tokens[bad])} outside [0, {n})")
        error = f"line {lines[bad]}: {what}"
        nodes = nodes[:bad]
    distinct, first = np.unique(nodes, return_index=True)
    if len(distinct) < len(nodes):
        repeat = np.ones(len(nodes), dtype=bool)
        repeat[first] = False
        dup = first_true(repeat)
        error = f"line {column(data, 0)[0][dup]}: node {int(nodes[dup])} assigned twice"
    if error is not None:
        raise PartitionError(error)
    if len(nodes) < n:  # distinct ids in [0, n), so the first gap is unassigned
        gap = first_true(distinct != np.arange(len(distinct)))
        raise PartitionError(f"node {len(distinct) if gap is None else gap} unassigned")
    labels = values[:, 1]  # canonical tokens are equal exactly when their values are
    if not canonical[1]:  # one code per distinct token
        labels = np.unique(np.array(column(data, 1)[1], dtype=object), return_inverse=True)[1]
    return Partition.from_labels(labels[np.argsort(nodes)])


def write_partition(p: Partition, sink: TextIO) -> None:
    """Write one 'node_id community_id' line per node."""
    sink.write(format_rows(np.arange(p.n), p.labels))
