"""Node-level individual bias and its graph-level aggregate.

The bias of node i is the cosine distance between its ground-truth and
predicted co-occurrence rows. Because both rows are indicator vectors, the
distance reduces to 1 - o / sqrt(s * s'), where o is the overlap between the
node's two communities and s, s' their sizes, so it is computed from the
contingency table. The tests keep the row-materializing version as the
reference it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .partition import ContingencyTable
from .textio import digit_matrix

_BLOCK = 8192  # rows per block of BiasReport.write_csv


@dataclass(frozen=True)
class BiasReport:
    """Per-node bias values plus graph-level summary statistics."""

    cell_ib: np.ndarray  # one value per contingency cell, each in [0, 1)
    node_cell: np.ndarray  # shape (n,), the index of each node's cell
    ib_g: float  # population std of ib, in [0, 0.5]
    mean_ib: float

    @classmethod
    def from_values(cls, cell_ib: np.ndarray, node_cell: np.ndarray) -> "BiasReport":
        # two-pass population std over the n node values: mean first, then deviations
        ib = cell_ib[node_cell]
        mean = float(ib.mean())
        ib_g = math.sqrt(float(np.mean((ib - mean) ** 2)))
        return cls(cell_ib=cell_ib, node_cell=node_cell, ib_g=ib_g, mean_ib=mean)

    def write_csv(self, sink: TextIO) -> None:
        """One ``node_id,ib`` row per node, each value as ``repr`` writes it.

        Each distinct value is formatted once, into one row of a byte table;
        it is told apart by its bits, as 0.0 and -0.0 are equal but print
        apart. The rows are written ``_BLOCK`` nodes at a time, each block a
        byte matrix: the node ids' digits (``textio.digit_matrix``), then
        each node's value gathered from the table. So the bytes of one block
        exist at once, not of n rows.
        """
        # return_index makes np.unique sort stably, the sort load_partition
        # already ran in this process; its default sort would fault in
        # about 128 KB more of numpy's code
        bits, _, value = np.unique(self.cell_ib.view(np.int64), return_index=True,
                                   return_inverse=True)
        text = [f"{val!r}\n".encode() for val in bits.view(np.float64).tolist()]
        width = max(map(len, text))
        table = np.frombuffer(b"".join(t.ljust(width) for t in text), dtype=np.uint8)
        table = table.reshape(-1, width)
        table_keep = np.arange(width) < np.array(list(map(len, text)))[:, None]
        sink.write("node_id,ib\n")
        for start in range(0, len(self.node_cell), _BLOCK):
            rows = value[self.node_cell[start:start + _BLOCK]]
            ids, keep = digit_matrix(np.arange(start, start + len(rows)))
            ids[:, -1] = ord(",")
            chars = np.hstack([ids, table[rows]])
            keep = np.hstack([keep, table_keep[rows]])
            sink.write(chars[keep].tobytes().decode("ascii"))


def ib_all_fast(ct: ContingencyTable) -> BiasReport:
    """Per-node bias for all nodes in O(n + cells) from the contingency table.

    The bias is computed once per non-empty cell and gathered to the nodes.
    """
    s = ct.gt.sizes[ct.rows].astype(np.float64)
    sp = ct.pred.sizes[ct.cols].astype(np.float64)
    cell_ib = 1.0 - ct.overlap / np.sqrt(s * sp)
    return BiasReport.from_values(cell_ib, ct.node_cell)
