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
from itertools import chain
from typing import TextIO

import numpy as np

from .partition import ContingencyTable

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

        Each cell's value is formatted once, and the rows are written
        ``_BLOCK`` nodes at a time, so the text of one block exists at once,
        not of n rows.
        """
        text = [f",{val!r}\n" for val in self.cell_ib.tolist()]
        sink.write("node_id,ib\n")
        for start in range(0, len(self.node_cell), _BLOCK):
            block = self.node_cell[start:start + _BLOCK].tolist()
            sink.write("".join(chain.from_iterable(zip(map(str, range(start, start + len(block))),
                                                       map(text.__getitem__, block)))))


def ib_all_fast(ct: ContingencyTable) -> BiasReport:
    """Per-node bias for all nodes in O(n + cells) from the contingency table.

    The bias is computed once per non-empty cell and gathered to the nodes.
    """
    s = ct.gt.sizes[ct.rows].astype(np.float64)
    sp = ct.pred.sizes[ct.cols].astype(np.float64)
    cell_ib = 1.0 - ct.overlap / np.sqrt(s * sp)
    return BiasReport.from_values(cell_ib, ct.node_cell)
