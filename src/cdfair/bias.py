"""Node-level individual bias and its graph-level aggregate.

The bias of node i is the cosine distance between its ground-truth and
predicted co-occurrence rows. Because both rows are indicator vectors, the
distance reduces to 1 - o / sqrt(s * s'), where o is the overlap between the
node's two communities and s, s' their sizes. The fast path computes exactly
that from the contingency table; the naive path materializes the rows and is
kept as the verification oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .partition import ContingencyTable, Partition, PartitionError, cc_row

NAIVE_NODE_CAP = 5000


def cosine_distance(u: Sequence[float], v: Sequence[float]) -> float:
    """1 - cos(u, v). For non-negative inputs the result lies in [0, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("vector length mismatch")
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine distance undefined for zero-norm vector")
    return 1.0 - float(u @ v) / (nu * nv)


@dataclass(frozen=True)
class BiasReport:
    """Per-node bias values plus graph-level summary statistics."""

    ib: np.ndarray  # shape (n,), each value in [0, 1)
    ib_g: float  # population std of ib, in [0, 0.5]
    mean_ib: float
    community_mean_ib: dict[int, float]  # per ground-truth community

    @property
    def n(self) -> int:
        return int(self.ib.shape[0])

    @classmethod
    def from_values(cls, ib: np.ndarray, gt_labels: np.ndarray) -> "BiasReport":
        # two-pass population std: mean first, then deviations
        mean = float(ib.mean())
        ib_g = math.sqrt(float(np.mean((ib - mean) ** 2)))
        counts = np.bincount(gt_labels)
        present = np.flatnonzero(counts)
        means = np.bincount(gt_labels, weights=ib)[present] / counts[present]
        per_comm = dict(zip(present.tolist(), means.tolist()))
        return cls(ib=ib, ib_g=ib_g, mean_ib=mean, community_mean_ib=per_comm)

    def write_csv(self, sink: TextIO) -> None:
        sink.write("node_id,ib\n")
        sink.write("".join(f"{i},{val!r}\n" for i, val in enumerate(self.ib.tolist())))

    def summary(self, k_gt: int, k_pred: int) -> dict:
        return {
            "ib_g": self.ib_g,
            "mean_ib": self.mean_ib,
            "n": self.n,
            "k_gt": k_gt,
            "k_pred": k_pred,
        }

    def write_summary_json(self, sink: TextIO, k_gt: int, k_pred: int) -> None:
        json.dump(self.summary(k_gt, k_pred), sink, sort_keys=True, indent=2)
        sink.write("\n")


def ib_all_fast(ct: ContingencyTable) -> BiasReport:
    """Per-node bias for all nodes in O(n + cells) from the contingency table.

    The bias is computed once per non-empty cell and gathered to the nodes.
    """
    s = ct.row_sums[ct.rows].astype(np.float64)
    sp = ct.col_sums[ct.cols].astype(np.float64)
    cell_ib = 1.0 - ct.overlap / np.sqrt(s * sp)
    return BiasReport.from_values(cell_ib[ct.node_cell], ct.gt.labels)


def ib_all_naive(gt: Partition, pred: Partition, cap: int = NAIVE_NODE_CAP) -> BiasReport:
    """Row-materializing O(n^2) oracle. Refuses to run above `cap` nodes."""
    if gt.n != pred.n:
        raise PartitionError(f"partition sizes differ: {gt.n} vs {pred.n}")
    if gt.n > cap:
        raise ValueError(
            f"naive path capped at {cap} nodes (got {gt.n}); use ib_all_fast"
        )
    ib = np.empty(gt.n, dtype=np.float64)
    for i in range(gt.n):
        ib[i] = cosine_distance(cc_row(gt, i), cc_row(pred, i))
    return BiasReport.from_values(ib, gt.labels)
