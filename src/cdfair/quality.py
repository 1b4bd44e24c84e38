"""Partition quality scores: modularity (internal), NMI, ARI, NF1 (external).

The external scores take the contingency table of a (ground truth,
prediction) pair, so one table built per pair serves all of them.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph
from .partition import ContingencyTable, Partition, PartitionError


def sum_in_order(values) -> float:
    """The floats of `values` added one at a time from 0.0, in order: the
    built-in `sum()` as it adds floats before CPython 3.12, which compensates
    its rounding, on every version. A plain loop: ``np.cumsum`` gives the
    same sum, but raised the benchmark's evaluate-detect peak RSS by about
    0.1 MB (2-CPU Linux host, numpy 2.4)."""
    total = 0.0
    for value in np.asarray(values, dtype=np.float64).tolist():
        total += value
    return total


def community_edges(g: Graph, p: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Per community of `p`: the edges inside it and its volume (degree sum)."""
    if p.n != g.n:
        raise PartitionError(f"partition covers {p.n} nodes, graph has {g.n}")
    ends = p.labels[g.edge_array]
    intra = np.bincount(ends[ends[:, 0] == ends[:, 1], 0], minlength=p.k)
    vol = np.bincount(ends.reshape(-1), minlength=p.k)
    return intra, vol


def modularity(g: Graph, p: Partition) -> float:
    """Newman-Girvan modularity Q = sum_c [e_c/m - (d_c/2m)^2]."""
    m = g.num_edges
    if m == 0:
        raise ValueError("modularity undefined on an edgeless graph")
    intra, vol = community_edges(g, p)
    return sum_in_order(intra / m - (vol / (2.0 * m)) ** 2)  # in community order


def _entropy(sizes, n: int) -> float:
    h = 0.0
    for s in sizes:
        if s > 0:
            frac = s / n
            h -= frac * math.log(frac)
    return h


def nmi(ct: ContingencyTable) -> float:
    """Normalized mutual information from the contingency table, divided by
    the arithmetic mean of the two entropies.

    Conventions for zero-entropy partitions: both single-community -> 1.0,
    exactly one side single-community -> 0.0.
    """
    n = ct.n
    h1 = _entropy(ct.row_sums.tolist(), n)
    h2 = _entropy(ct.col_sums.tolist(), n)
    if h1 == 0.0 and h2 == 0.0:
        return 1.0
    if h1 == 0.0 or h2 == 0.0:
        return 0.0
    o = ct.overlap
    terms = (o / n) * np.log(o * n / (ct.row_sums[ct.rows] * ct.col_sums[ct.cols]))
    mi = max(sum_in_order(terms), 0.0)  # guard tiny negative round-off
    return mi / (0.5 * (h1 + h2))


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def _comb2_sum(counts: np.ndarray) -> int:
    return int(np.sum(counts * (counts - 1) // 2))


def ari(ct: ContingencyTable) -> float:
    """Adjusted Rand index from contingency-table pair counts."""
    if ct.n < 2:
        raise ValueError("ARI requires at least 2 nodes")
    sum_cells = _comb2_sum(ct.overlap)
    sum_rows = _comb2_sum(ct.row_sums)
    sum_cols = _comb2_sum(ct.col_sums)
    total = _comb2(ct.n)
    expected = sum_rows * sum_cols / total
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        # both partitions degenerate (all-singleton or all-in-one): identical
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def nf1(ct: ContingencyTable) -> float:
    """Normalized F1 over max-overlap matches from predicted to ground truth.

    Each predicted community is matched to the ground-truth community with the
    largest overlap (ties -> smaller ground-truth id). NF1 is the mean matched
    F1 scaled by coverage (fraction of ground-truth communities hit) and
    divided by redundancy (predicted count over distinct matched ground-truth
    count).
    """
    best = ct.best_cells(by_gt=False)  # one cell per predicted community
    o = ct.overlap[best]
    matched = ct.rows[best]
    precision = o / ct.col_sums
    recall = o / ct.row_sums[matched]
    f1 = 2 * precision * recall / (precision + recall)
    # counted without np.unique, whose plain call imports numpy.ma
    n_matched = int(np.count_nonzero(np.bincount(matched, minlength=ct.gt.k)))
    k_gt, k_pred = ct.gt.k, ct.pred.k
    mean_f1 = sum_in_order(f1) / k_pred  # summed in predicted-id order
    coverage = n_matched / k_gt
    redundancy = k_pred / n_matched
    return mean_f1 * coverage / redundancy

