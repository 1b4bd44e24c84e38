"""Group fairness: per-community scores regressed on normalized properties.

For each ground-truth community we compute structural properties (size,
conductance, density) and detection scores (FCCN, F1, FCCE against the
max-overlap predicted community). The fairness value for a (property, score)
pair is the ordinary-least-squares slope of score against the min-max
normalized property; slope 0 means no systematic bias, its sign says which
communities are favoured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .graph import Graph
from .partition import ContingencyTable, Partition, PartitionError

PROPERTIES = ("size", "conductance", "density")
SCORES = ("fccn", "f1", "fcce")


@dataclass(frozen=True)
class CommunityStats:
    size: int
    density: float  # 2 e_c / (s (s-1)); 1.0 for singletons by convention
    conductance: float  # cut / min(vol, vol_complement); 0 for the full graph


@dataclass(frozen=True)
class CommunityScores:
    fccn: float
    f1: float
    fcce: float


@dataclass(frozen=True)
class GroupFairnessResult:
    # phi[property][score] -> OLS slope, or None when the property is degenerate
    phi: dict[str, dict[str, float | None]]
    stats: list[CommunityStats]
    scores: list[CommunityScores]

    def write_points_csv(self, sink: TextIO) -> None:
        sink.write("community,property,property_norm,fccn,f1,fcce\n")
        for prop in PROPERTIES:
            raw = [getattr(st, prop) for st in self.stats]
            norm = _minmax(raw)
            for c, (st, sc) in enumerate(zip(self.stats, self.scores)):
                nv = "" if norm is None else repr(norm[c])
                sink.write(
                    f"{c},{prop},{nv},{sc.fccn!r},{sc.f1!r},{sc.fcce!r}\n"
                )

    def write_phi_json(self, sink: TextIO) -> None:
        json.dump(self.phi, sink, sort_keys=True, indent=2)
        sink.write("\n")


def ols_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Slope of the least-squares line through (x, y)."""
    n = len(x)
    if n != len(y) or n < 2:
        raise ValueError("need at least two paired points")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((xi - mx) ** 2 for xi in x)
    if sxx == 0.0:
        raise ValueError("slope undefined: all x values equal")
    sxy = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    return sxy / sxx


def _minmax(values: Sequence[float]) -> list[float] | None:
    lo, hi = min(values), max(values)
    if lo == hi:
        return None
    return [(v - lo) / (hi - lo) for v in values]


def community_stats(g: Graph, p: Partition) -> list[CommunityStats]:
    """Size, density, conductance per community of `p`."""
    if p.n != g.n:
        raise PartitionError(f"partition covers {p.n} nodes, graph has {g.n}")
    lu, lv = p.labels[g.edge_array].T
    same = lu == lv
    intra = np.bincount(lu[same], minlength=p.k)
    cut = np.bincount(lu[~same], minlength=p.k) + np.bincount(lv[~same], minlength=p.k)
    vol = np.bincount(lu, minlength=p.k) + np.bincount(lv, minlength=p.k)
    s = p.sizes
    pairs = s * (s - 1)
    density = np.where(s == 1, 1.0, 2.0 * intra / np.maximum(pairs, 1))
    denom = np.minimum(vol, 2 * g.num_edges - vol)
    conductance = np.where(denom == 0, 0.0, cut / np.maximum(denom, 1))
    return [
        CommunityStats(size=size, density=d, conductance=c)
        for size, d, c in zip(s.tolist(), density.tolist(), conductance.tolist())
    ]


def community_scores(g: Graph, ct: ContingencyTable) -> list[CommunityScores]:
    """FCCN / F1 / FCCE per ground-truth community.

    Each ground-truth community is mapped to the predicted community of
    maximum overlap, ties broken towards the smaller predicted id. FCCE of an
    edgeless community is 1.0 by convention (nothing to misclassify).
    """
    gt = ct.gt
    if gt.n != g.n:
        raise PartitionError(f"partition covers {gt.n} nodes, graph has {g.n}")
    best = ct.best_cells()  # one cell per ground-truth community
    o = ct.overlap[best]
    s = gt.sizes
    sp = ct.col_sums[ct.cols[best]]
    lu, lv = gt.labels[g.edge_array].T
    intra_edges = np.bincount(lu[lu == lv], minlength=gt.k)
    # an edge is kept when both ends share one cell and it is their row's best
    cu, cv = ct.node_cell[g.edge_array].T
    is_best = np.zeros(len(ct.overlap), dtype=bool)
    is_best[best] = True
    kept = (cu == cv) & is_best[cu]
    kept_edges = np.bincount(ct.rows[cu[kept]], minlength=gt.k)
    fccn = o / s
    precision = o / sp
    recall = o / s
    f1 = 2 * precision * recall / (precision + recall)
    fcce = np.where(intra_edges == 0, 1.0, kept_edges / np.maximum(intra_edges, 1))
    return [
        CommunityScores(fccn=a, f1=b, fcce=c)
        for a, b, c in zip(fccn.tolist(), f1.tolist(), fcce.tolist())
    ]


def phi(g: Graph, ct: ContingencyTable) -> GroupFairnessResult:
    """Fairness slopes for all (property, score) combinations."""
    if ct.gt.k < 2:
        raise PartitionError("group fairness needs at least two ground-truth communities")
    stats = community_stats(g, ct.gt)
    scores = community_scores(g, ct)
    result: dict[str, dict[str, float | None]] = {}
    for prop in PROPERTIES:
        norm = _minmax([getattr(st, prop) for st in stats])
        result[prop] = {}
        for score in SCORES:
            if norm is None:
                result[prop][score] = None
            else:
                ys = [getattr(sc, score) for sc in scores]
                result[prop][score] = ols_slope(norm, ys)
    return GroupFairnessResult(phi=result, stats=stats, scores=scores)
