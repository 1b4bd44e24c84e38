"""Group fairness: per-community scores regressed on normalized properties.

For each ground-truth community we compute structural properties (size,
conductance, density) and detection scores (FCCN, F1, FCCE against the
max-overlap predicted community). The fairness value for a (property, score)
pair is the ordinary-least-squares slope of score against the min-max
normalized property; slope 0 means no systematic bias, its sign says which
communities are favoured.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .partition import ContingencyTable, Partition
from .quality import community_edges, sum_in_order
from .report import PROPERTIES, SCORES


def _centred(values) -> np.ndarray:
    """`values` as floats less their mean, summed in order (`sum_in_order`)."""
    values = np.asarray(values, dtype=np.float64)
    return values - sum_in_order(values) / len(values)


def _slopes(x, dys: dict[str, np.ndarray]) -> dict[str, float]:
    """Slope of the least-squares line through (x, y) for each centred y of
    `dys` (``_centred``), by key; x holds two distinct values or more.

    Each sum adds one term at a time in point order (`sum_in_order`), so each
    slope is the one the textbook loop gives, bit for bit; x is centred
    once for all of them.
    """
    dx = _centred(x)
    # float_power calls C pow() as Python's ** does; numpy's dx ** 2 multiplies,
    # which rounds differently in about one term in a thousand
    sxx = sum_in_order(np.float_power(dx, 2))
    return {key: sum_in_order(dx * dy) / sxx for key, dy in dys.items()}


def _minmax(values) -> np.ndarray | None:
    values = np.asarray(values)
    lo, hi = values.min(), values.max()
    if lo == hi:
        return None
    return (values - lo) / (hi - lo)


def _stats(g: Graph, p: Partition, intra: np.ndarray, vol: np.ndarray) -> dict[str, np.ndarray]:
    """Size, conductance and density of each community of `p`, from its
    internal edges and volumes (``community_edges``).

    Density is 2 e_c / (s (s-1)), 1.0 for singletons by convention;
    conductance is cut / min(vol, vol of the complement), 0 for the full graph.
    """
    s = p.sizes
    pairs = s * (s - 1)
    density = np.where(s == 1, 1.0, 2.0 * intra / np.maximum(pairs, 1))
    denom = np.minimum(vol, 2 * g.num_edges - vol)
    # each cut edge adds 1 to its community's volume, each internal edge 2
    conductance = np.where(denom == 0, 0.0, (vol - 2 * intra) / np.maximum(denom, 1))
    return {"size": s, "conductance": conductance, "density": density}


def _scores(g: Graph, ct: ContingencyTable, intra_edges: np.ndarray) -> dict[str, np.ndarray]:
    """FCCN / F1 / FCCE of each ground-truth community, given its internal
    edge counts.

    Each ground-truth community is mapped to the predicted community of
    maximum overlap, ties broken towards the smaller predicted id. FCCE of an
    edgeless community is 1.0 by convention (nothing to misclassify).
    """
    gt = ct.gt
    best = ct.best_cells()  # one cell per ground-truth community
    o = ct.overlap[best]
    s = gt.sizes
    sp = ct.pred.sizes[ct.cols[best]]
    # an edge is kept when both ends share one cell and it is their row's best
    cu, cv = ct.node_cell[g.edge_array].T
    is_best = np.zeros(len(ct.overlap), dtype=bool)
    is_best[best] = True
    kept = (cu == cv) & is_best[cu]
    kept_edges = np.bincount(ct.rows[cu[kept]], minlength=gt.k)
    precision = o / sp
    recall = o / s
    return {
        "fccn": o / s,
        "f1": 2 * precision * recall / (precision + recall),
        "fcce": np.where(intra_edges == 0, 1.0, kept_edges / np.maximum(intra_edges, 1)),
    }


def phi(g: Graph, ct: ContingencyTable) -> dict[str, float | None]:
    """Fairness slopes for all (property, score) combinations.

    Returns ``{"phi_<property>_<score>": OLS slope}``, keyed and ordered as
    ``report.PHI_METRICS``. A property equal across every ground-truth
    community, as with a single community, gives no slope: its entries are
    None. Each score is centred once for all three properties (``_slopes``).
    """
    intra, vol = community_edges(g, ct.gt)  # shared by the properties and the scores
    stats = _stats(g, ct.gt, intra, vol)
    dys = {score: _centred(y) for score, y in _scores(g, ct, intra).items()}
    result: dict[str, float | None] = {}
    for prop in PROPERTIES:
        norm = _minmax(stats[prop])
        slopes = {} if norm is None else _slopes(norm, dys)
        for score in SCORES:
            result[f"phi_{prop}_{score}"] = slopes.get(score)
    return result
