import itertools
import math

import numpy as np
import pytest

from cdfair.graph import Graph
from cdfair.partition import Partition, PartitionError, contingency
from cdfair.quality import ari, community_edges, modularity, nf1, nmi, sum_in_order
from oracles import graph_from_edges


def two_triangles():
    return graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


# ---------------------------------------------------------------- modularity


def test_two_triangles_modularity():
    p = Partition.from_labels([0, 0, 0, 1, 1, 1])
    assert modularity(two_triangles(), p) == pytest.approx(0.5, abs=1e-12)


def test_all_in_one_modularity_zero():
    p = Partition.from_labels([0] * 6)
    assert modularity(two_triangles(), p) == pytest.approx(0.0, abs=1e-12)


def test_community_edges_rejects_a_partition_of_other_nodes():
    with pytest.raises(PartitionError, match="partition covers 5 nodes, graph has 6"):
        community_edges(two_triangles(), Partition.from_labels([0] * 5))


def test_sum_in_order_adds_left_to_right():
    # CPython 3.12's sum() compensates and gives 1.0
    assert sum_in_order([1e16, 1.0, -1e16]) == 0.0
    assert sum_in_order(np.array([0.1] * 10)) == 0.9999999999999999


def test_edgeless_graph_rejected():
    g = graph_from_edges(3, [])
    with pytest.raises(ValueError):
        modularity(g, Partition.from_labels([0, 0, 1]))


def modularity_pairwise_oracle(g: Graph, p: Partition) -> float:
    # Q = (1/2m) sum_ij (A_ij - d_i d_j / 2m) delta(c_i, c_j)
    m = g.num_edges
    edges = set(map(tuple, g.edge_array.tolist()))
    degree = g.degrees.tolist()
    total = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if p.labels[i] != p.labels[j]:
                continue
            a = 1.0 if (min(i, j), max(i, j)) in edges and i != j else 0.0
            total += a - degree[i] * degree[j] / (2.0 * m)
    return total / (2.0 * m)


def test_modularity_matches_pairwise_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 50
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.08
        }
        g = graph_from_edges(n, edges)
        if g.num_edges == 0:
            continue
        p = Partition.from_labels(rng.integers(0, 5, size=n).tolist())
        assert modularity(g, p) == pytest.approx(modularity_pairwise_oracle(g, p), abs=1e-12)


# ---------------------------------------------------------------- NMI


def test_nmi_identical():
    p = Partition.from_labels([0, 0, 1, 1, 2])
    assert nmi(contingency(p, p)) == pytest.approx(1.0, abs=1e-12)


def test_nmi_independent_labels():
    # halves vs parity on n=100: exactly independent
    gt = Partition.from_labels([0] * 50 + [1] * 50)
    pred = Partition.from_labels([i % 2 for i in range(100)])
    assert nmi(contingency(gt, pred)) == pytest.approx(0.0, abs=1e-12)


def test_nmi_one_side_single_community():
    gt = Partition.from_labels([0, 0, 1, 1])
    pred = Partition.from_labels([0, 0, 0, 0])
    assert nmi(contingency(gt, pred)) == 0.0


def test_nmi_both_single_community():
    p = Partition.from_labels([0, 0, 0])
    assert nmi(contingency(p, p)) == 1.0


def test_nmi_symmetric():
    rng = np.random.default_rng(5)
    gt = Partition.from_labels(rng.integers(0, 4, 40).tolist())
    pred = Partition.from_labels(rng.integers(0, 3, 40).tolist())
    assert nmi(contingency(gt, pred)) == pytest.approx(nmi(contingency(pred, gt)), abs=1e-12)


# ---------------------------------------------------------------- ARI


def test_ari_identical():
    p = Partition.from_labels([0, 0, 1, 1, 2, 2])
    assert ari(contingency(p, p)) == pytest.approx(1.0)


def test_ari_four_node_example():
    gt = Partition.from_labels([0, 0, 1, 1])
    pred = Partition.from_labels([0, 1, 0, 1])
    assert ari(contingency(gt, pred)) == pytest.approx(-0.5, abs=1e-12)


def test_ari_requires_two_nodes():
    with pytest.raises(ValueError):
        ari(contingency(Partition.from_labels([0]), Partition.from_labels([0])))


def ari_pair_oracle(gt: Partition, pred: Partition) -> float:
    n = gt.n
    a = b = c = d = 0
    for i, j in itertools.combinations(range(n), 2):
        same_gt = gt.labels[i] == gt.labels[j]
        same_pred = pred.labels[i] == pred.labels[j]
        if same_gt and same_pred:
            a += 1
        elif same_gt:
            c += 1
        elif same_pred:
            d += 1
        else:
            b += 1
    total = a + b + c + d
    sum_rows = a + c
    sum_cols = a + d
    expected = sum_rows * sum_cols / total
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return (a - expected) / (max_index - expected)


def test_ari_matches_exhaustive_pair_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        gt = Partition.from_labels(rng.integers(0, n, n).tolist())
        pred = Partition.from_labels(rng.integers(0, n, n).tolist())
        assert ari(contingency(gt, pred)) == pytest.approx(ari_pair_oracle(gt, pred), abs=1e-12)


# ---------------------------------------------------------------- NF1


def test_nf1_identical():
    p = Partition.from_labels([0, 0, 1, 1, 2, 2])
    assert nf1(contingency(p, p)) == pytest.approx(1.0, abs=1e-12)


def test_nf1_all_in_one_vs_three_equal():
    gt = Partition.from_labels([0, 0, 1, 1, 2, 2])
    pred = Partition.from_labels([0] * 6)
    # mean F1 = 0.5, coverage = 1/3, redundancy = 1
    assert nf1(contingency(gt, pred)) == pytest.approx(1 / 6, abs=1e-12)


def test_nf1_coarse_prediction():
    gt2 = Partition.from_labels([0, 0, 1, 1])
    pred2 = Partition.from_labels([0, 0, 0, 0])
    # F1 = 2*(1/2*1)/(3/2) = 2/3, coverage = 1/2, redundancy = 1 -> 1/3
    assert nf1(contingency(gt2, pred2)) == pytest.approx(1 / 3, abs=1e-12)


def test_nf1_matching_oracle_small():
    gt = Partition.from_labels([0, 0, 0, 1, 1, 1])
    pred = Partition.from_labels([0, 0, 1, 2, 2, 2])
    # pred 0 -> gt 0 (o=2): F1 = 2*(1*2/3)/(1+2/3) = 0.8
    # pred 1 -> gt 0 (o=1): F1 = 2*(1*1/3)/(1+1/3) = 0.5
    # pred 2 -> gt 1 (o=3): F1 = 1
    # mean = (0.8+0.5+1)/3, coverage = 1, redundancy = 3/2
    expected = ((0.8 + 0.5 + 1.0) / 3) / 1.5
    assert nf1(contingency(gt, pred)) == pytest.approx(expected, abs=1e-12)


def test_nf1_not_symmetric():
    gt = Partition.from_labels([0, 0, 0, 1, 1])
    pred = Partition.from_labels([0, 0, 0, 0, 0])
    # forward: single predicted community, half the ground truth covered
    assert nf1(contingency(gt, pred)) == pytest.approx(0.75 * 0.5, abs=1e-12)
    # reverse direction matches both communities but pays the redundancy cost
    expected = ((0.75 + 2 * 2 / 7) / 2) / 2
    assert nf1(contingency(pred, gt)) == pytest.approx(expected, abs=1e-12)
    assert nf1(contingency(gt, pred)) != pytest.approx(nf1(contingency(pred, gt)))


# ---------------------------------------------------------------- shared


def test_relabeling_invariance_all_metrics():
    rng = np.random.default_rng(23)
    g = two_triangles()
    gt = Partition.from_labels([0, 0, 0, 1, 1, 1])
    pred = Partition.from_labels([1, 1, 0, 0, 0, 1])
    gt_r = Partition.from_labels([5, 5, 5, 2, 2, 2])
    pred_r = Partition.from_labels([9, 9, 4, 4, 4, 9])
    assert modularity(g, pred) == modularity(g, pred_r)
    assert nmi(contingency(gt, pred)) == nmi(contingency(gt_r, pred_r))
    assert ari(contingency(gt, pred)) == ari(contingency(gt_r, pred_r))
    assert nf1(contingency(gt, pred)) == nf1(contingency(gt_r, pred_r))
