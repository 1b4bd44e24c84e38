"""Acceptance suite: the eleven release criteria, one test per criterion.

Each test is self-contained (no imports from the other test modules; the
slow reference implementations come from ``oracles.py``) and
prints a one-line PASS summary with the measured quantities, so running
`pytest tests/test_acceptance.py -v -s` doubles as a release report.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from cdfair.bias import ib_all_fast
from cdfair.cli import main as cli_main
from cdfair.detectors import louvain
from cdfair.graph import Graph, write_edge_list
from cdfair.groupfair import _centred, _slopes, phi
from cdfair.partition import Partition, contingency, write_partition
from cdfair.perturb import SweepConfig, run_sweep
from cdfair.quality import ari, modularity, nf1, nmi
from cdfair.synthgen import AbcdParams, generate_abcd_lite
from oracles import (
    generate_two_community, graph_from_edges, ib_all_naive, node_ib, perturb_expand,
    perturb_shrink,
)


def _random_partition(rng: np.random.Generator, n: int) -> Partition:
    k = int(rng.integers(1, n + 1))
    labels = rng.integers(0, k, size=n)
    return Partition.from_labels(labels.tolist())


# criterion 1 -------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20260826)
    start = time.monotonic()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 201))
        gt = _random_partition(rng, n)
        pred = _random_partition(rng, n)
        fast = node_ib(ib_all_fast(contingency(gt, pred)))
        naive = node_ib(ib_all_naive(gt, pred))
        worst = max(worst, float(np.max(np.abs(fast - naive))))
        assert worst <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 1 PASS: 500 triples, max |fast - naive| = {worst:.2e}, {elapsed:.1f}s")


# criterion 2 -------------------------------------------------------------


def test_criterion_2_range_invariants():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 120))
        gt = _random_partition(rng, n)
        pred = _random_partition(rng, n)
        rep = ib_all_fast(contingency(gt, pred))
        assert np.all(node_ib(rep) >= 0.0) and np.all(node_ib(rep) < 1.0)
        assert 0.0 <= rep.ib_g <= 0.5
        assert ib_all_fast(contingency(gt, gt)).ib_g == 0.0  # exact, not approximate
    print("criterion 2 PASS: IB in [0,1), IB_G in [0,0.5], identity gives exactly 0")


# criterion 3 -------------------------------------------------------------


def test_criterion_3_expansion_ceilings():
    vals = {}
    for target, frac in (("majority", 0.8), ("minority", 0.2)):
        cfg = SweepConfig(scenario="expand", target=target, ratios=(1.0,),
                          n=1000, minority_frac=0.2)
        vals[target] = run_sweep(cfg).mean_ib[0]
    exact_maj = 1.0 - math.sqrt(0.8)
    exact_min = 1.0 - math.sqrt(0.2)
    assert vals["majority"] == pytest.approx(exact_maj, abs=1e-12)
    assert vals["minority"] == pytest.approx(exact_min, abs=1e-12)
    # reading tolerance against the reported rough values
    assert abs(vals["majority"] - 0.10) <= 0.06
    assert abs(vals["minority"] - 0.5) <= 0.06
    print(f"criterion 3 PASS: ceilings {vals['majority']:.4f} / {vals['minority']:.4f} "
          f"= 1-sqrt(0.8) / 1-sqrt(0.2) to 1e-12")


# criterion 4 -------------------------------------------------------------


def test_criterion_4_shrink_to_singleton():
    checked = {}
    for s in (20, 80, 2000, 8000):
        # place a community of exactly s nodes next to one other community
        n = 5 * s
        cfg = SweepConfig(scenario="shrink", target="minority", ratios=(1.0,),
                          n=n, minority_frac=s / n)
        val = run_sweep(cfg).mean_ib[0]
        assert val == pytest.approx(1.0 - 1.0 / math.sqrt(s), abs=1e-12)
        checked[s] = val
    assert checked[8000] >= 0.988
    print("criterion 4 PASS: shrink endpoints " +
          ", ".join(f"s={s}: {v:.6f}" for s, v in checked.items()))


# criterion 5 -------------------------------------------------------------


def test_criterion_5_shrink_exceeds_expand():
    count = 0
    for s in range(10, 101, 10):
        gt = Partition.from_labels([0] * s + [1] * s)
        for k in range(1, s):
            shrunk = perturb_shrink(gt, 0, k / s, seed=k)
            expanded = perturb_expand(gt, 0, k / s, seed=k)
            ib_shrink = float(node_ib(ib_all_fast(contingency(gt, shrunk)))[0])
            ib_expand = float(node_ib(ib_all_fast(contingency(gt, expanded)))[0])
            assert ib_shrink == pytest.approx(1.0 - math.sqrt((s - k) / s), abs=1e-12)
            assert ib_expand == pytest.approx(1.0 - math.sqrt(s / (s + k)), abs=1e-12)
            assert ib_shrink > ib_expand, (s, k)
            count += 1
    print(f"criterion 5 PASS: shrink-IB > expand-IB on all {count} (s, k) grid points")


# criterion 6 -------------------------------------------------------------


def _sweep_means(scenario: str, target: str, n: int) -> np.ndarray:
    cfg = SweepConfig(scenario=scenario, target=target,
                      ratios=tuple(r / 10 for r in range(11)), n=n)
    return np.array(run_sweep(cfg).mean_ib)


def test_criterion_6_curve_shapes_and_size_invariance():
    # count rounding perturbs second differences by O(f'(k)); 1e-4 bounds it at n=1000
    tol = 1e-4
    for target in ("minority", "majority"):
        exp = _sweep_means("expand", target, 1000)
        assert np.all(np.diff(exp) >= -1e-12)
        assert np.all(np.diff(np.diff(exp)) <= tol)
        shr = _sweep_means("shrink", target, 1000)
        assert np.all(np.diff(shr) >= -1e-12)
        assert np.all(np.diff(np.diff(shr)) >= -tol)
    # change tracks expansion shape for the minority, shrink shape for the majority
    chg_min = _sweep_means("change", "minority", 1000)
    assert np.all(np.diff(chg_min) >= -1e-12)
    assert np.all(np.diff(np.diff(chg_min)) <= tol)
    chg_maj = _sweep_means("change", "majority", 1000)
    assert np.all(np.diff(chg_maj) >= -1e-12)
    assert np.all(np.diff(np.diff(chg_maj)) >= -tol)
    # graph-size invariance; the shrink/change endpoint is excluded because
    # its closed form (1 - 1/sqrt(s), 1 - 1/sqrt(s*(1+outside))) is size-
    # dependent by construction — the shrink-to-singleton criterion assigns
    # it a different value for every s
    worst = 0.0
    for scenario in ("expand", "shrink", "change"):
        cut = None if scenario == "expand" else -1
        for target in ("minority", "majority"):
            small = _sweep_means(scenario, target, 100)[:cut]
            large = _sweep_means(scenario, target, 10000)[:cut]
            worst = max(worst, float(np.max(np.abs(small - large))))
    assert worst <= 0.02
    print(f"criterion 6 PASS: curve shapes hold; n=100 vs n=10000 max gap {worst:.4f} <= 0.02")


# criterion 7 -------------------------------------------------------------


def _ari_pair_oracle(gt: Partition, pred: Partition) -> float:
    a = b = c = d = 0
    for i, j in itertools.combinations(range(gt.n), 2):
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
    expected = (a + c) * (a + d) / total
    max_index = 0.5 * ((a + c) + (a + d))
    if max_index == expected:
        return 1.0
    return (a - expected) / (max_index - expected)


def _three_distinct_communities() -> tuple[Graph, Partition]:
    edges = [
        (0, 1), (1, 2), (0, 2),
        (3, 4), (4, 5), (5, 6),
        (7, 8), (8, 9), (9, 10), (10, 11), (7, 11), (7, 9), (8, 10),
        (2, 3), (6, 7),
    ]
    return graph_from_edges(12, edges), Partition.from_labels([0] * 3 + [1] * 4 + [2] * 5)


def test_criterion_7_quality_goldens():
    g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    two = Partition.from_labels([0, 0, 0, 1, 1, 1])
    assert modularity(g, two) == pytest.approx(0.5, abs=1e-12)

    gt4 = Partition.from_labels([0, 0, 1, 1])
    pred4 = Partition.from_labels([0, 1, 0, 1])
    assert ari(contingency(gt4, pred4)) == pytest.approx(-0.5, abs=1e-12)

    ind_gt = Partition.from_labels([0, 0, 1, 1])
    ind_pred = Partition.from_labels([0, 1, 0, 1])
    assert nmi(contingency(ind_gt, ind_pred)) == pytest.approx(0.0, abs=1e-12)

    g3, gt3 = _three_distinct_communities()
    assert ari(contingency(gt3, gt3)) == 1.0
    assert nmi(contingency(gt3, gt3)) == 1.0
    assert nf1(contingency(gt3, gt3)) == 1.0
    perfect = phi(g3, contingency(gt3, gt3))
    for metric, value in perfect.items():
        assert value == pytest.approx(0.0, abs=1e-12), metric

    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        gt = _random_partition(rng, n)
        pred = _random_partition(rng, n)
        assert ari(contingency(gt, pred)) == pytest.approx(_ari_pair_oracle(gt, pred), abs=1e-12)
    print("criterion 7 PASS: quality goldens, perfect-prediction identities, "
          "ARI = pair oracle on 200 random pairs")


# criterion 8 -------------------------------------------------------------


def _shatter(shatter_small: bool):
    n = 100
    g = graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    gt = Partition.from_labels([0] * 10 + [1] * 90)
    if shatter_small:
        pred = Partition.from_labels(list(range(10)) + [10] * 90)
    else:
        pred = Partition.from_labels([0] * 10 + list(range(1, 91)))
    return g, contingency(gt, pred)


def test_criterion_8_phi_signs_and_ols():
    pos = phi(*_shatter(shatter_small=True))["phi_size_fccn"]
    neg = phi(*_shatter(shatter_small=False))["phi_size_fccn"]
    assert pos > 0.0
    assert neg < 0.0
    slope = _slopes([0.0, 0.5, 1.0], {"y": _centred([0.2, 0.5, 0.8])})["y"]
    assert slope == pytest.approx(0.6, abs=1e-12)
    print(f"criterion 8 PASS: phi_size_fccn = {pos:+.3f} / {neg:+.3f}, OLS slope 0.6")


# criterion 9 -------------------------------------------------------------


def _abcd(xi: float, seed: int):
    params = AbcdParams(n=2000, gamma=2.5, d_min=5, d_max=50, beta=1.5,
                        c_min=50, c_max=400, xi=xi, seed=seed)
    return generate_abcd_lite(params)


def test_criterion_9_generator_mixing():
    observed = {}
    for xi in (0.0, 0.2, 0.4, 0.6):
        start = time.monotonic()
        _, _, info = _abcd(xi, seed=100)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        frac = info["realized_inter_fraction"]
        if xi == 0.0:
            assert frac == 0.0  # exact: excess stubs are dropped, never diverted
        else:
            assert abs(frac - xi) <= 0.05
        observed[xi] = frac
    print("criterion 9 PASS: realized mixing " +
          ", ".join(f"xi={xi}: {f:.3f}" for xi, f in observed.items()))


# criterion 10 ------------------------------------------------------------


def test_criterion_10_louvain_directional():
    scores = {}
    for xi in (0.2, 0.6):
        nmis, ibgs = [], []
        for seed in range(5):
            g, gt, _ = _abcd(xi, seed=200 + seed)
            pred = louvain(g, seed=seed)
            nmis.append(nmi(contingency(gt, pred)))
            ibgs.append(ib_all_fast(contingency(gt, pred)).ib_g)
        scores[xi] = (float(np.mean(nmis)), float(np.mean(ibgs)))
    assert scores[0.2][0] >= 0.85
    assert scores[0.2][1] <= 0.1
    assert scores[0.2][0] - scores[0.6][0] >= 0.3
    print(f"criterion 10 PASS: xi=0.2 NMI {scores[0.2][0]:.3f} IB_G {scores[0.2][1]:.3f}; "
          f"xi=0.6 NMI {scores[0.6][0]:.3f} (drop {scores[0.2][0] - scores[0.6][0]:.3f})")


# criterion 11 ------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    g, gt = generate_two_community(150, seed=8)
    with open(data / "g.edges", "w", encoding="utf-8") as fh:
        write_edge_list(g, fh)
    with open(data / "g.gt", "w", encoding="utf-8") as fh:
        write_partition(gt, fh)

    files: dict[str, list[bytes]] = {}
    for rep in ("r1", "r2"):
        base = tmp_path / rep
        assert cli_main([
            "generate", "abcd", "--n", "500", "--c-min", "50", "--c-max", "200",
            "--seed", "4", "--out", str(base / "gen"), "--prefix", "a",
        ]) == 0
        assert cli_main([
            "evaluate", "--graph", str(data / "g.edges"), "--gt", str(data / "g.gt"),
            "--detector", "louvain", "--detector", "label_propagation",
            "--detector", "cnm", "--seed", "12", "--out", str(base / "run"),
        ]) == 0
        assert cli_main([
            "sweep", "--scenario", "change", "--target", "both", "--n", "200",
            "--runs", "3", "--seed", "1", "--out", str(base / "sweep"),
        ]) == 0
        assert cli_main([
            "report", str(base / "run" / "report.json"), "--out", str(base / "rep"),
        ]) == 0
        for path in sorted(base.rglob("*")):
            if path.is_file():
                files.setdefault(str(path.relative_to(base)), []).append(path.read_bytes())

    assert files, "no outputs produced"
    for rel, blobs in files.items():
        assert len(blobs) == 2, f"{rel} missing from one replicate"
        assert blobs[0] == blobs[1], f"{rel} differs between identical re-runs"
    print(f"criterion 11 PASS: {len(files)} CLI output files byte-identical across re-runs")
