"""Zachary's karate club: values published outside this package.

The club's 34 members, 78 friendships and two factions (``data/karate.*``,
written once from networkx's ``karate_club_graph()``, unweighted) anchor the
detectors and measures to results that do not share this code's
conventions: Louvain reaches the proven modularity optimum 0.4198 (Brandes
et al., IEEE TKDE 20(2), 2008), and CNM finds Newman's three communities with
Q = 0.381 (Phys. Rev. E 69, 066133, 2004), the partition networkx's
``greedy_modularity_communities`` gives. The files are in SNAP form, ``#``
header lines and tab-separated columns, so they also check that form.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from cdfair.cli import main
from cdfair.detectors import greedy_agglomerative
from cdfair.graph import load_edge_list
from cdfair.partition import load_partition

DATA = Path(__file__).parent / "data"

# k, Q, IB_G, mean IB and NMI of each detector's partition
EXPECTED = {
    "louvain": (4, 0.41978961209730437, 0.14970507177963216, 0.3039333317071068,
                0.5878497068250671),
    "cnm": (3, 0.3806706114398422, 0.21858394152949487, 0.2393958727694796,
            0.5646068790944768),
    "label_propagation": (3, 0.35987836949375407, 0.20379510132182863, 0.15880887738034732,
                          0.7028377456013088),
}
# Newman's three communities, labelled in order of their smallest node
CNM_LABELS = [0, 1, 1, 1, 0, 0, 0, 1, 2, 1, 0, 0, 1, 1, 2, 2, 0,
              1, 2, 0, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]


def test_karate_club_matches_published_values(tmp_path):
    edges, gt = DATA / "karate.edges", DATA / "karate.gt"
    for path in (edges, gt):
        head, *body = path.read_text().splitlines()
        assert head.startswith("#") and all("\t" in line and " " not in line
                                            for line in body if not line.startswith("#"))
    truth = load_partition(gt.read_bytes())
    g = load_edge_list(edges.read_bytes(), n=truth.n).graph
    assert (g.n, g.num_edges, truth.sizes.tolist()) == (34, 78, [17, 17])
    assert greedy_agglomerative(g).labels.tolist() == CNM_LABELS

    out = tmp_path / "run"
    assert main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                 "--detector", "louvain:seed=0", "--detector", "cnm",
                 "--detector", "label_propagation:seed=0", "--out", str(out)]) == 0
    detectors = json.loads((out / "report.json").read_text())["detectors"]
    assert set(detectors) == set(EXPECTED)
    for label, (k, q, ib_g, mean_ib, nmi) in EXPECTED.items():
        row = detectors[label]["per_graph"][0]
        assert row["error"] is None and row["k_pred"] == k, label
        if label != "label_propagation":  # the optimum and Newman's partition, exactly
            assert row["modularity"] == q, label
        assert [row["modularity"], row["ib_g"], row["mean_ib"], row["nmi"]] == pytest.approx(
            [q, ib_g, mean_ib, nmi], rel=0, abs=1e-12), label
