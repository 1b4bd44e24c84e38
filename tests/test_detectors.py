import io
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from cdfair.detectors import (
    DETECTORS,
    DetectorSpec,
    greedy_agglomerative,
    label_propagation,
    louvain,
    run_detector,
)
from cdfair.partition import contingency
from cdfair.quality import ari, modularity, nmi
from oracles import graph_from_edges


def two_triangles():
    return graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def planted(n, blocks, intra_p, inter_p, seed):
    rng = np.random.default_rng(seed)
    labels = [i * blocks // n for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = intra_p if labels[i] == labels[j] else inter_p
            if rng.random() < p:
                edges.append((i, j))
    from cdfair.partition import Partition

    return graph_from_edges(n, edges), Partition.from_labels(labels)


# ------------------------------------------------------- label propagation


def test_lpa_disconnected_triangles():
    for seed in range(5):
        p = label_propagation(two_triangles(), seed=seed)
        assert p.k == 2
        assert p.labels[0] == p.labels[1] == p.labels[2]
        assert p.labels[3] == p.labels[4] == p.labels[5]


def test_lpa_complete_graph_single_community():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    g = graph_from_edges(5, edges)
    assert label_propagation(g, seed=3).k == 1


def test_lpa_recovers_planting():
    hits = 0
    for seed in range(10):
        g, gt = planted(60, 2, 0.5, 0.01, seed=100 + seed)
        pred = label_propagation(g, seed=seed)
        if ari(contingency(gt, pred)) >= 0.9:
            hits += 1
    assert hits >= 9


def test_lpa_warns_when_it_stops_at_max_sweeps(caplog):
    g, _ = planted(60, 2, 0.5, 0.01, seed=100)
    with caplog.at_level(logging.WARNING, logger="cdfair.detectors"):
        label_propagation(g, seed=0)
    assert caplog.records == []
    with caplog.at_level(logging.WARNING, logger="cdfair.detectors"):
        label_propagation(g, seed=0, max_sweeps=1)
    assert [r.getMessage() for r in caplog.records] == [
        "label propagation stopped after 1 sweep(s) without converging"
    ]


def test_lpa_requires_edges():
    with pytest.raises(ValueError):
        label_propagation(graph_from_edges(3, []), seed=0)


@pytest.mark.parametrize("detector, kwargs, message", [
    (label_propagation, {"max_sweeps": 0}, "parameter 'max_sweeps' must be at least 1, got 0"),
    (label_propagation, {"max_sweeps": -3}, "parameter 'max_sweeps' must be at least 1, got -3"),
    (louvain, {"seed": -5}, "detector 'louvain': parameter 'seed' must be non-negative, got -5"),
    (label_propagation, {"seed": -7},
     "detector 'label_propagation': parameter 'seed' must be non-negative, got -7"),
])
def test_direct_call_rejects_parameter_out_of_range(detector, kwargs, message):
    with pytest.raises(ValueError, match=message):
        detector(two_triangles(), **kwargs)


# ------------------------------------------------------- louvain


def test_louvain_two_triangles():
    p = louvain(two_triangles(), seed=0)
    assert modularity(two_triangles(), p) == pytest.approx(0.5)
    assert p.k == 2


def test_louvain_star_single_community():
    g = graph_from_edges(11, [(0, i) for i in range(1, 11)])
    p = louvain(g, seed=0)
    assert p.k == 1


def test_louvain_never_below_singletons():
    from cdfair.partition import Partition

    for seed in range(3):
        g, _ = planted(40, 3, 0.4, 0.05, seed=seed)
        p = louvain(g, seed=seed)
        singles = Partition.from_labels(list(range(g.n)))
        assert modularity(g, p) >= modularity(g, singles)


def test_louvain_abcd_recovery():
    from cdfair.synthgen import AbcdParams, generate_abcd_lite

    g, planted_p, _ = generate_abcd_lite(
        AbcdParams(n=1000, c_min=50, c_max=200, xi=0.2, seed=4)
    )
    pred = louvain(g, seed=1)
    assert nmi(contingency(planted_p, pred)) >= 0.9


# ------------------------------------------------------- CNM


def test_cnm_two_triangles():
    p = greedy_agglomerative(two_triangles())
    assert p.k == 2
    assert modularity(two_triangles(), p) == pytest.approx(0.5)


def test_cnm_single_edge():
    g = graph_from_edges(2, [(0, 1)])
    assert greedy_agglomerative(g).k == 1


def test_cnm_planted_three_communities():
    g, gt = planted(30, 3, 0.7, 0.05, seed=9)
    pred = greedy_agglomerative(g)
    assert ari(contingency(gt, pred)) >= 0.8


def test_cnm_deterministic():
    g, _ = planted(30, 3, 0.6, 0.05, seed=2)
    assert greedy_agglomerative(g) == greedy_agglomerative(g)


# ------------------------------------------------------- dispatch


def test_run_detector_determinism():
    g, _ = planted(50, 2, 0.4, 0.02, seed=5)
    spec = DetectorSpec("louvain")
    assert run_detector(spec, g, 1) == run_detector(spec, g, 1)


def test_run_detector_lpa_complete_graph():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    g = graph_from_edges(4, edges)
    p = run_detector(DetectorSpec("label_propagation"), g, 7)
    assert p.k == 1


def test_run_detector_external(tmp_path):
    g = two_triangles()
    path = tmp_path / "pred.gt"
    path.write_text("0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n")
    p = run_detector(DetectorSpec("external", {"path": str(path)}), g)
    assert p.labels.tolist() == [0, 0, 0, 1, 1, 1]


def test_run_detector_external_requires_path():
    with pytest.raises(ValueError):
        run_detector(DetectorSpec("external"), two_triangles())


@pytest.mark.parametrize("name, params, called_with", [
    ("louvain", {}, {"seed": 5}),
    ("label_propagation", {}, {"seed": 5}),
    ("cnm", {}, {}),
    ("external", {"path": "p.gt"}, {"path": "p.gt"}),
])
def test_run_detector_passes_the_derived_seed_only_when_the_spec_sets_none(
        monkeypatch, name, params, called_with):
    # no spec sets a seed: louvain and label_propagation take the cell's
    calls = []
    monkeypatch.setitem(DETECTORS, name, lambda g, **kwargs: calls.append(kwargs))
    run_detector(DetectorSpec(name, params), two_triangles(), seed=5)
    assert calls == [called_with]


@pytest.mark.parametrize("name, params", [
    ("louvain", {"seed": "x"}),
    ("label_propagation", {"max_sweeps": "0"}),
    ("cnm", {"seed": "1"}),
])
def test_bad_parameter_fails_when_the_spec_is_built(name, params):
    # `external`'s path is the only detector parameter
    with pytest.raises(ValueError, match=f"detector {name!r} has no parameter"):
        DetectorSpec(name, params)


def test_spec_params_must_be_a_dict():
    with pytest.raises(ValueError, match="detector 'external': parameters must be key=value pairs"):
        DetectorSpec("external", [("path", "p.gt")])


def test_unknown_detector_rejected():
    with pytest.raises(ValueError):
        DetectorSpec("leiden")


def test_returned_partitions_valid():
    g, _ = planted(40, 2, 0.4, 0.05, seed=6)
    for spec in (DetectorSpec("louvain"), DetectorSpec("label_propagation"), DetectorSpec("cnm")):
        p = run_detector(spec, g)
        assert p.n == g.n
        assert sorted(set(p.labels.tolist())) == list(range(p.k))
        assert p.sizes.sum() == g.n


def test_docs_table_lists_the_detector_parameters():
    """The detector table of docs/file_formats.md names every detector and
    the parameters its spec accepts: `external`'s path, and none for the others."""
    docs = (Path(__file__).parent.parent / "docs" / "file_formats.md").read_text(encoding="utf-8")
    section = docs.split("## Detector specs", 1)[1].split("\n## ", 1)[0]
    table = {name: re.findall(r"`(\w+)` \(", params)
             for name, params in re.findall(r"^\| `(\w+)` +\|(.*)\|$", section, flags=re.M)}

    def accepts(name, key):
        try:
            DetectorSpec(name, {key: "p.gt"})
        except ValueError as exc:
            return "has no parameter" not in str(exc)
        return True

    keys = ("path", "seed", "max_sweeps")
    assert table == {name: [key for key in keys if accepts(name, key)] for name in DETECTORS}
    assert list(table) == list(DETECTORS)
