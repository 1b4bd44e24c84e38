"""End-to-end tests of the command-line pipeline.

All tests drive `cdfair.cli.main` directly with argv lists; file outputs go
to pytest tmp_path directories.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import pickle
import re
import shutil
import signal
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfair import bias, cli, evaluate, textio
from cdfair.cli import main
from cdfair.bias import BiasReport
from cdfair.evaluate import derive_cell_seed
from cdfair.graph import load_edge_list, write_edge_list
from cdfair.partition import Partition, load_partition, write_partition
from oracles import generate_two_community, graph_from_edges

DATA = Path(__file__).parent / "data"


def _read_bytes(path: Path) -> bytes:
    return path.read_bytes()


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail, instead of hanging, when the block takes longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _digests(root: Path) -> dict[str, str | None]:
    """Every path under `root`, hidden ones too: a file's sha256, None for a directory."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else
            hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.rglob("*"))}


def _generate(tmp_path: Path, prefix: str = "g", seed: int = 3) -> tuple[Path, Path]:
    """A two-block graph of 120 nodes and its planted partition, written canonically."""
    g, p = generate_two_community(120, 0.25, intra_p=0.3, inter_p=0.02, seed=seed)
    tmp_path.mkdir(parents=True, exist_ok=True)
    edges, gt = tmp_path / f"{prefix}.edges", tmp_path / f"{prefix}.gt"
    with open(edges, "w", encoding="utf-8") as fh:
        write_edge_list(g, fh)
    with open(gt, "w", encoding="utf-8") as fh:
        write_partition(p, fh)
    return edges, gt


class TestGenerate:
    def test_abcd_outputs_and_provenance(self, tmp_path):
        rc = main([
            "generate", "abcd", "--n", "400", "--c-min", "40", "--c-max", "120",
            "--xi", "0.2", "--seed", "11", "--out", str(tmp_path), "--prefix", "a",
        ])
        assert rc == 0
        prov = json.loads((tmp_path / "a.json").read_text())
        assert prov["model"] == "abcd_lite"
        assert prov["params"]["xi"] == 0.2
        assert 0.0 <= prov["realized"]["realized_inter_fraction"] <= 1.0

    def test_generate_is_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert main(["generate", "abcd", "--n", "200", "--c-min", "20", "--c-max", "60",
                         "--seed", "9", "--out", str(d), "--prefix", "g"]) == 0
        for ext in ("edges", "gt", "json"):
            assert _read_bytes(d1 / f"g.{ext}") == _read_bytes(d2 / f"g.{ext}")

    def test_bad_params_exit_1(self, tmp_path):
        rc = main([
            "generate", "abcd", "--n", "100", "--c-min", "200", "--c-max", "100",
            "--out", str(tmp_path),
        ])
        assert rc == 1

    @pytest.mark.parametrize("flags, message", [
        # every degree is 5 and n is odd, so no parity fix can succeed
        (["--n", "101", "--d-min", "5", "--d-max", "5"],
         "d_min = d_max = 5 and n = 101 give an odd degree sum"),
        (["--xi", "1.5"], "xi must lie in [0, 1]"),
        (["--gamma", "nan"], "gamma and beta must be finite"),
        (["--beta", "inf"], "gamma and beta must be finite"),
        # numpy would reject it without naming the option
        (["--seed", "-1"], "seed must be non-negative, got -1"),
        # v^-gamma underflows to 0 at every v, or overflows: numpy's error
        # would not name the option
        (["--gamma", "1000"],
         "gamma = 1000.0: the weights v^-gamma over [5, 50] sum to 0 or overflow float64"),
        (["--gamma", "-1000"],
         "gamma = -1000.0: the weights v^-gamma over [5, 50] sum to 0 or overflow float64"),
        # 50^200 overflows float64; the community sizes were once all c_min
        (["--beta", "-200"],
         "beta = -200.0: the weights v^-beta over [10, 50] sum to 0 or overflow float64"),
        # the files would land beside --out, or be hidden ones named .edges/.gt/.json
        (["--prefix", "../escaped"], "--prefix must be a file name without a path separator, "
                                     "not empty, '.' or '..', got '../escaped'"),
        (["--prefix", ""], "--prefix must be a file name without a path separator, "
                           "not empty, '.' or '..', got ''"),
    ])
    def test_bad_abcd_input_exit_1(self, tmp_path, capsys, flags, message):
        out = tmp_path / "graphs"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["generate", "abcd", "--n", "100", "--c-min", "10", "--c-max", "50",
                       *flags, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [str(w.message) for w in caught] == []  # no numpy warning either
        assert not any(tmp_path.iterdir())  # no --out, and nothing beside it

    def test_failed_generate_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "new" / "graphs"
        assert main(["generate", "abcd", "--n", "10", "--out", str(out)]) == 1
        assert "need 1 <= d_min <= d_max < n" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_abcd_summary_line_reports_dropped_stubs_and_mixing(self, tmp_path, capsys):
        rc = main([
            "generate", "abcd", "--n", "400", "--c-min", "5", "--c-max", "20",
            "--xi", "0.3", "--seed", "4", "--out", str(tmp_path), "--prefix", "a",
        ])
        assert rc == 0
        realized = json.loads((tmp_path / "a.json").read_text())["realized"]
        assert realized["dropped_stubs"] > 0
        line = capsys.readouterr().out.strip()
        assert line.endswith(
            f"(n=400, |E|={realized['num_edges']}, dropped_stubs={realized['dropped_stubs']}, "
            f"realized_inter_fraction={realized['realized_inter_fraction']:.4f})"
        )


# other tools' forms of a canonical file's bytes
DIALECTS = {
    # a comment and CRLF line ends make every block skip the canonical shortcut
    "crlf": lambda data: (b"# a copy with CRLF line ends\n" + data).replace(b"\n", b"\r\n"),
    "konect": lambda data: b"% a KONECT-style copy with tabs\n" + data.replace(b" ", b"\t"),
    "snap": lambda data: b"# a SNAP-form copy\n# FromNodeId\tToNodeId\n" + data.replace(b" ", b"\t"),
    "lone cr": lambda data: data.replace(b"\n", b"\r"),
}


def _bias_and_scores(out: Path) -> tuple[bytes, list[list[str]]]:
    """A run's one bias CSV, and its results.csv past the graph path."""
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        scores = [row[1:] for row in csv.reader(fh)]
    return (out / "bias" / "external:big1_big0.csv").read_bytes(), scores


@pytest.fixture(scope="module")
def big_run(tmp_path_factory) -> tuple[Path, tuple[bytes, list[list[str]]]]:
    """Two n=20000 ABCD graphs, and what evaluating the first against the
    second's ground truth as an external partition writes. The edge list
    spans several read blocks and the bias CSV several write blocks."""
    graphs = tmp_path_factory.mktemp("big")
    for seed in (0, 1):
        assert main(["generate", "abcd", "--n", "20000", "--seed", str(seed),
                     "--out", str(graphs), "--prefix", f"big{seed}"]) == 0
    assert main(["evaluate", "--graph", str(graphs / "big0.edges"),
                 "--gt", str(graphs / "big0.gt"),
                 "--detector", f"external:path={graphs / 'big1.gt'}",
                 "--out", str(graphs / "run")]) == 0
    want = _bias_and_scores(graphs / "run")
    assert (graphs / "big0.edges").stat().st_size > 3 * textio._BLOCK
    assert want[0].count(b"\n") > 2 * bias._BLOCK
    return graphs, want


EVERY_DETECTOR = ["louvain", "label_propagation", "cnm", "external:path=missing.gt"]


def _no_fork():
    raise AssertionError("forked a worker while pinned to one CPU")


@contextlib.contextmanager
def _one_cpu():
    """This process pinned to one CPU, as `taskset -c 0` starts one, until the block ends."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


class TestEvaluate:
    def test_full_run_outputs(self, tmp_path):
        edges, gt = _generate(tmp_path)
        out = tmp_path / "run"
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "louvain", "--detector", "label_propagation",
            "--detector", "cnm", "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["schema_version"] == 1
        assert set(doc["detectors"]) == {"louvain", "label_propagation", "cnm"}
        for entry in doc["detectors"].values():
            row = entry["per_graph"][0]
            assert row["error"] is None
            assert 0.0 <= row["ib_g"] <= 0.5
            assert -0.5 <= row["modularity"] <= 1.0
            for name in ("nmi", "nf1"):
                assert 0.0 <= row[name] <= 1.0
        assert (out / "results.csv").exists()
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header.startswith("graph,detector,stat,error,ib_g,mean_ib")
        # one per-node bias CSV per (detector, graph) cell
        bias_files = sorted(p.name for p in (out / "bias").iterdir())
        assert bias_files == ["cnm_g.csv", "label_propagation_g.csv", "louvain_g.csv"]
        body = (out / "bias" / "louvain_g.csv").read_text().splitlines()
        assert body[0] == "node_id,ib"
        assert len(body) == 121

    def test_rerun_is_byte_identical(self, tmp_path):
        edges, gt = _generate(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main([
                "evaluate", "--graph", str(edges), "--gt", str(gt),
                "--detector", "louvain", "--detector", "label_propagation",
                "--seed", "17", "--out", str(out),
            ])
            assert rc == 0
            outs.append(out)
        for rel in ("report.json", "results.csv", "bias/louvain_g.csv"):
            assert _read_bytes(outs[0] / rel) == _read_bytes(outs[1] / rel)

    def test_external_partition_and_perfect_scores(self, tmp_path):
        edges, gt = _generate(tmp_path)
        out = tmp_path / "run"
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", f"external:path={gt}", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        row = doc["detectors"]["external:g"]["per_graph"][0]
        assert row["ib_g"] == 0.0
        assert row["nmi"] == 1.0
        assert row["ari"] == 1.0
        assert row["nf1"] == 1.0

    def test_external_path_holding_commas_and_equals_is_read_as_given(self, tmp_path):
        # PATH is all of the text after `path=`
        edges, gt = _generate(tmp_path)
        part = tmp_path / "a,path=b.gt"
        part.write_bytes(gt.read_bytes())
        out = tmp_path / "run"
        rc = main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                   "--detector", f"external:path={part}", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["provenance"]["config"]["detectors"] == [
            {"name": "external", "params": {"path": str(part)}}]
        row = doc["detectors"]["external:a,path=b"]["per_graph"][0]
        assert row["error"] is None and row["nmi"] == 1.0

    def test_cell_failure_is_isolated(self, tmp_path, capsys):
        edges, gt = _generate(tmp_path)
        out = tmp_path / "run"
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", f"external:path={tmp_path / 'missing.gt'}",
            "--detector", "cnm", "--out", str(out),
        ])
        assert rc == 0  # one bad detector must not abort the run
        doc = json.loads((out / "report.json").read_text())
        bad = doc["detectors"]["external:missing"]
        assert bad["per_graph"][0]["error"] is not None
        assert bad["aggregate"] is None
        assert doc["detectors"]["cnm"]["per_graph"][0]["error"] is None
        assert any("missing" in w for w in doc["warnings"])
        assert "warning:" in capsys.readouterr().err

    def test_results_csv_quotes_fields_with_commas(self, tmp_path):
        # an error message and a graph path may both hold commas
        edges, gt = _generate(tmp_path / "data,1")
        bad = tmp_path / "bad.gt"
        bad.write_text("0 0\n1 a x\n")
        out = tmp_path / "run"
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", f"external:path={bad}", "--detector", "louvain", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        error = doc["detectors"]["external:bad"]["per_graph"][0]["error"]
        assert error == (f"PartitionError: {bad} (external partition): "
                         "line 2: expected two tokens, got 3")
        with open(out / "results.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)
        by_detector = {row[1]: dict(zip(header, row)) for row in rows}
        assert by_detector["external:bad"]["error"] == error
        assert by_detector["louvain"]["error"] == ""
        assert {row["graph"] for row in by_detector.values()} == {str(edges)}

    def test_multi_graph_aggregate_rows(self, tmp_path):
        e1, g1 = _generate(tmp_path, prefix="a", seed=1)
        e2, g2 = _generate(tmp_path, prefix="b", seed=2)
        out = tmp_path / "run"
        rc = main([
            "evaluate", "--graph", str(e1), "--gt", str(g1),
            "--graph", str(e2), "--gt", str(g2),
            "--detector", "louvain", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        agg = doc["detectors"]["louvain"]["aggregate"]
        assert agg["ib_g"]["std"] >= 0.0
        lines = (out / "results.csv").read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("ALL,louvain,")) == 2

    def test_missing_graphs_exit_1(self, tmp_path, capsys):
        rc = main(["evaluate", "--detector", "cnm", "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_detector_help_gives_the_accepted_grammar(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["evaluate", "--help"])
        assert exited.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal
        assert "--detector DETECTOR NAME or external:path=PATH (repeatable)" in text
        assert "k=v" not in text

    def test_unknown_detector_exit_1(self, tmp_path):
        edges, gt = _generate(tmp_path)
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "walktrap", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

    def test_unreadable_graph_exit_2(self, tmp_path):
        rc = main([
            "evaluate", "--graph", str(tmp_path / "nope.edges"),
            "--gt", str(tmp_path / "nope.gt"),
            "--detector", "cnm", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2

    def test_duplicate_detector_labels_exit_1(self, tmp_path, capsys):
        edges, gt = _generate(tmp_path)
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "louvain", "--detector", "louvain",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("detector 'louvain' on graph") == 2 and "bias/louvain_g.csv" in err
        assert not (tmp_path / "o" / "report.json").exists()

    # only external takes a parameter; the cases that name seed or max_sweeps
    # check that neither is one, since each cell's seed derives from the run seed
    @pytest.mark.parametrize("detector, named", [
        ("louvain:sed=5", ("louvain", "sed", "5")),
        ("label_propagation:max_sweep=1", ("label_propagation", "max_sweep", "1")),
        ("external", ("external", "path")),
        ("louvain:seed=x", ("louvain", "seed", "x")),
        ("label_propagation:max_sweeps=1.5", ("label_propagation", "max_sweeps", "1.5")),
        ("external:path=", ("external", "path")),
        ("louvain:seed=2,seed=3", ("louvain", "seed", "2,seed=3")),
        ("label_propagation:max_sweeps=0", ("label_propagation", "max_sweeps", "0")),
        ("label_propagation:max_sweeps=-3", ("label_propagation", "max_sweeps", "-3")),
        ("louvain:seed=-5", ("louvain", "seed", "-5")),
        ("label_propagation:seed=-1", ("label_propagation", "seed", "-1")),
        ("louvain:seed=1", ("louvain", "seed", "1")),
        ("label_propagation:max_sweeps=5", ("label_propagation", "max_sweeps", "5")),
    ])
    def test_bad_detector_parameter_exit_1(self, tmp_path, capsys, detector, named):
        edges, gt = _generate(tmp_path)
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "louvain", "--detector", detector, "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(repr(word) in err for word in named)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("same_file", [False, True])
    def test_graphs_sharing_a_stem_exit_1(self, tmp_path, capsys, same_file):
        # the bias CSVs are named after the graph's stem: both would be louvain_g.csv
        pairs = [_generate(tmp_path / sub, "g", seed=seed) for sub, seed in (("a", 1), ("b", 2))]
        if same_file:
            pairs[1] = pairs[0]
        argv = ["evaluate", "--detector", "louvain", "--out", str(tmp_path / "o")]
        for edges, gt in pairs:
            argv += ["--graph", str(edges), "--gt", str(gt)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(pairs[0][0]) in err and str(pairs[1][0]) in err and "bias/louvain_g.csv" in err
        assert not (tmp_path / "o").exists()

    def test_external_partitions_sharing_a_stem_exit_1(self, tmp_path, capsys):
        edges, gt = _generate(tmp_path)
        copies = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            copies.append(tmp_path / sub / "p.gt")
            shutil.copy(gt, copies[-1])
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", f"external:path={copies[0]}", "--detector", f"external:path={copies[1]}",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(copies[0]) in err and str(copies[1]) in err

    def test_bias_names_shared_across_cells_exit_1(self, tmp_path, capsys):
        # external:a_b on c and external:a on b_c would both write external:a_b_c.csv
        edges, gt = _generate(tmp_path)
        graphs = []
        for sub, stem in (("d1", "c"), ("d2", "b_c")):
            (tmp_path / sub).mkdir()
            graphs += ["--graph", str(shutil.copy(edges, tmp_path / sub / f"{stem}.edges")),
                       "--gt", str(gt)]
        parts = [shutil.copy(gt, tmp_path / name) for name in ("a_b.part", "a.part")]
        rc = main(["evaluate", *graphs, *(f"--detector=external:path={p}" for p in parts),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: detector {'external:path=' + str(parts[0])!r} on graph "
            f"{str(tmp_path / 'd1' / 'c.edges')!r} and "
            f"detector {'external:path=' + str(parts[1])!r} on graph "
            f"{str(tmp_path / 'd2' / 'b_c.edges')!r} would both write bias/external:a_b_c.csv\n"
        )
        assert not (tmp_path / "o").exists()

    def test_single_community_ground_truth_gives_null_phi(self, tmp_path):
        edges, gt = tmp_path / "t.edges", tmp_path / "t.gt"
        edges.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n")
        gt.write_text("".join(f"{i} 5\n" for i in range(5)))
        out = tmp_path / "run"
        rc = main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                   "--detector", "louvain", "--detector", f"external:path={gt}", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["warnings"] == []
        for label, entry in doc["detectors"].items():
            row = entry["per_graph"][0]
            assert row["error"] is None
            for name in ("ib_g", "mean_ib", "modularity", "nmi", "ari", "nf1"):
                assert isinstance(row[name], float)
            phis = {k: v for k, v in row.items() if k.startswith("phi_")}
            assert len(phis) == 9 and set(phis.values()) == {None}
            assert len((out / "bias" / f"{label}_t.csv").read_text().splitlines()) == 6
        row = doc["detectors"]["external:t"]["per_graph"][0]
        assert (row["ib_g"], row["nmi"], row["ari"], row["nf1"]) == (0.0, 1.0, 1.0, 1.0)

    def test_trailing_isolated_node_comes_from_ground_truth(self, tmp_path):
        edges, gt = tmp_path / "t.edges", tmp_path / "t.gt"
        edges.write_text("0 1\n1 2\n0 2\n")
        gt.write_text("0 0\n1 0\n2 0\n3 1\n")
        out = tmp_path / "run"
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", f"external:path={gt}", "--detector", "louvain", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        for label in ("external:t", "louvain"):
            assert doc["detectors"][label]["per_graph"][0]["error"] is None
            assert len((out / "bias" / f"{label}_t.csv").read_text().splitlines()) == 5
        assert doc["detectors"]["external:t"]["per_graph"][0]["ib_g"] == 0.0

    def test_edge_endpoint_outside_ground_truth_exit_1(self, tmp_path, capsys):
        edges, gt = tmp_path / "t.edges", tmp_path / "t.gt"
        edges.write_text("0 1\n1 3\n")
        gt.write_text("0 0\n1 0\n2 1\n")
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "louvain", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert "line 2: node id 3 outside [0, 3)" in capsys.readouterr().err

    def test_failed_evaluate_leaves_no_out_dir(self, tmp_path):
        edges, gt = tmp_path / "t.edges", tmp_path / "t.gt"
        edges.write_text("0 1\n1 3\n")
        gt.write_text("0 0\n1 0\n2 1\n")
        out = tmp_path / "new" / "run"
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "louvain", "--out", str(out),
        ])
        assert rc == 1
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("dialect", sorted(DIALECTS))
    def test_non_canonical_inputs_give_the_same_bias_csvs(self, tmp_path, big_run, dialect):
        # the graph, its ground truth and the external partition, each a copy
        # in the dialect, must read as the canonical files do
        graphs, want = big_run
        for name in ("big0.edges", "big0.gt", "big1.gt"):
            (tmp_path / name).write_bytes(DIALECTS[dialect]((graphs / name).read_bytes()))
        assert main(["evaluate", "--graph", str(tmp_path / "big0.edges"),
                     "--gt", str(tmp_path / "big0.gt"),
                     "--detector", f"external:path={tmp_path / 'big1.gt'}",
                     "--out", str(tmp_path / "run")]) == 0
        assert _bias_and_scores(tmp_path / "run") == want

    @pytest.mark.parametrize("case", ["three columns", "edge outside ground truth",
                                      "bad ground truth", "stray huge id"])
    def test_load_error_names_its_file(self, tmp_path, capsys, case):
        edges, gt = _generate(tmp_path)
        k_edges, k_gt = tmp_path / "k.edges", tmp_path / "k.gt"
        k_edges.write_text("0 1\n1 2\n")
        k_gt.write_text("0 0\n1 0\n2 1\n")
        if case == "three columns":
            k_edges.write_text("0 1 1\n")
            named = (f"{k_edges} (graph): line 1: expected two tokens, got 3 "
                     "(edge weights are not read: the detectors and IB are unweighted)")
        elif case == "edge outside ground truth":
            k_gt.write_text("0 0\n1 0\n")
            named = (f"{k_edges} (graph): line 2: node id 2 outside [0, 2), "
                     f"the node count of ground truth {k_gt}")
        elif case == "bad ground truth":
            k_gt.write_text("0 0\n1 0\n0 1\n")
            named = f"{k_gt} (ground truth): line 3: node 0 assigned twice"
        else:  # three rows hold three nodes, so the id on line 3 is out of range
            k_gt.write_text("0 a\n1 a\n9000000000000000000 b\n")
            named = f"{k_gt} (ground truth): line 3: node 9000000000000000000 outside [0, 3)"
        out = tmp_path / "run"
        rc = main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                   "--graph", str(k_edges), "--gt", str(k_gt),
                   "--detector", "louvain", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_external_partition_warning_names_its_file(self, tmp_path, capsys):
        edges, gt = _generate(tmp_path)
        edges2, gt2 = _generate(tmp_path, "h", seed=4)
        part, undecodable = tmp_path / "p.part", tmp_path / "q.part"
        part.write_text("0 0\n0 1\n")
        undecodable.write_bytes(b"0 0\n\xff 1\n")
        with pytest.raises(UnicodeDecodeError) as text_read:
            undecodable.read_text(encoding="utf-8")
        rc = main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                   "--graph", str(edges2), "--gt", str(gt2),
                   "--detector", f"external:path={part}", "--detector", "louvain",
                   "--detector", f"external:path={undecodable}",
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
        assert warnings == [
            f"warning: external:p on {g}: PartitionError: {part} (external partition): "
            "line 2: node 0 assigned twice" for g in (edges, edges2)
        ] + [
            f"warning: external:q on {g}: InputError: {undecodable} (external partition): "
            f"{text_read.value}" for g in (edges, edges2)
        ]

    @pytest.mark.parametrize("role", ["ground truth", "graph"], ids=["gt", "graph"])
    def test_undecodable_input_exit_1(self, tmp_path, capsys, role):
        edges, gt = _generate(tmp_path)
        bad = gt if role == "ground truth" else edges
        bad.write_bytes(bad.read_bytes() + b"\xff 0\n")
        # the offset in the file: a text reader names one within its 8 KiB
        # chunk, and the graph file is longer than that
        with pytest.raises(UnicodeDecodeError) as text_read:
            bad.read_bytes().decode("utf-8")
        out = tmp_path / "new" / "run"
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "louvain", "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad} ({role}): {text_read.value}\n"
        assert not (tmp_path / "new").exists()

    def test_negative_run_seed_exit_1(self, tmp_path, capsys):
        # random.Random(-3) would repeat the first cell of --seed 3
        edges, gt = _generate(tmp_path)
        rc = main(["evaluate", "--graph", str(edges), "--gt", str(gt), "--detector", "louvain",
                   "--seed", "-3", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -3\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("detectors, serial", [
        (EVERY_DETECTOR, 1),
        (["label_propagation", "louvain"], 1),  # MAX_SWEEPS=1 below: a logged warning per cell
        # the worker count read from a one-CPU affinity mask, as `taskset -c 0` sets it
        (EVERY_DETECTOR, "pinned"),
    ], ids=["detectors0", "detectors1", "pinned"])
    def test_parallel_run_matches_serial_run(self, tmp_path, monkeypatch, capsys, caplog,
                                             detectors, serial):
        if serial == "pinned" and not hasattr(os, "sched_setaffinity"):
            pytest.skip("this platform cannot pin a process to a CPU")
        if "cnm" not in detectors:  # the forked workers inherit the patch
            monkeypatch.setattr("cdfair.detectors.MAX_SWEEPS", 1)
        graphs = []
        for prefix, seed in (("g1", 3), ("g2", 4), ("g3", 5)):
            edges, gt = _generate(tmp_path, prefix, seed=seed)
            graphs += ["--graph", str(edges), "--gt", str(gt)]
        capsys.readouterr()
        runs = []
        for workers in (serial, 2):
            caplog.clear()
            out = tmp_path / f"workers{workers}"
            with monkeypatch.context() as patch, _deadline(120):
                if workers == "pinned":
                    patch.setattr(os, "fork", _no_fork)
                    pin = _one_cpu()
                else:
                    patch.setattr(evaluate, "_worker_count", lambda cells, w=workers: w)
                    pin = contextlib.nullcontext()
                with pin:
                    rc = main(["evaluate", *graphs, *(f"--detector={d}" for d in detectors),
                               "--seed", "7", "--out", str(out)])
            assert rc == 0
            files = {str(p.relative_to(out)): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()}
            logged = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
            runs.append((files, capsys.readouterr().err, logged))
        assert runs[0] == runs[1]
        files, err, logged = runs[0]
        assert len(files) > 2  # report.json, results.csv and bias CSVs
        if "cnm" in detectors:
            assert err.count("warning: external:missing on ") == 3
        else:
            assert [m for _, _, m in logged] == [
                "label propagation stopped after 1 sweep(s) without converging"] * 3

    @staticmethod
    def _run_with_two_workers_exits_1(tmp_path, monkeypatch, capsys, keep=False):
        """With `keep`, --out exists and holds keep.txt, which must be all it
        holds afterwards; otherwise --out must not be left at all."""
        edges, gt = _generate(tmp_path)
        monkeypatch.setattr(evaluate, "_worker_count", lambda cells: 2)
        out = tmp_path / "run"
        if keep:
            out.mkdir()
            (out / "keep.txt").write_text("mine\n")
        with _deadline(120):
            rc = main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                       "--detector", "louvain", "--detector", "cnm",
                       "--detector", "label_propagation", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: a worker process ended abruptly while evaluating cells\n")
        assert not (out / "report.json").exists()
        assert not (out / "results.csv").exists()
        if keep:
            assert [p.name for p in out.iterdir()] == ["keep.txt"]
            assert (out / "keep.txt").read_text() == "mine\n"
        else:
            assert not out.exists()

    def test_dead_worker_exits_1_without_report(self, tmp_path, monkeypatch, capsys, keep=False):
        evaluate_cell = evaluate.evaluate_cell

        def die_on_cnm(g, gt, name, path, seed):
            if name == "cnm":
                os._exit(3)  # as a worker killed by the OOM killer would end
            return evaluate_cell(g, gt, name, path, seed)

        # forked workers inherit the patches
        monkeypatch.setattr(evaluate, "evaluate_cell", die_on_cnm)
        self._run_with_two_workers_exits_1(tmp_path, monkeypatch, capsys, keep)

    def test_dead_worker_keeps_what_out_held(self, tmp_path, monkeypatch, capsys):
        self.test_dead_worker_exits_1_without_report(tmp_path, monkeypatch, capsys, keep=True)

    @pytest.mark.parametrize("held", ["nothing", "keep.txt", "bias/old.csv"])
    def test_write_error_removes_what_the_run_made(self, tmp_path, monkeypatch, capsys, held):
        # the second bias CSV fails to write, after the first one was written
        edges, gt = _generate(tmp_path)
        out = tmp_path / "nested" / "run"
        if held != "nothing":
            (out / held).parent.mkdir(parents=True)
            (out / held).write_text("mine\n")
        write_csv, calls = BiasReport.write_csv, []

        def fail_second(report, sink):
            calls.append(1)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            write_csv(report, sink)

        monkeypatch.setattr(BiasReport, "write_csv", fail_second)
        with _deadline(120):
            rc = main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                       "--detector", "louvain", "--detector", "cnm", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "I/O error: [Errno 28] No space left on device\n"
        assert len(calls) == 2
        if held == "nothing":  # --out and its parent were made by the run
            assert sorted(tmp_path.iterdir()) == [edges, gt]
        else:
            assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == (
                ["bias", held] if "/" in held else [held])
            assert (out / held).read_text() == "mine\n"

    @pytest.mark.parametrize("death", ["killed mid-cell", "short frame",
                                       "exit 0 after one cell", "exit 3 after one cell"])
    def test_killed_worker_exits_1_without_report(self, tmp_path, monkeypatch, capsys, death):
        if death == "killed mid-cell":
            run_detector = evaluate.run_detector

            def killed_after_cnm(name, path, g, seed):
                pred = run_detector(name, path, g, seed)
                if name == "cnm":
                    os.kill(os.getpid(), signal.SIGKILL)
                return pred

            monkeypatch.setattr(evaluate, "run_detector", killed_after_cnm)
        elif death == "short frame":
            def short_frame(run, task_r, out, inherited):
                i = int.from_bytes(os.read(task_r, 4), "little")
                row = pickle.dumps((i, run(i), []), pickle.HIGHEST_PROTOCOL)
                os.write(out, row[:len(row) // 2])  # a real row, cut short
                os._exit(0)

            monkeypatch.setattr(evaluate, "_serve_cells", short_frame)
        else:
            code = int(death.split()[1])

            def one_cell(run, task_r, out, inherited):
                i = int.from_bytes(os.read(task_r, 4), "little")
                # with its task pipe closed before its row is sent, handing
                # this worker a second cell always meets a broken pipe; the
                # cell left over when both workers are gone is missing
                os.close(task_r)
                with open(out, "wb") as rows:
                    pickle.dump((i, run(i), []), rows, pickle.HIGHEST_PROTOCOL)
                os._exit(code)

            monkeypatch.setattr(evaluate, "_serve_cells", one_cell)
        self._run_with_two_workers_exits_1(tmp_path, monkeypatch, capsys)

    def test_parallel_runs_leave_no_fd_and_no_child(self, tmp_path, monkeypatch):
        edges, gt = _generate(tmp_path)
        monkeypatch.setattr(evaluate, "_worker_count", lambda cells: 2)
        before = sorted(os.listdir("/proc/self/fd"))
        for run in ("run1", "run2"):  # as run_xi_experiment.py makes one call per xi
            with _deadline(120):
                evaluate.evaluate_run([(str(edges), str(gt))],
                                      ["louvain", "cnm"],
                                      str(tmp_path / run))
        assert sorted(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_write_error_stops_the_workers(self, tmp_path, monkeypatch, capsys):
        edges, gt = _generate(tmp_path)
        monkeypatch.setattr(evaluate, "_worker_count", lambda cells: 2)
        out = tmp_path / "run"
        out.mkdir()
        (out / "bias").write_text("")  # a file where the bias directory goes
        before = sorted(os.listdir("/proc/self/fd"))
        with _deadline(120):
            rc = main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                       "--detector", "louvain", "--detector", "cnm",
                       "--detector", "label_propagation", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("I/O error: ")
        assert [p.name for p in out.iterdir()] == ["bias"]
        assert (out / "bias").read_text() == ""  # the file that was there stays
        assert sorted(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("blocked, error", [
        ("bias/cnm_g.csv", "[Errno 21] Is a directory: '{out}/bias/cnm_g.csv'"),
        ("bias", "[Errno 20] Not a directory: '{out}/bias/louvain_g.csv'"),
    ], ids=["directory at bias/cnm_g.csv", "file at bias"])
    def test_failed_rerun_keeps_the_earlier_run_whole(self, tmp_path, capsys, blocked, error):
        # a directory where the re-run's bias/cnm_g.csv goes, or a file where
        # bias/ goes: none of its files may land, and the seed-1 report keeps
        # what stood beside it
        edges, gt = _generate(tmp_path)
        out = tmp_path / "run"
        argv = ["evaluate", "--graph", str(edges), "--gt", str(gt),
                "--detector", "louvain", "--detector", "cnm", "--out", str(out)]
        assert main([*argv, "--seed", "1"]) == 0
        if blocked == "bias":
            shutil.rmtree(out / "bias")
            (out / "bias").write_text("mine\n")
        else:
            (out / blocked).unlink()
            (out / blocked).mkdir()
        before = _digests(out)
        capsys.readouterr()
        with _deadline(120):
            assert main([*argv, "--seed", "2"]) == 2
        assert capsys.readouterr().err == f"I/O error: {error.format(out=out)}\n"
        assert _digests(out) == before  # no .cdfair-partial-* either

    def test_a_killed_runs_staging_directory_blocks_no_later_run(self, tmp_path, capsys):
        # containers often give every run the same pid
        edges, gt = _generate(tmp_path)
        out = tmp_path / "run"
        left = [out / f".cdfair-partial-{os.getpid()}", out / f".cdfair-partial-{os.getpid()}-1"]
        for path in left:
            path.mkdir(parents=True)
        (left[0] / "1").write_text("unmoved\n")
        assert main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                     "--detector", "louvain", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*(p.name for p in left), "bias", "report.json", "results.csv"])
        assert (left[0] / "1").read_text() == "unmoved\n"

    def test_a_rerun_failing_while_its_files_move_leaves_no_report(self, tmp_path, monkeypatch,
                                                                   capsys):
        # the old report.json goes before the first move, so no index is
        # left beside files it does not list
        edges, gt = _generate(tmp_path)
        out = tmp_path / "run"
        argv = ["evaluate", "--graph", str(edges), "--gt", str(gt),
                "--detector", "louvain", "--detector", "cnm", "--out", str(out)]
        assert main([*argv, "--seed", "1"]) == 0
        moves = []
        replace = os.replace

        def failing_replace(src, dst):
            moves.append(dst)
            if len(moves) == 2:
                raise OSError(5, "Input/output error")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        assert main([*argv, "--seed", "2"]) == 2
        assert capsys.readouterr().err.endswith("I/O error: [Errno 5] Input/output error\n")
        assert [Path(p).name for p in moves] == ["louvain_g.csv", "cnm_g.csv"]
        assert sorted(p.name for p in out.iterdir()) == ["bias", "results.csv"]

    def test_a_defect_in_a_metric_stops_the_run(self, tmp_path, monkeypatch):
        # only bad input (ValueError, OSError) fails a single cell; a worker
        # sends any other exception back, raised in its cell's turn, so the
        # slow first cell's error wins over the second's with two workers too
        edges, gt = _generate(tmp_path)
        split = tmp_path / "split.gt"
        split.write_text("".join(f"{v} {v % 4}\n" for v in range(120)))

        def broken_nmi(ct):
            if len(ct.overlap) > 2:  # the split cell, against the two planted blocks
                time.sleep(0.5)
            raise TypeError(f"nmi broken on a table of {len(ct.overlap)} cells")

        monkeypatch.setattr(evaluate, "nmi", broken_nmi)
        for workers in (1, 2):
            monkeypatch.setattr(evaluate, "_worker_count", lambda cells, w=workers: w)
            out = tmp_path / f"workers{workers}"
            with _deadline(120), pytest.raises(TypeError) as exc:
                main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                      "--detector", f"external:path={split}", "--detector", f"external:path={gt}",
                      "--out", str(out)])
            assert str(exc.value) == "nmi broken on a table of 8 cells"
            assert not out.exists()
            with pytest.raises(ChildProcessError):  # every worker was reaped
                os.waitpid(-1, os.WNOHANG)

    def test_edgeless_graph_is_a_cell_warning(self, tmp_path, capsys):
        # every edge is a self-loop, dropped on load, so modularity is
        # undefined: bad input for its cell, not a defect
        edges, gt = tmp_path / "loops.edges", tmp_path / "loops.gt"
        edges.write_text("0 0\n1 1\n2 2\n")
        gt.write_text("0 0\n1 0\n2 1\n")
        rc = main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                   "--detector", f"external:path={gt}", "--out", str(tmp_path / "run")])
        assert rc == 0
        assert "modularity undefined on an edgeless graph" in capsys.readouterr().err

    def test_closing_the_rows_early_kills_the_workers(self, monkeypatch):
        def run(i):
            if i:  # every cell but the first outlasts the deadline
                time.sleep(60)
            return {"i": i}

        monkeypatch.setattr(evaluate, "_worker_count", lambda cells: 2)
        before = sorted(os.listdir("/proc/self/fd"))
        with _deadline(30):
            rows = evaluate._map_cells(run, 10)
            assert next(rows) == {"i": 0}
            rows.close()
        assert sorted(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_more_cells_than_one_pipe_of_tasks_come_in_order(self, monkeypatch):
        # two workers are handed 20,000 cells one at a time, and their rows,
        # which arrive out of cell order, are yielded in it
        monkeypatch.setattr(evaluate, "_worker_count", lambda cells: 2)
        with _deadline(120):
            rows = list(evaluate._map_cells(lambda i: {"i": i}, 20_000))
        assert rows == [{"i": i} for i in range(20_000)]

    def test_worker_count_follows_the_affinity_mask(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        assert evaluate._worker_count(1) == 1
        assert evaluate._worker_count(1000) == cpus
        monkeypatch.delattr(os, "sched_getaffinity")  # as on platforms without it
        assert evaluate._worker_count(1000) == 1

    @pytest.mark.parametrize("env_out", [False, True])
    def test_missing_out_exit_1(self, tmp_path, monkeypatch, capsys, env_out):
        edges, gt = _generate(tmp_path)
        if env_out:  # an environment variable is no second source for --out
            monkeypatch.setenv("CDFAIR_OUT_DIR", str(tmp_path / "envout"))
        else:
            monkeypatch.delenv("CDFAIR_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        rc = main(["evaluate", "--graph", str(edges), "--gt", str(gt), "--detector", "cnm"])
        assert rc == 1
        assert capsys.readouterr().err == "error: no output directory: pass --out\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv, message", [
        (["--gt", "b.gt"], "--graph and --gt must be given the same number of times"),
        (["--detector", "louvain:seed"], "bad detector parameter 'seed' (expected key=value)"),
    ], ids=["unpaired gt", "no ="])
    def test_flag_error_exit_1(self, tmp_path, capsys, argv, message):
        # checked before any input is read: neither file exists
        rc = main(["evaluate", "--graph", "a.edges", "--gt", "a.gt", "--detector", "cnm", *argv,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change, message", [
        ({"graphs": "a/k and b/k"}, "detector 'louvain' on graph {a!r} and detector 'louvain' "
                                    "on graph {b!r} would both write bias/louvain_k.csv"),
        ({"seed": -3}, "--seed must be non-negative, got -3"),
        ({"graphs": []}, "no input graphs: pass --graph and --gt"),
        ({"detectors": []}, "no detectors requested"),
        ({"out_dir": None}, "no output directory: pass --out"),
        ({"out_dir": ""}, "no output directory: pass --out"),
        ({"detectors": ["louvain:seed=1"]},
         "detector 'louvain' has no parameter 'seed' (given '1'); it accepts: none"),
        ({"detectors": ["walktrap"]}, "unknown detector 'walktrap'"),
        ({"detectors": ["external"]}, "detector 'external' requires a 'path' parameter"),
    ], ids=["shared stem", "negative seed", "no graphs", "no detectors", "no out_dir",
            "empty out_dir", "detector parameter", "unknown detector", "external without path"])
    def test_library_call_fails_as_the_command_line_does(self, tmp_path, monkeypatch,
                                                         change, message):
        # evaluate_run raises the error `cdfair evaluate` prints, before it
        # reads an input or makes anything, wherever out_dir points
        pairs = []
        for sub, name in (("a", "karate"), ("b", "abcd300")):
            (tmp_path / sub).mkdir()
            pairs.append(tuple(str(shutil.copy(DATA / f"{name}.{ext}", tmp_path / sub / f"k.{ext}"))
                               for ext in ("edges", "gt")))
        args = {"graphs": pairs[:1], "detectors": ["louvain"],
                "out_dir": str(tmp_path / "o"), **change}
        if args["graphs"] == "a/k and b/k":
            args["graphs"] = pairs
        monkeypatch.chdir(tmp_path)  # where an empty out_dir would resolve
        before = _digests(tmp_path)
        with pytest.raises(evaluate.ConfigError) as exc:
            evaluate.evaluate_run(**args)
        assert str(exc.value) == message.format(a=pairs[0][0], b=pairs[1][0])
        assert _digests(tmp_path) == before

    def test_nmi_norm_is_no_option(self, tmp_path, capsys):
        edges, gt = _generate(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--graph", str(edges), "--gt", str(gt), "--detector", "cnm",
                  "--nmi-norm", "max", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --nmi-norm max" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_round_trip_keeps_isolated_nodes(data):
    """generate -> write -> load -> evaluate, with the last nodes edgeless."""
    n = data.draw(st.integers(4, 25))
    connected = data.draw(st.integers(2, n - 1))  # nodes >= connected are isolated
    node = st.integers(0, connected - 1)
    edges = data.draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                               min_size=1, max_size=3 * n))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1)) + [4]
    g, gt = graph_from_edges(n, edges), Partition.from_labels(labels)
    with tempfile.TemporaryDirectory() as tmp:
        edges_path, gt_path, out = Path(tmp) / "r.edges", Path(tmp) / "r.gt", Path(tmp) / "run"
        with open(edges_path, "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
        with open(gt_path, "w", encoding="utf-8") as fh:
            write_partition(gt, fh)
        loaded_gt = load_partition(gt_path.read_bytes())
        loaded = load_edge_list(edges_path.read_bytes(), n=loaded_gt.n).graph
        assert loaded_gt == gt and loaded.n == n
        assert loaded.edge_array.tolist() == g.edge_array.tolist()
        rc = main([
            "evaluate", "--graph", str(edges_path), "--gt", str(gt_path),
            "--detector", f"external:path={gt_path}", "--detector", "louvain",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        for label in ("external:r", "louvain"):
            assert doc["detectors"][label]["per_graph"][0]["error"] is None
            assert len((out / "bias" / f"{label}_r.csv").read_text().splitlines()) == n + 1
        assert doc["detectors"]["external:r"]["per_graph"][0]["ib_g"] == 0.0


@given(st.data())
@settings(max_examples=300, deadline=None)  # about 3 s; about one run in fifteen exits 0
def test_evaluate_options_give_a_sound_run_or_one_error(data):
    """Generated `cdfair evaluate` command lines, good and bad: each exits 0
    with a sound report and bias CSVs, or 1 with one error line and no --out."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(evaluate, "_worker_count", lambda cells: 1):
        tmp = Path(tmp)
        (tmp / "copy").mkdir()
        (tmp / "ext").mkdir()
        for ext in ("edges", "gt"):  # the stem of a graph already given
            shutil.copy(DATA / f"karate.{ext}", tmp / "copy")
        pairs = [(str(d / f"{name}.edges"), str(d / f"{name}.gt"))
                 for d, name in ((DATA, "karate"), (DATA, "abcd300"), (tmp / "copy", "karate"))]
        parts = [str(shutil.copy(DATA / f"{name}.gt", tmp / "ext"))
                 for name in ("karate", "abcd300")]
        detector = st.one_of(
            st.sampled_from(["louvain", "label_propagation", "cnm", "walktrap", "louvain:sed=1",
                             "louvain:seed=1", "label_propagation:max_sweeps=5", "cnm:path"]),
            st.sampled_from(parts).map(lambda path: f"external:path={path}"),
        )
        graphs = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2))
        texts = data.draw(st.lists(detector, min_size=1, max_size=3))
        out = tmp / "run"
        seed = data.draw(st.integers(-2, 3))
        argv = ["evaluate", "--seed", str(seed)]
        argv += [f"--detector={text}" for text in texts]
        for edges, gt in graphs:
            argv += ["--graph", edges, "--gt", gt]
        if data.draw(st.booleans()):
            argv += ["--out", str(out)]
        before = _digests(tmp)
        with contextlib.redirect_stderr(io.StringIO()) as err, \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 1)
        if rc == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert _digests(tmp) == before
            return
        doc = json.loads((out / "report.json").read_text())
        assert doc["provenance"]["config"]["seed"] == seed >= 0
        labels = [evaluate._label(*evaluate._parse_detector(text)) for text in texts]
        assert sorted(doc["detectors"]) == sorted(labels)
        # one bias CSV per cell that ran: none overwrote another's
        ok = sum(row["error"] is None for label in labels
                 for row in doc["detectors"][label]["per_graph"])
        assert len(list((out / "bias").glob("*"))) == ok
        for label in labels:
            rows = doc["detectors"][label]["per_graph"]
            assert [row["graph"] for row in rows] == [edges for edges, _ in graphs]
            for row, (edges, gt) in zip(rows, graphs):
                if row["error"] is not None:
                    continue
                assert 0.0 <= row["ib_g"] <= 0.5
                with open(out / "bias" / f"{label}_{Path(edges).stem}.csv", newline="") as fh:
                    ib = [float(r["ib"]) for r in csv.DictReader(fh)]
                assert len(ib) == load_partition(Path(gt).read_bytes()).n
                assert all(0.0 <= v < 1.0 for v in ib)


def _data_rows(name: str, ext: str) -> list[list[bytes]]:
    """The token pairs of a file under tests/data, without its comment lines."""
    lines = (DATA / f"{name}.{ext}").read_bytes().splitlines()
    return [line.split() for line in lines if line and line[:1] not in (b"#", b"%")]


# one fault a line of an input file may hold; each gives the line's tokens
_FAULTS = {
    "unicode space": lambda tokens, col: ["\u2003".encode().join(tokens)],  # em space
    "three columns": lambda tokens, col: tokens + [b"1"],
    "huge id": lambda tokens, col: _put(tokens, col, b"9" * 20),
    "negative id": lambda tokens, col: _put(tokens, col, b"-%d" % (int(tokens[col]) + 1)),
    "non-digit token": lambda tokens, col: _put(tokens, col, tokens[col] + b"x"),
    "non-UTF-8 byte": lambda tokens, col: _put(tokens, col, tokens[col] + b"\xff"),
}


def _put(tokens: list[bytes], col: int, token: bytes) -> list[bytes]:
    return tokens[:col] + [token] + tokens[col + 1:]


def _draw_file(data, rows: list[list[bytes]], labels: bool) -> tuple[bytes, bool]:
    """A file of `rows` in a drawn dialect, and whether it holds a fault. In a
    partition file (`labels`) a huge, negative or non-digit token in the second
    column is a community id, which is compared as text: no fault."""
    fault = data.draw(st.sampled_from([None] * 18 + list(_FAULTS) + ["empty content"]))
    if fault == "empty content":
        return b"", True
    col = data.draw(st.integers(0, 1))
    eol = data.draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    sep = data.draw(st.sampled_from([b" ", b"\t", b" \t "]))
    lines = [sep.join(tokens) for tokens in rows]
    if fault is not None:
        at = data.draw(st.integers(0, len(rows) - 1))
        lines[at] = sep.join(_FAULTS[fault](rows[at], col))
    comments = data.draw(st.lists(st.tuples(st.integers(0, len(lines)), st.sampled_from(b"#%")),
                                  max_size=3))
    for at, mark in sorted(comments, reverse=True):
        lines.insert(at, bytes([mark]) + b" a comment" + sep + b"1 2")
    bom = b"\xef\xbb\xbf" if data.draw(st.booleans()) else b""
    label_token = labels and col == 1 and fault in ("huge id", "negative id", "non-digit token")
    content = bom + eol.join(lines) + eol * data.draw(st.booleans())
    return content, fault is not None and not label_token


_ROWS = {(name, ext): _data_rows(name, ext)
         for name in ("karate", "abcd300") for ext in ("edges", "gt")}


@given(st.data())
@settings(max_examples=120, deadline=None)  # about 3 s
def test_evaluate_input_files_give_a_sound_run_or_one_error(data):
    """Graph, ground-truth and external partition files in every dialect the
    loaders read (LF, CRLF or lone-CR line ends, a byte order mark, space or
    tab separators, '#' and '%' comments), each with at most one fault: a run
    exits 0 with sound bias CSVs, or 1 or 2 with one error line naming a
    faulty file or the option, the directory as it was."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(evaluate, "_worker_count", lambda cells: 1):
        tmp = Path(tmp)
        faulty = []
        argv = ["evaluate", "--detector", "louvain", "--out", str(tmp / "run")]
        names = data.draw(st.lists(st.sampled_from(["karate", "abcd300"]), min_size=1, max_size=2))
        for i, name in enumerate(names):
            for ext, flag in (("edges", "--graph"), ("gt", "--gt")):
                path = tmp / f"g{i}.{ext}"
                content, fault = _draw_file(data, _ROWS[name, ext], labels=ext == "gt")
                path.write_bytes(content)
                faulty += [str(path)] * fault
                argv += [flag, str(path)]
        unpaired = data.draw(st.integers(0, 9)) == 0
        if unpaired:  # one --gt fewer than --graph
            argv = argv[:-2]
        external = data.draw(st.sampled_from([None, "karate", "abcd300"]))
        if external is not None:
            content, external_fault = _draw_file(data, _ROWS[external, "gt"], labels=True)
            (tmp / "x.part").write_bytes(content)
            argv += ["--detector", f"external:path={tmp / 'x.part'}"]
        before = _digests(tmp)
        with contextlib.redirect_stderr(io.StringIO()) as err, \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 1, 2)
        lines = err.getvalue().splitlines()
        if rc != 0:
            assert len(lines) == 1 and lines[0].startswith(("error: ", "I/O error: "))
            if unpaired:
                assert lines[0] == "error: --graph and --gt must be given the same number of times"
            else:
                assert any(path in lines[0] for path in faulty), lines[0]
            assert _digests(tmp) == before
            return
        assert not unpaired and not faulty
        doc = json.loads((tmp / "run" / "report.json").read_text())
        for label, entry in doc["detectors"].items():
            for i, row in enumerate(entry["per_graph"]):
                # an external partition fails its cell when it is faulty or
                # covers another number of nodes than the graph
                fails = label != "louvain" and (
                    external_fault or len(_ROWS[external, "gt"]) != len(_ROWS[names[i], "gt"]))
                assert (row["error"] is not None) == fails, row["error"]
                if fails:
                    continue
                assert 0.0 <= row["ib_g"] <= 0.5
                with open(tmp / "run" / "bias" / f"{label}_g{i}.csv", newline="") as fh:
                    ib = [float(r["ib"]) for r in csv.DictReader(fh)]
                assert len(ib) == len(_ROWS[names[i], "gt"])
                assert all(0.0 <= v < 1.0 for v in ib)


class TestSweep:
    def test_single_sweep_csv(self, tmp_path):
        rc = main([
            "sweep", "--scenario", "expand", "--target", "minority",
            "--n", "200", "--runs", "3", "--ratios", "0,0.5,1",
            "--seed", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "sweep_expand_minority.csv").read_text().splitlines()
        assert lines[0] == "scenario,target,n,ratio,mean_ib,std_ib"
        assert len(lines) == 4

    def test_all_scenarios_and_per_run(self, tmp_path):
        argv = ["sweep", "--n", "100", "--runs", "2", "--ratios", "0,1", "--out", str(tmp_path)]
        assert main(argv) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(f"sweep_{scenario}_{target}.csv"
                               for scenario in ("expand", "shrink", "change")
                               for target in ("minority", "majority"))
        # the per-run CSVs are gone: every run of a ratio had the same bias
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--per-run"])
        assert exc.value.code == 2

    def test_sweep_is_deterministic(self, tmp_path):
        for name in ("r1", "r2"):
            (tmp_path / name).mkdir()
            rc = main([
                "sweep", "--scenario", "shrink", "--target", "majority",
                "--n", "150", "--runs", "4", "--seed", "6",
                "--out", str(tmp_path / name),
            ])
            assert rc == 0
        rel = "sweep_shrink_majority.csv"
        assert _read_bytes(tmp_path / "r1" / rel) == _read_bytes(tmp_path / "r2" / rel)

    def test_bad_ratio_exit_1(self, tmp_path):
        rc = main([
            "sweep", "--scenario", "expand", "--target", "minority",
            "--ratios", "0,1.5", "--out", str(tmp_path),
        ])
        assert rc == 1

    @pytest.mark.parametrize("ratios, token", [("0.5,abc", "'abc'"), ("", "''")])
    def test_non_number_ratio_names_the_option(self, tmp_path, capsys, ratios, token):
        out = tmp_path / "o"
        assert main(["sweep", "--n", "10", "--ratios", ratios, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --ratios: {token} is not a number\n"
        assert not out.exists()

    @pytest.mark.parametrize("n, blocks", [("1", "0 and 1"), ("-3", "-1 and -2")])
    def test_degenerate_blocks_name_the_input(self, tmp_path, capsys, n, blocks):
        out = tmp_path / "o"
        assert main(["sweep", "--n", n, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: degenerate block sizes: n={n} and minority_frac=0.2 "
            f"give blocks of {blocks} nodes\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--ratios", "0.5,0.2"],  # not ascending
        ["--n", "3", "--minority", "0.01"],  # no minority block
    ])
    def test_failed_sweep_leaves_no_out_dir(self, tmp_path, flags):
        out = tmp_path / "new" / "sweep"
        assert main(["sweep", *flags, "--out", str(out)]) == 1
        assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command, blocked", [
    ("generate", "g.gt"),
    ("evaluate", "report.json"),
    ("sweep", "sweep_change_majority.csv"),
    ("report", "scatter_ibg_vs_nmi.svg"),
])
def test_a_blocked_destination_lands_no_file(tmp_path, capsys, command, blocked):
    # a directory stands where the command's file goes: the files placed
    # before it must not land either, and no staging directory is left
    edges, gt = tmp_path / "g.edges", tmp_path / "g.gt"
    argv = {"generate": ["generate", "abcd", "--n", "300", "--c-min", "20", "--c-max", "60",
                         "--prefix", "g"],
            "evaluate": ["evaluate", "--graph", str(edges), "--gt", str(gt),
                         "--detector", "louvain"],
            "sweep": ["sweep", "--n", "200"],
            "report": ["report", str(tmp_path / "run" / "report.json")]}[command]
    if command in ("evaluate", "report"):
        _generate(tmp_path)
    if command == "report":
        assert main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                     "--detector", "louvain", "--out", str(tmp_path / "run")]) == 0
    done = tmp_path / "done"
    assert main([*argv, "--out", str(done)]) == 0
    assert (done / blocked).is_file()
    assert not list(done.glob(".cdfair-partial-*"))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"I/O error: [Errno 21] Is a directory: '{out / blocked}'\n"
    assert _digests(out) == {blocked: None}


class TestReport:
    def test_report_from_run(self, tmp_path):
        edges, gt = _generate(tmp_path)
        run = tmp_path / "run"
        assert main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "louvain", "--detector", "cnm", "--out", str(run),
        ]) == 0
        out = tmp_path / "rep"
        rc = main(["report", str(run / "report.json"), "--out", str(out)])
        assert rc == 0
        points = (out / "scatter_points.csv").read_text().splitlines()
        assert points[0] == "detector,graph_group,ib_g,ib_g_std,metric_name,metric_value,metric_std"
        assert len(points) > 1
        svgs = list(out.glob("scatter_ibg_vs_*.svg"))
        assert svgs, "expected at least one SVG scatter"
        assert (out / "scatter_ibg_vs_modularity.svg").read_text().startswith("<svg")

    def test_report_escapes_labels_and_keeps_csv_columns(self, tmp_path):
        # a group holding a comma and a detector label holding & and <
        edges, gt = _generate(tmp_path)
        part = tmp_path / "x&y<z.part"
        shutil.copy(gt, part)
        run = tmp_path / "run"
        assert main([
            "evaluate", "--graph", str(edges), "--gt", str(gt), "--group", "xi=0.2,n=60",
            "--detector", f"external:path={part}", "--detector", "louvain", "--out", str(run),
        ]) == 0
        out = tmp_path / "rep"
        assert main(["report", str(run / "report.json"), "--out", str(out)]) == 0
        with open(out / "scatter_points.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows and all(len(row) == len(header) for row in rows)
        assert {row[0] for row in rows} == {"external:x&y<z", "louvain"}
        assert {row[1] for row in rows} == {"xi=0.2,n=60"}
        svgs = sorted(out.glob("scatter_ibg_vs_*.svg"))
        assert svgs
        for svg in svgs:
            texts = [el.text for el in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
            assert "external:x&y<z" in texts

    @pytest.mark.parametrize("doc, message", [
        ([1], "a run report must be a JSON object"),
        ({"schema_version": 1}, "no 'detectors' object"),
        ({"schema_version": 1, "detectors": {"louvain": {"aggregate": {"ib_g": {"mean": 0.1}}}}},
         "detector 'louvain': aggregate 'ib_g' must be null or hold a numeric 'mean' and 'std'"),
        ({"schema_version": 1, "detectors": {"louvain": {"aggregate": {
            "ib_g": {"mean": True, "std": False}}}}},
         "detector 'louvain': aggregate 'ib_g' must be null or hold a numeric 'mean' and 'std'"),
        ({"schema_version": 1, "detectors": {"louvain": {"aggregate": {
            "ib_g": {"mean": 0.1, "std": 0.0}, "nmi": {"mean": float("nan"), "std": float("inf")}}}}},
         "detector 'louvain': aggregate 'nmi' must be null or hold a numeric 'mean' and 'std'"),
        ({"schema_version": 1, "detectors": {"louvain": {"aggregate": {
            "ib_g": {"mean": 0.1, "std": 10**400}}}}},
         "detector 'louvain': aggregate 'ib_g' must be null or hold a numeric 'mean' and 'std'"),
        pytest.param(b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: "
                     "invalid start byte", id="not utf-8"),
        pytest.param(b'{"schema_version": 1, ', "Expecting property name enclosed in double "
                     "quotes", id="cut off"),
    ])
    def test_report_rejects_malformed_report(self, tmp_path, capsys, doc, message):
        # a file that is not UTF-8 or not JSON is named as one that breaks the schema is
        bad = tmp_path / "report.json"
        bad.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        assert main(["report", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_report_rejects_bad_schema(self, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"schema_version": 999, "detectors": {}}))
        rc = main(["report", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1


@pytest.mark.parametrize("text, params", [
    ("external:path=a,b.part", {"path": "a,b.part"}),
    ("external:path=a,b,c.part", {"path": "a,b,c.part"}),
    ("external:path=a=b,c.part", {"path": "a=b,c.part"}),
    ("cnm", {}),
])
def test_parse_detector_splits_only_before_a_key(text, params):
    assert evaluate._parse_detector(text) == (text.partition(":")[0], params.get("path"))


def test_derive_cell_seed_is_injective_over_small_grid():
    seen = {derive_cell_seed(42, di, gi) for di in range(8) for gi in range(100)}
    assert len(seen) == 800


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _parser_rows(parser, command: str = ""):
    """(command, option, default) for every option of every sub-command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parser_rows(sub, f"{command} {name}".strip())
        elif command and not isinstance(action, argparse._HelpAction):
            if action.required:
                default = "required"
            elif isinstance(action, argparse._AppendAction):
                default = "repeatable"
            else:
                default = "none" if action.default is None else f"`{action.default}`"
            yield command, (action.option_strings or [action.dest])[0], default


def test_docs_table_lists_every_cli_option():
    """The option table of docs/file_formats.md names every option of every
    sub-command, with its default, in the parser's order."""
    docs = (Path(__file__).parent.parent / "docs" / "file_formats.md").read_text(encoding="utf-8")
    section = docs.split("## Command-line options", 1)[1].split("\n## ", 1)[0]
    table = re.findall(r"^\| `([a-z -]+)` +\| `([\w-]+)` +\| (.+?) +\|", section, flags=re.M)
    assert table == list(_parser_rows(cli.build_parser()))
