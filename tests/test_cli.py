"""End-to-end tests of the command-line pipeline.

All tests drive `cdfair.cli.main` directly with argv lists; file outputs go
to pytest tmp_path directories.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfair import cli, evaluate
from cdfair.cli import main
from cdfair.detectors import DetectorSpec
from cdfair.evaluate import derive_cell_seed
from cdfair.graph import load_edge_list, write_edge_list
from cdfair.partition import Partition, load_partition, write_partition
from oracles import generate_two_community, graph_from_edges


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
        assert not out.exists()

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
            "--detector", "louvain:seed=1", "--detector", "louvain:seed=2",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "louvain:seed=1" in err and "louvain:seed=2" in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("detector, named", [
        ("louvain:sed=5", ("louvain", "sed", "5")),
        ("label_propagation:max_sweep=1", ("label_propagation", "max_sweep", "1")),
        ("external", ("external", "path")),
        ("louvain:seed=x", ("louvain", "seed", "x")),
        ("label_propagation:max_sweeps=1.5", ("label_propagation", "max_sweeps", "1.5")),
        ("external:path=", ("external", "path")),
        ("louvain:seed=2,seed=3", ("seed", "louvain:seed=2,seed=3")),
        ("label_propagation:max_sweeps=0", ("label_propagation", "max_sweeps", "0")),
        ("label_propagation:max_sweeps=-3", ("label_propagation", "max_sweeps", "-3")),
        # random.Random(-5) would repeat seed 5
        ("louvain:seed=-5", ("louvain", "seed", "-5")),
        ("label_propagation:seed=-1", ("label_propagation", "seed", "-1")),
    ])
    def test_bad_detector_parameter_exit_1(self, tmp_path, capsys, detector, named):
        edges, gt = _generate(tmp_path)
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "louvain:seed=1", "--detector", detector, "--out", str(tmp_path / "o"),
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

    def test_non_canonical_inputs_give_the_same_bias_csvs(self, tmp_path):
        # a comment and CRLF line ends make every block skip the canonical
        # shortcut; both readings must give the same result
        edges, gt = _generate(tmp_path / "canonical")
        (tmp_path / "crlf").mkdir()
        for path in (edges, gt):
            text = b"# written on another system\n" + path.read_bytes()
            (tmp_path / "crlf" / path.name).write_bytes(text.replace(b"\n", b"\r\n"))
        for run in ("canonical", "crlf"):
            d = tmp_path / run
            assert main([
                "evaluate", "--graph", str(d / "g.edges"), "--gt", str(d / "g.gt"),
                "--detector", "louvain", "--detector", f"external:path={d / 'g.gt'}",
                "--out", str(d / "out"),
            ]) == 0
        for name in ("louvain_g.csv", "external:g_g.csv"):
            want = (tmp_path / "canonical" / "out" / "bias" / name).read_bytes()
            assert (tmp_path / "crlf" / "out" / "bias" / name).read_bytes() == want

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

    @pytest.mark.parametrize("detectors", [
        ["louvain", "label_propagation", "cnm", "external:path=missing.gt"],
        ["label_propagation:max_sweeps=1", "louvain"],  # a logged warning per cell
    ])
    def test_parallel_run_matches_serial_run(self, tmp_path, monkeypatch, capsys, caplog,
                                             detectors):
        graphs = []
        for prefix, seed in (("g1", 3), ("g2", 4), ("g3", 5)):
            edges, gt = _generate(tmp_path, prefix, seed=seed)
            graphs += ["--graph", str(edges), "--gt", str(gt)]
        capsys.readouterr()
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(evaluate, "_worker_count", lambda cells, w=workers: w)
            caplog.clear()
            out = tmp_path / f"workers{workers}"
            with _deadline(120):
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
    def _run_with_two_workers_exits_1(tmp_path, monkeypatch, capsys):
        edges, gt = _generate(tmp_path)
        monkeypatch.setattr(evaluate, "_worker_count", lambda cells: 2)
        out = tmp_path / "run"
        with _deadline(120):
            rc = main(["evaluate", "--graph", str(edges), "--gt", str(gt),
                       "--detector", "louvain", "--detector", "cnm",
                       "--detector", "label_propagation", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: a worker process ended abruptly while evaluating cells\n")
        assert not (out / "report.json").exists()
        assert not (out / "results.csv").exists()

    def test_dead_worker_exits_1_without_report(self, tmp_path, monkeypatch, capsys):
        evaluate_cell = evaluate.evaluate_cell

        def die_on_cnm(g, gt, spec, seed):
            if spec.name == "cnm":
                os._exit(3)  # as a worker killed by the OOM killer would end
            return evaluate_cell(g, gt, spec, seed)

        # forked workers inherit the patches
        monkeypatch.setattr(evaluate, "evaluate_cell", die_on_cnm)
        self._run_with_two_workers_exits_1(tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("death", ["killed mid-cell", "short frame",
                                       "exit 0 after one cell", "exit 3 after one cell"])
    def test_killed_worker_exits_1_without_report(self, tmp_path, monkeypatch, capsys, death):
        if death == "killed mid-cell":
            run_detector = evaluate.run_detector

            def killed_after_cnm(spec, g, seed):
                pred = run_detector(spec, g, seed)
                if spec.name == "cnm":
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
            cfg = evaluate.RunConfig(graphs=[(str(edges), str(gt))],
                                     detectors=[DetectorSpec("louvain"), DetectorSpec("cnm")],
                                     out_dir=str(tmp_path / run))
            with _deadline(120):
                evaluate.evaluate_run(cfg)
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
        assert not (out / "report.json").exists()
        assert sorted(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    @pytest.mark.parametrize("flags", [
        ["--ratios", "0.5,0.2"],  # not ascending
        ["--n", "3", "--minority", "0.01"],  # no minority block
    ])
    def test_failed_sweep_leaves_no_out_dir(self, tmp_path, flags):
        out = tmp_path / "new" / "sweep"
        assert main(["sweep", *flags, "--out", str(out)]) == 1
        assert not (tmp_path / "new").exists()


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
    ])
    def test_report_rejects_malformed_report(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(doc))
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
    ("label_propagation:seed=1,max_sweeps=2", {"seed": "1", "max_sweeps": "2"}),
    ("cnm", {}),
])
def test_parse_detector_splits_only_before_a_key(text, params):
    spec = evaluate._parse_detector(text)
    assert (spec.name, spec.params) == (text.partition(":")[0], params)


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
