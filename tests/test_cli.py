"""End-to-end tests of the command-line pipeline.

All tests drive `cdfair.cli.main` directly with argv lists; file outputs go
to pytest tmp_path directories.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
import signal
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfair import cli
from cdfair.cli import derive_cell_seed, main
from cdfair.graph import Graph, load_edge_list, write_edge_list
from cdfair.partition import Partition, load_partition, write_partition


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
    rc = main([
        "generate", "two-community", "--n", "120", "--minority", "0.25",
        "--intra-p", "0.3", "--inter-p", "0.02", "--seed", str(seed),
        "--out", str(tmp_path), "--prefix", prefix,
    ])
    assert rc == 0
    return tmp_path / f"{prefix}.edges", tmp_path / f"{prefix}.gt"


class TestGenerate:
    def test_two_community_outputs(self, tmp_path):
        edges, gt = _generate(tmp_path)
        assert edges.exists() and gt.exists()
        prov = json.loads((tmp_path / "g.json").read_text())
        assert prov["model"] == "two_community"
        assert prov["params"]["n"] == 120
        assert prov["realized"]["num_edges"] > 0
        # ground truth assigns every node exactly once
        lines = [ln for ln in gt.read_text().splitlines() if ln and not ln.startswith("#")]
        assert len(lines) == 120

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
            d.mkdir()
            _generate(d, seed=9)
        assert _read_bytes(d1 / "g.edges") == _read_bytes(d2 / "g.edges")
        assert _read_bytes(d1 / "g.gt") == _read_bytes(d2 / "g.gt")

    def test_bad_params_exit_1(self, tmp_path):
        rc = main([
            "generate", "abcd", "--n", "100", "--c-min", "200", "--c-max", "100",
            "--out", str(tmp_path),
        ])
        assert rc == 1

    @pytest.mark.parametrize("flags, message", [
        (["--d-max-iter", "0"], "d_max_iter >= 1"),
        (["--c-max-iter", "0"], "c_max_iter >= 1"),
        (["--gamma", "nan"], "gamma and beta must be finite"),
        (["--beta", "inf"], "gamma and beta must be finite"),
        # every degree is 5 and n is odd, so no parity fix can succeed
        (["--n", "101", "--d-min", "5", "--d-max", "5", "--d-max-iter", "3"],
         "degree sampling failed after d_max_iter attempts"),
    ])
    def test_bad_abcd_input_exit_1(self, tmp_path, capsys, flags, message):
        rc = main(["generate", "abcd", "--n", "100", "--c-min", "10", "--c-max", "50",
                   *flags, "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "graph.edges").exists()

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
        assert error == "PartitionError: line 2: expected two tokens, got 3"
        with open(out / "results.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert all(len(row) == len(header) for row in rows)
        by_detector = {row[1]: dict(zip(header, row)) for row in rows}
        assert by_detector["external:bad"]["error"] == error
        assert by_detector["louvain"]["error"] == ""
        assert {row["graph"] for row in by_detector.values()} == {str(edges)}

    def test_config_file_with_flag_override(self, tmp_path):
        edges, gt = _generate(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graphs": [[str(edges), str(gt)]],
            "detectors": [{"name": "louvain"}],
            "metrics": ["ib", "nmi"],
            "seed": 4,
            "out": str(tmp_path / "from_cfg"),
        }))
        rc = main(["evaluate", "--config", str(cfg)])
        assert rc == 0
        doc = json.loads((tmp_path / "from_cfg" / "report.json").read_text())
        row = doc["detectors"]["louvain"]["per_graph"][0]
        assert "nmi" in row and "modularity" not in row
        # flag overrides the config file's metric list and output directory
        rc = main([
            "evaluate", "--config", str(cfg), "--metrics", "modularity",
            "--out", str(tmp_path / "override"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "override" / "report.json").read_text())
        row = doc["detectors"]["louvain"]["per_graph"][0]
        assert "modularity" in row and "nmi" not in row

    def test_oracle_flag_matches_fast_path(self, tmp_path):
        edges, gt = _generate(tmp_path)
        vals = {}
        for flag, name in ((False, "fast"), (True, "oracle")):
            out = tmp_path / name
            argv = ["evaluate", "--graph", str(edges), "--gt", str(gt),
                    "--detector", "cnm", "--metrics", "ib", "--out", str(out)]
            if flag:
                argv.append("--oracle")
            assert main(argv) == 0
            doc = json.loads((out / "report.json").read_text())
            vals[name] = doc["detectors"]["cnm"]["per_graph"][0]["ib_g"]
        assert vals["fast"] == pytest.approx(vals["oracle"], abs=1e-12)

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

    def test_unknown_metric_exit_1(self, tmp_path):
        edges, gt = _generate(tmp_path)
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "cnm", "--metrics", "ib,bogus", "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

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
            "--detector", "louvain:seed=1", "--detector", "louvain:resolution=3",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "louvain:seed=1" in err and "louvain:resolution=3" in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("detector, named", [
        ("louvain:sed=5", ("louvain", "sed", "5")),
        ("label_propagation:max_sweep=1", ("label_propagation", "max_sweep", "1")),
        ("cnm:resolution=2", ("cnm", "resolution", "2")),
        ("louvain:seed=x", ("louvain", "seed", "x")),
        ("label_propagation:max_sweeps=1.5", ("label_propagation", "max_sweeps", "1.5")),
        ("louvain:resolution=high", ("louvain", "resolution", "high")),
        ("louvain:seed=2,seed=3", ("seed", "louvain:seed=2,seed=3")),
        ("label_propagation:max_sweeps=0", ("label_propagation", "max_sweeps", "0")),
        ("label_propagation:max_sweeps=-3", ("label_propagation", "max_sweeps", "-3")),
        ("louvain:resolution=nan", ("louvain", "resolution", "nan")),
        ("louvain:resolution=inf", ("louvain", "resolution", "inf")),
    ])
    def test_bad_detector_parameter_exit_1(self, tmp_path, capsys, detector, named):
        edges, gt = _generate(tmp_path)
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "louvain:seed=1", "--detector", detector, "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert all(repr(word) in err for word in named)
        assert not (tmp_path / "o").exists()

    def test_bad_detector_parameter_in_config_exit_1(self, tmp_path, capsys):
        edges, gt = _generate(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graphs": [[str(edges), str(gt)]],
            "detectors": [{"name": "louvain", "params": {"seed": None}}],
            "out": str(tmp_path / "o"),
        }))
        assert main(["evaluate", "--config", str(cfg)]) == 1
        assert "'seed'" in capsys.readouterr().err
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
            monkeypatch.setattr(cli, "_worker_count", lambda cells, w=workers: w)
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

    def test_dead_worker_exits_1_without_report(self, tmp_path, monkeypatch, capsys):
        edges, gt = _generate(tmp_path)
        evaluate_cell = cli.evaluate_cell

        def die_on_cnm(cfg, g, gt, spec, seed):
            if spec.name == "cnm":
                os._exit(3)  # as a worker killed by the OOM killer would end
            return evaluate_cell(cfg, g, gt, spec, seed)

        # forked workers inherit both patches
        monkeypatch.setattr(cli, "evaluate_cell", die_on_cnm)
        monkeypatch.setattr(cli, "_worker_count", lambda cells: 2)
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

    def test_worker_count_follows_the_affinity_mask(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        assert cli._worker_count(1) == 1
        assert cli._worker_count(1000) == cpus
        monkeypatch.delattr(os, "sched_getaffinity")  # as on platforms without it
        assert cli._worker_count(1000) == 1

    def test_env_out_dir(self, tmp_path, monkeypatch):
        edges, gt = _generate(tmp_path)
        monkeypatch.setenv("CDFAIR_OUT_DIR", str(tmp_path / "envout"))
        rc = main([
            "evaluate", "--graph", str(edges), "--gt", str(gt),
            "--detector", "cnm", "--metrics", "ib",
        ])
        assert rc == 0
        assert (tmp_path / "envout" / "report.json").exists()


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
    g, gt = Graph.from_edges(n, edges), Partition.from_labels(labels)
    with tempfile.TemporaryDirectory() as tmp:
        edges_path, gt_path, out = Path(tmp) / "r.edges", Path(tmp) / "r.gt", Path(tmp) / "run"
        with open(edges_path, "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
        with open(gt_path, "w", encoding="utf-8") as fh:
            write_partition(gt, fh)
        with open(gt_path, encoding="utf-8") as fh:
            loaded_gt = load_partition(fh)
        with open(edges_path, encoding="utf-8") as fh:
            loaded = load_edge_list(fh, id_mode="raw", n=loaded_gt.n).graph
        assert loaded_gt == gt and loaded.n == n
        assert list(loaded.edges()) == list(g.edges())
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
        rc = main([
            "sweep", "--n", "100", "--runs", "2", "--ratios", "0,1",
            "--per-run", "--out", str(tmp_path),
        ])
        assert rc == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        for scenario in ("expand", "shrink", "change"):
            for target in ("minority", "majority"):
                assert f"sweep_{scenario}_{target}.csv" in names
                assert f"sweep_{scenario}_{target}_runs.csv" in names

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

    def test_report_rejects_bad_schema(self, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"schema_version": 999, "detectors": {}}))
        rc = main(["report", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1


def test_derive_cell_seed_is_injective_over_small_grid():
    seen = {derive_cell_seed(42, di, gi) for di in range(8) for gi in range(100)}
    assert len(seen) == 800


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
