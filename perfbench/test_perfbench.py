"""Tests of the benchmark itself, on --quick inputs.

Run with: python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import traced

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quick(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **run.QUICK[name])


@pytest.fixture
def work(tmp_path, monkeypatch) -> Path:
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_quick_run_is_correct(work, name):
    w = quick(name)
    result = run.run(w, seed=5, seconds=0.1, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == w.units * run.MIN_PASSES
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads((work / name / "result.json").read_text())
    assert detail["output_sha256"] and all(p["identical"] for p in detail["passes"])


DETECTOR_LAYERS = {
    "evaluate-detect": ["detectors.louvain.s", "detectors.label_propagation.s"],
    "evaluate-cnm": ["detectors.greedy_agglomerative.s"],
}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_quick_run_reports_every_layer(work, name):
    w = quick(name)
    result = run.run(w, seed=6, seconds=0.1, trace=True)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(result["metrics"][k]["unit"] == units[k] for k in metrics)
    if w.is_sweep:
        assert metrics["perturb.points"] == w.cells
        assert metrics["bias.ib_all_fast.calls"] == w.cells
    else:
        assert metrics["partition.contingency.calls_per_cell"] == 5
        assert metrics["graph.edges"] > 0 and metrics["synthgen.generate_abcd_lite.s"] > 0
        assert metrics["detectors.k_pred"] > 0
    for layer in DETECTOR_LAYERS.get(name, []):
        assert metrics[layer] > 0
    assert json.loads((work / name / "result.json").read_text())["absent"] == []


def _one_pass(w: run.Workload, workdir: Path) -> Path:
    with run.Spawner() as spawner:
        run.setup(w, 9, workdir, spawner)
        if w.externals:
            run.write_externals(w, 9, workdir / "inputs")
        ok, _ = spawner.run(run.cli_command(run.pass_args(w, 9, "out")), workdir, workdir / "log")
    assert ok
    return workdir / "out"


def test_checker_catches_one_corrupted_ib(tmp_path):
    w = quick("evaluate-external")
    out = _one_pass(w, tmp_path)
    assert not any(run.check_outputs(w, tmp_path, out).values())
    path = out / "bias" / "external:split_g0.csv"
    lines = path.read_text().splitlines()
    node, value = lines[7].split(",")
    lines[7] = f"{node},{(float(value) + 0.125) % 1.0!r}"
    path.write_text("\n".join(lines) + "\n")
    failures = run.check_outputs(w, tmp_path, out)
    assert failures["external:split on g0"] and not failures["external:merge on g0"]


def test_checker_catches_one_wrong_sweep_point(tmp_path):
    w = quick("sweep")
    out = _one_pass(w, tmp_path)
    path = out / "sweep_shrink_minority.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    failures = run.check_outputs(w, tmp_path, out)
    assert [k for k, v in failures.items() if v] == ["sweep_shrink_minority.csv"]


def test_sweep_closed_forms_hit_the_paper_ceilings():
    s, n = 2000, 10_000
    assert check.expected_sweep_ib("expand", s, n, 1.0) == pytest.approx(1 - (s / n) ** 0.5)
    assert check.expected_sweep_ib("shrink", s, n, 1.0) == pytest.approx(1 - 1 / s ** 0.5)
    assert check.expected_sweep_ib("change", s, n, 0.0) == 0.0


def test_tracer_rebinds_imported_names_and_reports_absent(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "partition.py").write_text(
        "def contingency(x):\n    return x\n"
        "class Partition:\n    @classmethod\n    def from_labels(cls, x):\n        return cls\n")
    (pkg / "bias.py").write_text(
        "from .partition import contingency, Partition\n"
        "TABLE = {'c': contingency}\n"
        "def ib_all_fast(x):\n    return TABLE['c'](contingency(x)), Partition.from_labels(x)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.bias

    tracer = traced.Tracer()
    monkeypatch.setattr(traced, "NOTES", {})
    tracer.install("fakepkg")
    assert fakepkg.bias.ib_all_fast(3) == (3, fakepkg.bias.Partition)
    names = [s[0] for s in tracer.spans]
    assert names == ["bias.ib_all_fast", "partition.contingency", "partition.contingency",
                     "partition.from_labels"]
    assert all(s[3] == 0 for s in tracer.spans[1:])
    assert "graph.load_edge_list" in tracer.absent and "bias.ib_all_fast" not in tracer.absent


def test_layer_totals_subtracts_children():
    spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["a", 2.0, 3.0, 1]]
    totals = run.layer_totals(spans)
    assert totals["a"] == {"calls": 2, "s": 10.0, "self_s": 8.0}
    assert totals["b"] == {"calls": 1, "s": 3.0, "self_s": 2.0}


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_speed_scaled_takes_the_median_of_scaled_times():
    ref = run.CALIBRATION_REF_S
    assert run.speed_scaled([(2.0, 2 * ref), (1.0, ref), (3.0, ref)]) == pytest.approx(1.0)


def test_tracing_overhead_pairs_consecutive_passes():
    def p(wall, calibration=1.0, ok=True):
        return {"wall_s": wall, "calibration_s": calibration, "ok": ok}

    passes = [p(1.0), p(1.1), p(2.0, 2.0), p(2.4, 2.0), p(1.0), p(9.0, ok=False), p(1.0)]
    assert run.tracing_overhead(passes) == pytest.approx(0.15)
