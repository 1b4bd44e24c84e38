"""A smoke test of the experiment driver in `scripts/` at a small size.

The script runs in a fresh interpreter, with `src/` on its import path, and
writes into a pytest tmp_path directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from cdfair.report import PHI_METRICS, QUALITY_METRICS

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_xi_experiment(tmp_path):
    proc = _run_script(
        "run_xi_experiment.py", "--n", "300", "--graphs", "1", "--xi", "0.2",
        "--c-min", "30", "--c-max", "100", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    run = tmp_path / "xi_0.2" / "run"
    for path in (tmp_path / "xi_0.2" / "data" / "g0.edges", tmp_path / "xi_0.2" / "data" / "g0.gt",
                 run / "results.csv", tmp_path / "figures" / "scatter_points.csv"):
        assert path.is_file(), path
    doc = json.loads((run / "report.json").read_text())
    labels = {"louvain", "label_propagation", "cnm"}
    assert set(doc["detectors"]) == labels
    assert {p.name for p in (run / "bias").iterdir()} == {f"{lab}_g0.csv" for lab in labels}
    svgs = {p.name for p in (tmp_path / "figures").glob("*.svg")}
    assert svgs == {f"scatter_ibg_vs_{m}.svg" for m in QUALITY_METRICS + PHI_METRICS}
