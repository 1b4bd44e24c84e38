"""Every output byte of two `cdfair evaluate` runs, pinned by sha256.

The runs read inputs checked in under tests/data, so the digests do not
depend on the ABCD generator's random stream. Each run is made with one
worker and with two, and both must give the digests in
tests/golden/evaluate.json. After a change that is meant to alter an output,
regenerate that file with `python tests/golden/regenerate.py` and say in
CHANGES.md which files changed and why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from cdfair import evaluate
from cdfair.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "evaluate.json"

# paths are relative to the repository root, since report.json records them
RUNS = {
    "karate": ["--graph", "tests/data/karate.edges", "--gt", "tests/data/karate.gt",
               "--detector", "louvain", "--detector", "label_propagation", "--detector", "cnm",
               "--detector", "external:path=tests/data/karate.gt"],
    # cdfair generate abcd --n 300 --c-min 20 --c-max 60 --xi 0.4 --seed 0 --prefix abcd300;
    # at this mixing the three detectors give three different partitions
    "abcd300": ["--graph", "tests/data/abcd300.edges", "--gt", "tests/data/abcd300.gt",
                "--detector", "louvain", "--detector", "label_propagation", "--detector", "cnm"],
}


def run_digests(out: Path) -> dict[str, str]:
    """Run every command of RUNS from the repository root, writing under `out`,
    and give the sha256 of every file written, keyed by its path under `out`."""
    for name, argv in RUNS.items():
        assert main(["evaluate", *argv, "--out", str(out / name)]) == 0, name
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_outputs_match_the_manifest(tmp_path, monkeypatch, workers):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(evaluate, "_worker_count", lambda cells: workers)
    got = run_digests(tmp_path)
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differ = sorted(path for path in want.keys() | got.keys() if want.get(path) != got.get(path))
    assert not differ, f"{len(differ)} file(s) differ from {MANIFEST.name}: {differ}"
