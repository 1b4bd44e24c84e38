"""Every output byte of four `cdfair evaluate` runs, five `cdfair generate
abcd` runs, one `cdfair sweep` and two `cdfair report` runs, pinned by sha256.

The evaluate runs read inputs checked in under tests/data, so their digests
do not depend on the ABCD generator's random stream; the generate runs pin
that stream. Each evaluate run is made with one worker and with two, and
both must give the digests in tests/golden/manifest.json. After a change
that is meant to alter an output, regenerate that file with
`python tests/golden/regenerate.py` and say in CHANGES.md which files
changed and why.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import sys
from pathlib import Path

import pytest

from cdfair import evaluate
from cdfair.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"

# each command writes under <out>/<name>, and "{out}" in an argument stands
# for <out>; the evaluate paths are relative to the repository root, since
# report.json records them
RUNS = {
    "evaluate/karate": [
        "evaluate", "--graph", "tests/data/karate.edges", "--gt", "tests/data/karate.gt",
        "--detector", "louvain", "--detector", "label_propagation", "--detector", "cnm",
        "--detector", "external:path=tests/data/karate.gt"],
    # cdfair generate abcd --n 300 --c-min 20 --c-max 60 --xi 0.4 --seed 0 --prefix abcd300;
    # at this mixing the three detectors give three different partitions
    "evaluate/abcd300": [
        "evaluate", "--graph", "tests/data/abcd300.edges", "--gt", "tests/data/abcd300.gt",
        "--detector", "louvain", "--detector", "label_propagation", "--detector", "cnm"],
    # the karate edges in SNAP form: two "#" lines, tabs, the larger id first,
    # sorted by it; its bias CSV must be louvain_karate.csv's bytes
    "evaluate/karate-snap": [
        "evaluate", "--graph", "tests/data/karate-snap.edges", "--gt", "tests/data/karate.gt",
        "--detector", "louvain"],
    # two graphs, so results.csv holds the ALL mean and std rows
    "evaluate/two-graphs": [
        "evaluate", "--graph", "tests/data/karate.edges", "--gt", "tests/data/karate.gt",
        "--graph", "tests/data/abcd300.edges", "--gt", "tests/data/abcd300.gt",
        "--detector", "louvain", "--detector", "label_propagation", "--group", "two-graphs"],
    # the plot data and scatters of the evaluate/karate run
    "report/karate": ["report", "{out}/evaluate/karate/report.json"],
    # two graph groups; the two-graphs points carry error bars
    "report/two-groups": ["report", "{out}/evaluate/karate/report.json",
                          "{out}/evaluate/two-graphs/report.json"],
    "sweep/default": ["sweep", "--n", "1000"],
    # criterion 9's shape
    "generate/n2000": ["generate", "abcd", "--n", "2000", "--c-min", "50", "--c-max", "400",
                       "--xi", "0.3", "--seed", "0"],
    "generate/n600": ["generate", "abcd", "--n", "600", "--c-min", "20", "--c-max", "100",
                      "--xi", "0.5", "--seed", "1"],
    # no background pass: the stubs that do not fit are dropped
    "generate/xi0": ["generate", "abcd", "--n", "300", "--c-min", "20", "--c-max", "60",
                     "--xi", "0.0", "--seed", "2"],
    # one community, so the background pairs without the inter-community rule
    "generate/one-community": ["generate", "abcd", "--n", "200", "--c-min", "200",
                               "--c-max", "200", "--xi", "0.4", "--seed", "3"],
    # communities of 2 to 5 nodes, whose stub pools get stuck and are dropped
    "generate/tiny-communities": ["generate", "abcd", "--n", "500", "--c-min", "2",
                                  "--c-max", "5", "--d-min", "1", "--d-max", "30",
                                  "--xi", "0.5", "--seed", "4"],
}


def run_digests(out: Path, names=RUNS) -> dict[str, str]:
    """Run the commands of RUNS named in `names` from the repository root,
    writing under `out`, and give the sha256 of every file written, keyed by
    its path under `out`."""
    for name in names:
        args = [arg.replace("{out}", str(out)) for arg in RUNS[name]]
        assert main([*args, "--out", str(out / name)]) == 0, name
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _manifest() -> dict[str, str]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _differ(out: Path, command: str) -> list[str]:
    """The files of the `command` runs whose digest is not the manifest's."""
    def ours(digests):
        return {path: digest for path, digest in digests.items() if path.startswith(f"{command}/")}

    got = ours(run_digests(out, [name for name in RUNS if name.startswith(f"{command}/")]))
    want = ours(_manifest())
    return sorted(path for path in want.keys() | got.keys() if want.get(path) != got.get(path))


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_outputs_match_the_manifest(tmp_path, monkeypatch, workers):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(evaluate, "_worker_count", lambda cells: workers)
    differ = _differ(tmp_path, "evaluate")
    assert not differ, f"{len(differ)} file(s) differ from {MANIFEST.name}: {differ}"


def test_generate_outputs_match_the_manifest(tmp_path):
    differ = _differ(tmp_path, "generate")
    assert not differ, f"{len(differ)} file(s) differ from {MANIFEST.name}: {differ}"


@pytest.mark.parametrize("flags", [[], ["--runs", "5", "--seed", "3"]],
                         ids=["defaults", "runs-and-seed"])
def test_sweep_outputs_match_the_manifest(tmp_path, monkeypatch, flags):
    # --runs and --seed, which perfbench/run.py passes, are accepted and change no byte
    monkeypatch.setitem(RUNS, "sweep/default", RUNS["sweep/default"] + flags)
    differ = _differ(tmp_path, "sweep")
    assert not differ, f"{len(differ)} file(s) differ from {MANIFEST.name}: {differ}"


def test_report_outputs_match_the_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    run_digests(tmp_path, ["evaluate/karate", "evaluate/two-graphs"])  # the reports read these
    differ = _differ(tmp_path, "report")
    assert not differ, f"{len(differ)} file(s) differ from {MANIFEST.name}: {differ}"


def test_evaluate_sums_no_float_with_the_builtin_sum(tmp_path, monkeypatch):
    """From CPython 3.12 the built-in sum() of floats compensates its
    rounding, so a float summed with it would tie the digests to the
    interpreter; `quality.sum_in_order` adds in order on every version."""
    def integer_sum(values, start=0):
        values = list(values)
        if any(isinstance(v, float) for v in (start, *values)):
            raise TypeError(f"the built-in sum() given a float: {values!r}")
        return builtins.sum(values, start)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cdfair":
            monkeypatch.setattr(module, "sum", integer_sum, raising=False)
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(evaluate, "_worker_count", lambda cells: 1)
    differ = _differ(tmp_path, "evaluate")
    assert not differ, f"{len(differ)} file(s) differ from {MANIFEST.name}: {differ}"


def test_snap_form_copy_gives_the_karate_bias_bytes():
    manifest = _manifest()
    assert (manifest["evaluate/karate-snap/bias/louvain_karate-snap.csv"]
            == manifest["evaluate/karate/bias/louvain_karate.csv"])
