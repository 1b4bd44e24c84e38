"""Independent correctness checks for the benchmark's CLI outputs.

Written with numpy only and no import of the package under test, so a bug in
the package cannot hide itself by also being in the checker. Every check
returns a list of failure messages; an empty list means the output passed.

Formats follow docs/file_formats.md: partition files are ``node community``
lines, bias CSVs are ``node_id,ib`` with ``repr`` floats, ``report.json``
holds one ``per_graph`` row per (graph, detector) cell.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9
SCENARIOS = ("expand", "shrink", "change")
TARGETS = ("minority", "majority")
SWEEP_HEADER = "scenario,target,n,ratio,mean_ib,std_ib"


def read_labels(path: str | Path) -> np.ndarray:
    """Community label of each node, indexed by node id."""
    data = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    nodes = data[:, 0]
    if not np.array_equal(np.sort(nodes), np.arange(len(nodes))):
        raise ValueError(f"{path}: node ids are not exactly 0..n-1")
    labels = np.empty(len(nodes), dtype=np.int64)
    labels[nodes] = data[:, 1]
    return labels


def read_bias(path: str | Path) -> np.ndarray:
    """IB values of a per-node bias CSV, checking the header and node order."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != "node_id,ib":
        raise ValueError(f"{path}: unexpected header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ValueError(f"{path}: node ids are not 0..n-1 in order")
    return data[:, 1]


def _dense(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense community ids and community sizes."""
    _, inv = np.unique(labels, return_inverse=True)
    inv = inv.reshape(-1)
    return inv, np.bincount(inv)


def _overlaps(gt: np.ndarray, pred: np.ndarray):
    """Dense ids, sizes and the non-empty contingency cells of two partitions."""
    a, sa = _dense(gt)
    b, sb = _dense(pred)
    _, cell_of_node, cell_counts = np.unique(
        a * len(sb) + b, return_inverse=True, return_counts=True
    )
    return a, sa, b, sb, cell_of_node.reshape(-1), cell_counts


def expected_ib(gt: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """IB_i = 1 - o / sqrt(s * s') for every node."""
    a, sa, b, sb, cell_of_node, cell_counts = _overlaps(gt, pred)
    o = cell_counts[cell_of_node].astype(np.float64)
    return 1.0 - o / np.sqrt(sa[a].astype(np.float64) * sb[b].astype(np.float64))


def _entropy(sizes: np.ndarray, n: int) -> float:
    p = sizes[sizes > 0] / n
    return float(-(p * np.log(p)).sum())


def expected_nmi(gt: np.ndarray, pred: np.ndarray) -> float:
    """NMI with the arithmetic-mean normalizer (the CLI default)."""
    n = len(gt)
    a, sa, b, sb, cell_of_node, cell_counts = _overlaps(gt, pred)
    h1, h2 = _entropy(sa, n), _entropy(sb, n)
    if h1 == 0.0 and h2 == 0.0:
        return 1.0
    if h1 == 0.0 or h2 == 0.0:
        return 0.0
    first = np.zeros(len(cell_counts), dtype=np.int64)
    first[cell_of_node] = np.arange(n)  # any member node identifies the cell
    ga, pb = sa[a[first]].astype(np.float64), sb[b[first]].astype(np.float64)
    o = cell_counts.astype(np.float64)
    mi = max(float((o / n * np.log(o * n / (ga * pb))).sum()), 0.0)
    return mi / (0.5 * (h1 + h2))


def expected_ari(gt: np.ndarray, pred: np.ndarray) -> float:
    n = len(gt)
    _, sa, _, sb, _, cell_counts = _overlaps(gt, pred)

    def comb2(x: np.ndarray) -> float:
        x = x.astype(np.float64)
        return float((x * (x - 1) / 2).sum())

    sum_cells, sum_rows, sum_cols = comb2(cell_counts), comb2(sa), comb2(sb)
    expected = sum_rows * sum_cols / (n * (n - 1) / 2)
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= TOL


def check_cell(row: dict, ib: np.ndarray, n: int, gt=None, pred=None) -> list[str]:
    """Checks for one evaluate cell; `gt`/`pred` enable the exact recomputation."""
    if row.get("error") is not None:
        return [f"cell errored: {row['error']}"]
    bad = []
    if len(ib) != n:
        return [f"bias CSV has {len(ib)} rows, expected {n}"]
    if not (np.all(ib >= 0.0) and np.all(ib < 1.0)):
        bad.append("IB_i outside [0, 1)")
    ib_g, mean_ib = row.get("ib_g"), row.get("mean_ib")
    if not (isinstance(ib_g, float) and 0.0 <= ib_g <= 0.5):
        bad.append(f"IB_G {ib_g!r} outside [0, 0.5]")
    if not _close(ib_g, float(ib.std())):
        bad.append(f"IB_G {ib_g!r} != population std {float(ib.std())!r} of the bias CSV")
    if not _close(mean_ib, float(ib.mean())):
        bad.append(f"mean_ib {mean_ib!r} != mean {float(ib.mean())!r} of the bias CSV")
    if pred is not None:
        err = float(np.max(np.abs(ib - expected_ib(gt, pred))))
        if not err <= TOL:
            bad.append(f"IB_i differs from 1 - o/sqrt(s s') by up to {err!r}")
        for key, want in (("nmi", expected_nmi(gt, pred)), ("ari", expected_ari(gt, pred))):
            if not _close(row.get(key), want):
                bad.append(f"{key} {row.get(key)!r} != recomputed {want!r}")
    return bad


def check_evaluate(out_dir: str | Path, graphs: list[tuple[str, str | Path]],
                   detectors: list[str], externals: dict[str, str | Path]) -> dict[str, list[str]]:
    """Failures per cell ("<detector> on <graph stem>") of a `cdfair evaluate` output.

    `graphs` pairs each ``--graph`` argument with its ground-truth file;
    `externals` maps an external detector label to its partition file, whose
    cells are recomputed exactly. Built-in detectors get the range and
    aggregate checks only, since their partitions are not written out.
    """
    out_dir = Path(out_dir)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    results_ok = (out_dir / "results.csv").is_file()
    failures: dict[str, list[str]] = {}
    for graph_arg, gt_path in graphs:
        stem = Path(graph_arg).stem
        gt = read_labels(gt_path)
        for label in [*detectors, *externals]:
            cell = f"{label} on {stem}"
            rows = [r for r in report.get("detectors", {}).get(label, {}).get("per_graph", [])
                    if r.get("graph") == graph_arg]
            if len(rows) != 1 or not results_ok:
                failures[cell] = ["no single report.json row, or results.csv missing"]
                continue
            try:
                ib = read_bias(out_dir / "bias" / f"{label}_{stem}.csv")
            except (OSError, ValueError) as exc:
                failures[cell] = [f"bias CSV unreadable: {exc}"]
                continue
            pred = read_labels(externals[label]) if label in externals else None
            failures[cell] = check_cell(rows[0], ib, len(gt), gt, pred)
    return failures


def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def expected_sweep_ib(scenario: str, s: int, n: int, ratio: float) -> float:
    """Focal-node bias after moving the round_half_away counts of nodes.

    s is the focal community's size; shrink and change move members other
    than the focal node out, expand and change pull outsiders in.
    """
    k_out = min(round_half_away(ratio * s), s - 1)
    k_in = round_half_away(ratio * (n - s))
    if scenario == "expand":
        return 1.0 - math.sqrt(s / (s + k_in))
    if scenario == "shrink":
        return 1.0 - math.sqrt((s - k_out) / s)
    return 1.0 - (s - k_out) / math.sqrt(s * (s - k_out + k_in))


def check_sweep(out_dir: str | Path, n: int, minority: float, ratios: list[float]) -> dict[str, list[str]]:
    """Failures per curve file of a `cdfair sweep --scenario all --target both` output."""
    out_dir = Path(out_dir)
    size_minority = round_half_away(minority * n)
    failures: dict[str, list[str]] = {}
    for scenario in SCENARIOS:
        for target in TARGETS:
            name = f"sweep_{scenario}_{target}.csv"
            s = size_minority if target == "minority" else n - size_minority
            try:
                lines = (out_dir / name).read_text(encoding="utf-8").splitlines()
            except OSError as exc:
                failures[name] = [f"unreadable: {exc}"]
                continue
            bad = []
            if not lines or lines[0] != SWEEP_HEADER or len(lines) != len(ratios) + 1:
                failures[name] = ["wrong header or row count"]
                continue
            for ratio, line in zip(ratios, lines[1:]):
                cells = line.split(",")
                if cells[:3] != [scenario, target, str(n)] or float(cells[3]) != ratio:
                    bad.append(f"row key {cells[:4]} does not match ratio {ratio!r}")
                    continue
                want = expected_sweep_ib(scenario, s, n, ratio)
                mean_ib, std_ib = float(cells[4]), float(cells[5])
                if not abs(mean_ib - want) <= TOL:
                    bad.append(f"ratio {ratio!r}: mean_ib {mean_ib!r} != closed form {want!r}")
                if not abs(std_ib) <= TOL:
                    bad.append(f"ratio {ratio!r}: std_ib {std_ib!r} is not 0")
            failures[name] = bad
    return failures
