"""Run-report JSON, and plot-data exports: long-format CSV and minimal SVG scatter renderings."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .staging import staged

# the group-fairness properties and scores of `groupfair.phi`, one slope per pair
PROPERTIES = ("size", "conductance", "density")
SCORES = ("fccn", "f1", "fcce")
QUALITY_METRICS = ("modularity", "nmi", "ari", "nf1")
PHI_METRICS = tuple(f"phi_{prop}_{score}" for prop in PROPERTIES for score in SCORES)
REPORT_SCHEMA_VERSION = 1
# what xml.sax.saxutils.escape replaces, without the urllib/ssl imports it pulls in
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
POINT_COLUMNS = ("detector", "graph_group", "ib_g", "ib_g_std", "metric_name", "metric_value",
                 "metric_std")


class ReportSchemaError(ValueError):
    """Incompatible run-report schema."""


def _finite_number(value) -> bool:
    """A JSON number that is a finite float: not NaN, ±Infinity or an integer
    too large for a float; true and false are not numbers."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def write_json(path: Path, doc: dict) -> None:
    """`doc` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_run_report(path: str | Path) -> dict:
    """A run report, checked for every part that `collect_points` reads."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReportSchemaError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ReportSchemaError(f"{path}: a run report must be a JSON object")
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ReportSchemaError(
            f"{path}: schema_version {doc.get('schema_version')!r}, "
            f"expected {REPORT_SCHEMA_VERSION}"
        )
    if not isinstance(doc.get("detectors"), dict):
        raise ReportSchemaError(f"{path}: no 'detectors' object")
    for det, entry in doc["detectors"].items():
        agg = entry.get("aggregate") if isinstance(entry, dict) else None
        if not isinstance(entry, dict) or not isinstance(agg, (dict, type(None))):
            raise ReportSchemaError(
                f"{path}: detector {det!r}: expected an object with an 'aggregate' object or null"
            )
        for metric in ("ib_g",) + QUALITY_METRICS + PHI_METRICS:
            cell = agg.get(metric) if agg else None
            if cell is not None and not (
                isinstance(cell, dict)
                and all(_finite_number(cell.get(stat)) for stat in ("mean", "std"))
            ):
                raise ReportSchemaError(
                    f"{path}: detector {det!r}: aggregate {metric!r} must be null "
                    f"or hold a numeric 'mean' and 'std' (finite, not true or false), got {cell!r}"
                )
    return doc


def collect_points(reports: list[dict]) -> list[dict]:
    """One point per (report, detector, metric): ib_g on x, metric value on y.

    Metrics whose value is missing (e.g. a degenerate fairness slope) are
    skipped, never coerced to zero.
    """
    points = []
    for doc in reports:
        group = doc.get("graph_group", "run")
        for det, entry in sorted(doc["detectors"].items()):
            agg = entry.get("aggregate")
            if not agg or agg.get("ib_g") is None:
                continue
            ib_g = agg["ib_g"]["mean"]
            ib_g_std = agg["ib_g"]["std"]
            for metric in QUALITY_METRICS + PHI_METRICS:
                cell = agg.get(metric)
                if cell is None:
                    continue
                points.append(
                    {
                        "detector": det,
                        "graph_group": group,
                        "ib_g": ib_g,
                        "ib_g_std": ib_g_std,
                        "metric_name": metric,
                        "metric_value": cell["mean"],
                        "metric_std": cell["std"],
                    }
                )
    return points


def write_points_csv(points: list[dict], sink) -> None:
    """One row per point; open `sink` with newline="", as the csv module asks."""
    out = csv.writer(sink, lineterminator="\n")
    out.writerow(POINT_COLUMNS)
    out.writerows([pt[col] for col in POINT_COLUMNS] for pt in points)


def _svg_scatter(points: list[dict], metric: str, width: int = 640, height: int = 480) -> str:
    """Plain scatter: axes, points, error bars, perfect-fairness guide lines.

    The vertical guide at ib_g = 0 marks perfect individual fairness (blue);
    for fairness-slope metrics a horizontal red guide at value 0 marks perfect
    group fairness.
    """
    pts = [p for p in points if p["metric_name"] == metric]
    margin = 60
    xs = [p["ib_g"] for p in pts] + [0.0]
    ys = [p["metric_value"] for p in pts]
    if metric.startswith("phi_"):
        ys.append(0.0)
    if not ys:
        ys = [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = (x_hi - x_lo) * 0.05 or 0.05
    y_pad = (y_hi - y_lo) * 0.05 or 0.05
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" font-size="14">IB_G</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{metric.translate(_XML_ESCAPES)}</text>',
    ]
    if x_lo <= 0.0 <= x_hi:
        parts.append(
            f'<line x1="{sx(0):.2f}" y1="{margin}" x2="{sx(0):.2f}" y2="{height - margin}" '
            'stroke="blue" stroke-dasharray="6 4"/>'
        )
    if metric.startswith("phi_") and y_lo <= 0.0 <= y_hi:
        parts.append(
            f'<line x1="{margin}" y1="{sy(0):.2f}" x2="{width - margin}" y2="{sy(0):.2f}" '
            'stroke="red" stroke-dasharray="6 4"/>'
        )
    for p in pts:
        cx, cy = sx(p["ib_g"]), sy(p["metric_value"])
        if p["metric_std"]:
            parts.append(
                f'<line x1="{cx:.2f}" y1="{sy(p["metric_value"] - p["metric_std"]):.2f}" '
                f'x2="{cx:.2f}" y2="{sy(p["metric_value"] + p["metric_std"]):.2f}" stroke="gray"/>'
            )
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="steelblue"/>')
        label = p["detector"].translate(_XML_ESCAPES)
        parts.append(f'<text x="{cx + 6:.2f}" y="{cy - 6:.2f}" font-size="10">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report_outputs(report_paths: list[str | Path], out_dir: str | Path) -> list[Path]:
    """Emit the long-format CSV plus one SVG scatter per metric present."""
    reports = [load_run_report(p) for p in report_paths]
    points = collect_points(reports)
    svgs = {f"scatter_ibg_vs_{m}.svg": m for m in sorted({p["metric_name"] for p in points})}
    with staged(out_dir) as place:
        with open(place("scatter_points.csv"), "w", encoding="utf-8", newline="") as fh:
            write_points_csv(points, fh)
        for name, metric in svgs.items():
            place(name).write_text(_svg_scatter(points, metric), encoding="utf-8")
    return [Path(out_dir) / name for name in ("scatter_points.csv", *svgs)]
