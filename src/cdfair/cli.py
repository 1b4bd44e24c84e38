"""Command-line pipeline: generate, evaluate, sweep, report.

Exit codes: 0 success (possibly with per-detector warnings), 1 config or
parse error, or an evaluate worker process that ended abruptly, 2 I/O error.
All randomness flows from the run seed through the documented derivation in
`derive_cell_seed`, and sweeps use no randomness, so any command re-run with
the same config produces byte-identical outputs, whatever the number of
evaluate workers.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .bias import ib_all_fast, ib_all_naive
from .detectors import DETECTOR_PARAMS, DetectorSpec, run_detector
from .graph import EdgeListError, Graph, load_edge_list, write_edge_list
from .groupfair import PROPERTIES, SCORES, phi
from .partition import Partition, PartitionError, contingency, load_partition, write_partition
from .perturb import SCENARIOS, TARGETS, SweepConfig, run_sweep
from .quality import NMI_NORMS, ari, modularity, nf1, nmi
from .report import PHI_METRICS, QUALITY_METRICS, REPORT_SCHEMA_VERSION, write_report_outputs
from .synthgen import AbcdParams, GenerationError, generate_abcd_lite, generate_two_community

ALL_METRICS = ("ib", "modularity", "nmi", "ari", "nf1", "phi")


class ConfigError(ValueError):
    pass


class WorkerError(RuntimeError):
    """A worker process ended before returning the cells it was given."""


@dataclass
class RunConfig:
    graphs: list[tuple[str, str]]  # (edge-list path, ground-truth path) pairs
    detectors: list[DetectorSpec]
    out_dir: str
    metrics: tuple[str, ...] = ALL_METRICS
    nmi_norm: str = "arithmetic"
    seed: int = 0
    oracle: bool = False  # use the O(n^2) verification path for bias
    graph_group: str = "run"


def derive_cell_seed(base: int, detector_index: int, graph_index: int) -> int:
    """Per-(detector, graph) seed so evaluation cells are order-independent."""
    return base + 1009 * detector_index + graph_index


def _fmt(x) -> str:
    return "" if x is None else repr(x)


def _phi_flat(phi_result) -> dict[str, float | None]:
    # PHI_METRICS names the (property, score) pairs in this order
    slopes = (phi_result.phi[prop][score] for prop in PROPERTIES for score in SCORES)
    return dict(zip(PHI_METRICS, slopes))


def evaluate_cell(cfg: RunConfig, g: Graph, gt: Partition, spec: DetectorSpec, seed: int) -> dict:
    """All requested metrics for one (graph, detector) pair."""
    params = dict(spec.params)
    if "seed" in DETECTOR_PARAMS[spec.name] and "seed" not in params:
        params["seed"] = seed
    pred = run_detector(DetectorSpec(spec.name, params), g)
    ct = contingency(gt, pred)  # the one table every external metric reads
    row: dict = {"error": None, "k_pred": pred.k}
    if "ib" in cfg.metrics:
        report = ib_all_naive(gt, pred) if cfg.oracle else ib_all_fast(ct)
        row["ib_g"] = report.ib_g
        row["mean_ib"] = report.mean_ib
        row["_bias_report"] = report
    if "modularity" in cfg.metrics:
        row["modularity"] = modularity(g, pred)
    if "nmi" in cfg.metrics:
        row["nmi"] = nmi(ct, norm=cfg.nmi_norm)
    if "ari" in cfg.metrics:
        row["ari"] = ari(ct)
    if "nf1" in cfg.metrics:
        row["nf1"] = nf1(ct)
    if "phi" in cfg.metrics:
        row.update(_phi_flat(phi(g, ct)))
    return row


_AGG_KEYS = ("ib_g", "mean_ib") + QUALITY_METRICS + PHI_METRICS


def _aggregate(rows: list[dict]) -> dict:
    agg = {}
    for key in _AGG_KEYS:
        vals = [r[key] for r in rows if r.get("error") is None and r.get(key) is not None]
        if not vals:
            agg[key] = None
        else:
            mean = sum(vals) / len(vals)
            std = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
            agg[key] = {"mean": mean, "std": std}
    return agg


# the run whose cells are being evaluated: (config, [(graph path, graph, ground
# truth)]); forked workers inherit it, so no graph is pickled
_RUN: tuple[RunConfig, list[tuple[str, Graph, Partition]]] | None = None


def _run_cell(cell: tuple[int, int]) -> dict:
    """The row of cell (detector index, graph index) of the current run."""
    di, gi = cell
    cfg, loaded = _RUN
    _, g, gt = loaded[gi]
    try:
        return evaluate_cell(cfg, g, gt, cfg.detectors[di], derive_cell_seed(cfg.seed, di, gi))
    except Exception as exc:  # failure of one cell must not abort the run
        return {"error": f"{type(exc).__name__}: {exc}"}


class _KeepRecords(logging.Handler):
    """Holds a worker's log records, message formatted, until its row is sent."""

    def __init__(self):
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        # the formatted text pickles even where the arguments would not
        record.msg = self.format(record)
        record.args = record.exc_info = record.exc_text = None
        self.records.append(record)


def _run_cell_in_worker(cell: tuple[int, int]) -> tuple[dict, list[logging.LogRecord]]:
    """The cell's row and the records it logged, which the worker does not print."""
    kept = _KeepRecords()
    logging.root.handlers = [kept]
    return _run_cell(cell), kept.records


def _worker_count(cells: int) -> int:
    """One worker per CPU this process may run on, and no more than there are cells."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return 1
    return min(cells, cpus)


def _map_cells(cells: list[tuple[int, int]]):
    """Yield the row of each cell in order, from forked workers when two or more
    CPUs are available.

    Worker log records are handled here as each row arrives, so stderr and
    log handlers see them in the order a serial run gives them.
    """
    workers = _worker_count(len(cells))
    if workers <= 1:
        yield from map(_run_cell, cells)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        for row, records in pool.map(_run_cell_in_worker, cells):
            for record in records:
                logging.getLogger(record.name).handle(record)
            yield row
    except BrokenProcessPool:
        raise WorkerError("a worker process ended abruptly while evaluating cells") from None
    finally:
        pool.shutdown(cancel_futures=True)


def evaluate_run(cfg: RunConfig) -> dict:
    """Run every detector on every graph; failures are isolated per cell.

    The cells run in forked worker processes, one per CPU in this process's
    affinity mask, or in this process when that is one CPU. Every output
    byte is the same either way.
    """
    global _RUN
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    loaded = []
    for graph_path, gt_path in cfg.graphs:
        # n comes from the ground truth: nodes without edges are in no edge list
        with open(gt_path, "r", encoding="utf-8") as fh:
            gt = load_partition(fh)
        with open(graph_path, "r", encoding="utf-8") as fh:
            g = load_edge_list(fh, id_mode="raw", n=gt.n).graph
        loaded.append((graph_path, g, gt))

    detectors_block: dict = {}
    warnings = []
    _RUN = (cfg, loaded)
    rows = _map_cells([(di, gi) for di in range(len(cfg.detectors)) for gi in range(len(loaded))])
    try:
        for spec in cfg.detectors:
            label = spec.label()
            per_graph = []
            for graph_path, _, _ in loaded:
                row = next(rows)
                if row["error"] is not None:
                    warnings.append(f"{label} on {graph_path}: {row['error']}")
                report = row.pop("_bias_report", None)
                if report is not None:
                    bias_dir = out_dir / "bias"
                    bias_dir.mkdir(exist_ok=True)
                    stem = Path(graph_path).stem
                    with open(bias_dir / f"{label}_{stem}.csv", "w", encoding="utf-8") as fh:
                        report.write_csv(fh)
                per_graph.append({"graph": str(graph_path), **row})
            ok_rows = [r for r in per_graph if r["error"] is None]
            detectors_block[label] = {
                "per_graph": per_graph,
                "aggregate": _aggregate(ok_rows) if ok_rows else None,
            }
    finally:
        rows.close()  # stops the workers now, also when a write failed
        _RUN = None

    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "graph_group": cfg.graph_group,
        "provenance": {
            "package_version": __version__,
            "config": {
                "graphs": [list(p) for p in cfg.graphs],
                "detectors": [{"name": s.name, "params": s.params} for s in cfg.detectors],
                "metrics": list(cfg.metrics),
                "nmi_norm": cfg.nmi_norm,
                "seed": cfg.seed,
                "oracle": cfg.oracle,
            },
        },
        "warnings": warnings,
        "detectors": detectors_block,
    }
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_results_csv(doc, out_dir / "results.csv")
    return doc


def _write_results_csv(doc: dict, path: Path) -> None:
    cols = ["graph", "detector", "stat", "error"] + list(_AGG_KEYS)
    # csv.writer quotes a field holding a comma, quote or newline (a graph path,
    # an error message), so every row keeps the header's field count
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(cols)
        for det, entry in sorted(doc["detectors"].items()):
            for row in entry["per_graph"]:
                cells = [row["graph"], det, "value", row["error"] or ""]
                out.writerow(cells + [_fmt(row.get(k)) for k in _AGG_KEYS])
            agg = entry["aggregate"]
            if agg is not None and len(entry["per_graph"]) > 1:
                for stat in ("mean", "std"):
                    cells = ["ALL", det, stat, ""]
                    cells += [_fmt(agg[k][stat] if agg[k] is not None else None) for k in _AGG_KEYS]
                    out.writerow(cells)


# ---------------------------------------------------------------- generate


def _write_provenance(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_generate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prefix = args.prefix
    if args.model == "abcd":
        params = AbcdParams(
            n=args.n, gamma=args.gamma, d_min=args.d_min, d_max=args.d_max,
            beta=args.beta, c_min=args.c_min, c_max=args.c_max, xi=args.xi,
            d_max_iter=args.d_max_iter, c_max_iter=args.c_max_iter, seed=args.seed,
        )
        g, p, info = generate_abcd_lite(params)
        provenance = {"model": "abcd_lite", "params": params.to_dict(), "realized": info,
                      "package_version": __version__}
    else:
        g, p = generate_two_community(
            n=args.n, minority_frac=args.minority, intra_p=args.intra_p,
            inter_p=args.inter_p, seed=args.seed,
        )
        provenance = {
            "model": "two_community",
            "params": {"n": args.n, "minority_frac": args.minority,
                       "intra_p": args.intra_p, "inter_p": args.inter_p, "seed": args.seed},
            "realized": {"num_edges": g.num_edges},
            "package_version": __version__,
        }
    with open(out / f"{prefix}.edges", "w", encoding="utf-8") as fh:
        write_edge_list(g, fh)
    with open(out / f"{prefix}.gt", "w", encoding="utf-8") as fh:
        write_partition(p, fh)
    _write_provenance(out / f"{prefix}.json", provenance)
    summary = f"n={g.n}, |E|={g.num_edges}"
    if args.model == "abcd":
        summary += (f", dropped_stubs={info['dropped_stubs']}, "
                    f"realized_inter_fraction={info['realized_inter_fraction']:.4f}")
    print(f"wrote {out / prefix}.edges / .gt / .json  ({summary})")
    return 0


# ---------------------------------------------------------------- evaluate


def _parse_detector(text: str) -> DetectorSpec:
    name, _, rest = text.partition(":")
    params: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not _:
                raise ConfigError(f"bad detector parameter {item!r} (expected key=value)")
            if key in params:
                raise ConfigError(f"detector parameter {key!r} given twice in {text!r}")
            params[key] = value
    return DetectorSpec(name, params)


def _spec_text(spec: DetectorSpec) -> str:
    params = ",".join(f"{k}={v}" for k, v in spec.params.items())
    return f"{spec.name}:{params}" if params else spec.name


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    file_cfg: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    graphs = [tuple(pair) for pair in file_cfg.get("graphs", [])]
    if args.graph or args.gt:
        if len(args.graph or []) != len(args.gt or []):
            raise ConfigError("--graph and --gt must be given the same number of times")
        graphs = list(zip(args.graph, args.gt))
    if not graphs:
        raise ConfigError("no input graphs: pass --graph/--gt or a config file")
    detectors = [DetectorSpec(d["name"], d.get("params", {})) for d in file_cfg.get("detectors", [])]
    if args.detector:
        detectors = [_parse_detector(d) for d in args.detector]
    if not detectors:
        raise ConfigError("no detectors requested")
    # a label names a report entry and the bias CSVs, so two specs sharing one
    # would silently overwrite each other's results
    by_label: dict[str, DetectorSpec] = {}
    for spec in detectors:
        other = by_label.setdefault(spec.label(), spec)
        if other is not spec:
            raise ConfigError(
                f"detectors {_spec_text(other)!r} and {_spec_text(spec)!r} share the "
                f"label {spec.label()!r}; their results would overwrite each other"
            )
    metrics = tuple(file_cfg.get("metrics", ALL_METRICS))
    if args.metrics:
        metrics = tuple(args.metrics.split(","))
    for mname in metrics:
        if mname not in ALL_METRICS:
            raise ConfigError(f"unknown metric {mname!r}")
    out_dir = args.out or file_cfg.get("out") or os.environ.get("CDFAIR_OUT_DIR")
    if not out_dir:
        raise ConfigError("no output directory: pass --out (or CDFAIR_OUT_DIR)")
    return RunConfig(
        graphs=graphs,
        detectors=detectors,
        out_dir=out_dir,
        metrics=metrics,
        nmi_norm=args.nmi_norm or file_cfg.get("nmi_norm", "arithmetic"),
        seed=args.seed if args.seed is not None else int(file_cfg.get("seed", 0)),
        oracle=bool(args.oracle or file_cfg.get("oracle", False)),
        graph_group=args.group or file_cfg.get("graph_group", "run"),
    )


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    doc = evaluate_run(cfg)
    for w in doc["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {Path(cfg.out_dir) / 'report.json'} and results.csv")
    return 0


# ---------------------------------------------------------------- sweep


def cmd_sweep(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ratios = tuple(float(r) for r in args.ratios.split(","))
    scenarios = SCENARIOS if args.scenario == "all" else (args.scenario,)
    targets = TARGETS if args.target == "both" else (args.target,)
    for scenario in scenarios:
        for target in targets:
            cfg = SweepConfig(
                scenario=scenario, target=target, ratios=ratios, runs=args.runs,
                n=args.n, minority_frac=args.minority,
            )
            result = run_sweep(cfg)
            path = out / f"sweep_{scenario}_{target}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                result.write_csv(fh)
            if args.per_run:
                with open(out / f"sweep_{scenario}_{target}_runs.csv", "w", encoding="utf-8") as fh:
                    result.write_runs_csv(fh)
            print(f"wrote {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    written = write_report_outputs(args.reports, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cdfair", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic benchmark graph")
    gen_sub = gen.add_subparsers(dest="model", required=True)
    abcd = gen_sub.add_parser("abcd", help="power-law planted-partition graph")
    abcd.add_argument("--n", type=int, required=True)
    abcd.add_argument("--gamma", type=float, default=2.5)
    abcd.add_argument("--d-min", type=int, default=5)
    abcd.add_argument("--d-max", type=int, default=50)
    abcd.add_argument("--beta", type=float, default=1.5)
    abcd.add_argument("--c-min", type=int, default=100)
    abcd.add_argument("--c-max", type=int, default=1000)
    abcd.add_argument("--xi", type=float, default=0.2)
    abcd.add_argument("--d-max-iter", type=int, default=1000)
    abcd.add_argument("--c-max-iter", type=int, default=1000)
    abcd.add_argument("--seed", type=int, default=0)
    abcd.add_argument("--out", default=os.environ.get("CDFAIR_OUT_DIR", "."))
    abcd.add_argument("--prefix", default="graph")
    abcd.set_defaults(func=cmd_generate)
    two = gen_sub.add_parser("two-community", help="minority/majority two-block graph")
    two.add_argument("--n", type=int, required=True)
    two.add_argument("--minority", type=float, default=0.2)
    two.add_argument("--intra-p", type=float, default=0.3)
    two.add_argument("--inter-p", type=float, default=0.05)
    two.add_argument("--seed", type=int, default=0)
    two.add_argument("--out", default=os.environ.get("CDFAIR_OUT_DIR", "."))
    two.add_argument("--prefix", default="graph")
    two.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="run detectors and compute all measures")
    ev.add_argument("--config", help="JSON config mirroring the flags; flags override")
    ev.add_argument("--graph", action="append", help="edge-list path (repeatable)")
    ev.add_argument("--gt", action="append", help="ground-truth partition path (repeatable)")
    ev.add_argument("--detector", action="append",
                    help="name[:k=v,...], e.g. louvain:seed=1 or external:path=p.gt")
    ev.add_argument("--metrics", help=f"comma list from {','.join(ALL_METRICS)}")
    ev.add_argument("--nmi-norm", choices=NMI_NORMS)
    ev.add_argument("--seed", type=int)
    ev.add_argument("--oracle", action="store_true",
                    help="use the O(n^2) bias oracle instead of the fast path")
    ev.add_argument("--group", help="graph group label used in reports")
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_evaluate)

    sw = sub.add_parser("sweep", help="perturbation-response sweeps")
    sw.add_argument("--scenario", choices=SCENARIOS + ("all",), default="all")
    sw.add_argument("--target", choices=TARGETS + ("both",), default="both")
    sw.add_argument("--n", type=int, default=1000)
    sw.add_argument("--minority", type=float, default=0.2)
    sw.add_argument("--ratios", default=",".join(str(r / 10) for r in range(11)))
    sw.add_argument("--runs", type=int, default=100,
                    help="rows per ratio in the --per-run CSVs (the bias is exact)")
    sw.add_argument("--seed", type=int, default=0,
                    help="accepted for old command lines; sweeps use no randomness")
    sw.add_argument("--per-run", action="store_true", help="also write long-format per-run CSVs")
    sw.add_argument("--out", default=os.environ.get("CDFAIR_OUT_DIR", "."))
    sw.set_defaults(func=cmd_sweep)

    rep = sub.add_parser("report", help="plot-data CSV and SVG scatters from run reports")
    rep.add_argument("reports", nargs="+", help="report.json paths")
    rep.add_argument("--out", default=os.environ.get("CDFAIR_OUT_DIR", "."))
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EdgeListError, PartitionError, GenerationError, ValueError,
            json.JSONDecodeError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
