"""The evaluate pipeline: every detector on every graph, every measure per cell.

`evaluate_run` is the entry for `cdfair evaluate` and library callers alike:
it checks its arguments, so both get the same errors before any input is read
or anything is made under the output directory, and then writes report.json,
results.csv and one bias CSV per cell. All randomness flows from the run seed
through `derive_cell_seed`, so a run gives the same bytes whatever the number
of worker processes.
"""

from __future__ import annotations

import contextlib
import csv
import logging
import math
import os
from pathlib import Path

from . import __version__
from .bias import ib_all_fast
from .staging import staged
from .detectors import DETECTORS, run_detector
from .graph import EdgeListError, Graph, load_edge_list
from .groupfair import phi
from .partition import Partition, contingency, load_partition
from .quality import ari, modularity, nf1, nmi, sum_in_order
from .report import PHI_METRICS, QUALITY_METRICS, REPORT_SCHEMA_VERSION, write_json
from .textio import load_file


class ConfigError(ValueError):
    pass


class WorkerError(RuntimeError):
    """A worker process ended before returning the cells it was given."""


_ABRUPT = "a worker process ended abruptly while evaluating cells"


def derive_cell_seed(base: int, detector_index: int, graph_index: int) -> int:
    """Per-(detector, graph) seed so evaluation cells are order-independent."""
    return base + 1009 * detector_index + graph_index


def _fmt(x) -> str:
    return "" if x is None else repr(x)


def evaluate_cell(g: Graph, gt: Partition, name: str, path: str | None, seed: int) -> dict:
    """Every metric for one (graph, detector) pair."""
    pred = run_detector(name, path, g, seed)
    ct = contingency(gt, pred)  # the one table every external metric reads
    report = ib_all_fast(ct)
    return {
        "error": None, "k_pred": pred.k, "ib_g": report.ib_g, "mean_ib": report.mean_ib,
        "_bias_report": report, "modularity": modularity(g, pred),
        "nmi": nmi(ct), "ari": ari(ct), "nf1": nf1(ct),
        **phi(g, ct),
    }


_AGG_KEYS = ("ib_g", "mean_ib") + QUALITY_METRICS + PHI_METRICS


def _aggregate(rows: list[dict]) -> dict:
    agg = {}
    for key in _AGG_KEYS:
        vals = [r[key] for r in rows if r[key] is not None]
        if not vals:
            agg[key] = None
        else:
            mean = sum_in_order(vals) / len(vals)
            std = math.sqrt(sum_in_order([(v - mean) ** 2 for v in vals]) / len(vals))
            agg[key] = {"mean": mean, "std": std}
    return agg


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


def _worker_count(cells: int) -> int:
    """One worker per CPU this process may run on, and no more than there are cells."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has sched_getaffinity
        return 1
    return min(cells, cpus)


def _serve_cells(run, task_r: int, out: int, inherited: set[int]):
    """A forked worker: for each index i read from `task_r`, pickle (i, run(i)
    or the exception it raised, the records it logged) to `out`, until the
    task pipe ends. Never returns into the caller's code."""
    import pickle

    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        kept = _KeepRecords()  # the worker prints no record; its parent handles them
        logging.root.handlers = [kept]
        with open(out, "wb") as rows:
            while index := os.read(task_r, 4):
                i = int.from_bytes(index, "little")
                try:
                    row = run(i)
                except Exception as exc:  # raised in the parent when its cell's turn comes
                    row = exc
                pickle.dump((i, row, kept.records), rows, pickle.HIGHEST_PROTOCOL)
                kept.records.clear()
                rows.flush()
        code = 0
    finally:
        os._exit(code)


def _map_cells(run, count: int):
    """Yield the row ``run(i)`` of each cell i in range(count), in order, from
    forked workers when two or more CPUs are available. The workers inherit
    `run` and what it reads, so no input is pickled.

    Each worker has its own task pipe and holds one cell at a time: it is
    given the index of its next cell when its previous row arrives, and its
    task pipe is closed when no cell is left. So a row pipe never holds
    bytes past the row being read, and each row is read with one
    `pickle.load`. Rows that arrive early are held until their turn. Worker
    log records are handled here as each row is yielded, so stderr and log
    handlers see them in the order a serial run gives them, and an exception
    that `run(i)` raised in a worker is raised here in cell i's turn.
    """
    workers = _worker_count(count)
    if workers <= 1:
        yield from map(run, range(count))
        return
    import pickle
    import selectors
    import signal

    cells = iter(range(count))
    fds = set()  # this process's open pipe ends
    children = set()  # the workers not yet reaped
    sel = selectors.DefaultSelector()
    done = 0

    def hand_next_cell(task_w: int) -> None:
        i = next(cells, None)
        if i is None:  # the worker exits when it reads the pipe's end
            os.close(task_w)
            fds.remove(task_w)
            return
        try:
            os.write(task_w, i.to_bytes(4, "little"))
        except BrokenPipeError:  # the worker has exited; its row pipe's end says how
            pass

    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            r, w = os.pipe()
            fds |= {task_r, task_w, r, w}
            pid = os.fork()
            if pid == 0:
                _serve_cells(run, task_r, w, fds - {task_r, w})
            children.add(pid)
            for fd in (task_r, w):
                os.close(fd)
                fds.remove(fd)
            sel.register(r, selectors.EVENT_READ, (pid, task_w, open(r, "rb", closefd=False)))
            hand_next_cell(task_w)
        arrived = {}
        while done < count:
            if done in arrived:
                row, records = arrived.pop(done)
                for record in records:
                    logging.getLogger(record.name).handle(record)
                if isinstance(row, Exception):
                    raise row
                done += 1
                yield row
                continue
            if not children:  # every worker has exited and a cell is missing
                raise WorkerError(_ABRUPT)
            for key, _ in sel.select():
                pid, task_w, rows = key.data
                try:
                    i, row, records = pickle.load(rows)
                except EOFError:  # the worker has exited
                    sel.unregister(key.fd)
                    children.remove(pid)
                    if os.waitpid(pid, 0)[1]:  # killed or failed
                        raise WorkerError(_ABRUPT)
                    continue
                except pickle.UnpicklingError:  # a row cut short
                    raise WorkerError(_ABRUPT)
                arrived[i] = (row, records)
                hand_next_cell(task_w)
    finally:
        sel.close()
        for fd in fds:
            os.close(fd)
        for pid in children:
            if done < count:  # stopped early: the workers' rows are not wanted
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _load_inputs(graph_path: str, gt_path: str) -> tuple[Graph, Partition]:
    """One input pair; an error names the file it is in and, when an edge lies
    outside the ground truth's nodes, the ground truth too."""
    # n comes from the ground truth: nodes without edges are in no edge list
    gt = load_file(gt_path, "ground truth", load_partition)
    try:
        g = load_file(graph_path, "graph", lambda data: load_edge_list(data, n=gt.n).graph)
    except EdgeListError as exc:
        if not str(exc).endswith(f"outside [0, {gt.n})"):
            raise
        raise EdgeListError(f"{exc}, the node count of ground truth {gt_path}") from None
    return g, gt


def evaluate_run(graphs: list[tuple[str, str]], detectors: list[str], out_dir: str,
                 *, seed: int = 0, graph_group: str = "run") -> dict:
    """Run every detector, each a `--detector` text, on every (edge-list
    path, ground-truth path) pair in `graphs`, writing into `out_dir`. Only
    bad input, a ValueError or an OSError, fails one cell, with a warning;
    any other exception stops the run.

    A bad argument raises ConfigError before any input is read or anything
    is made under `out_dir`: a detector text that does not parse, no graphs,
    no detectors, two cells that would write the same bias file, a negative
    seed, or no `out_dir`.

    The cells run in forked worker processes, one per CPU in this process's
    affinity mask, or in this process when that is one CPU. Every output
    byte is the same either way. A failed run leaves --out as it was (`staged`).
    """
    parsed = [_parse_detector(text) for text in detectors]
    labels = [_label(name, path) for name, path in parsed]
    if not graphs:
        raise ConfigError("no input graphs: pass --graph and --gt")
    if not detectors:
        raise ConfigError("no detectors requested")
    # a bias file is named after the detector label and the graph's file stem,
    # so two cells would overwrite each other's when two detectors share a
    # label (which also names their report entry), when two graphs share a
    # stem, or when a label or stem holds "_": external:a on b_c.edges and
    # external:a_b on c.edges
    by_name: dict[str, str] = {}
    for text, label in zip(detectors, labels):
        for graph_path, _ in graphs:
            name = _bias_name(label, graph_path)
            cell = f"detector {text!r} on graph {str(graph_path)!r}"
            if name in by_name:
                raise ConfigError(f"{by_name[name]} and {cell} would both write bias/{name}")
            by_name[name] = cell
    if seed < 0:  # random.Random(-s) would repeat seed s
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    if not out_dir:
        raise ConfigError("no output directory: pass --out")
    loaded = [(graph_path, *_load_inputs(graph_path, gt_path))
              for graph_path, gt_path in graphs]
    detectors_block: dict = {}
    warnings = []

    def run_cell(i: int) -> dict:
        """The row of the i-th cell, detector-major; forked workers inherit it."""
        di, gi = divmod(i, len(loaded))
        _, g, gt = loaded[gi]
        try:
            return evaluate_cell(g, gt, *parsed[di], derive_cell_seed(seed, di, gi))
        except (ValueError, OSError) as exc:  # bad input fails its cell, not the run
            return {"error": f"{type(exc).__name__}: {exc}"}

    rows = _map_cells(run_cell, len(parsed) * len(loaded))
    # after every input has loaded; closing the rows stops the workers on any failure
    with staged(out_dir) as place, contextlib.closing(rows):
        for label in labels:
            per_graph = []
            for graph_path, _, _ in loaded:
                row = next(rows)
                if row["error"] is not None:
                    warnings.append(f"{label} on {graph_path}: {row['error']}")
                report = row.pop("_bias_report", None)
                if report is not None:
                    with open(place(f"bias/{_bias_name(label, graph_path)}"), "w",
                              encoding="utf-8") as fh:
                        report.write_csv(fh)
                per_graph.append({"graph": str(graph_path), **row})
            ok_rows = [r for r in per_graph if r["error"] is None]
            detectors_block[label] = {
                "per_graph": per_graph,
                "aggregate": _aggregate(ok_rows) if ok_rows else None,
            }

        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "graph_group": graph_group,
            "provenance": {
                "package_version": __version__,
                "config": {
                    "graphs": [list(p) for p in graphs],
                    "detectors": [{"name": name, "params": {"path": path} if path else {}}
                                  for name, path in parsed],
                    "seed": seed,
                },
            },
            "warnings": warnings,
            "detectors": detectors_block,
        }
        # report.json last, as the index of the files before it
        _write_results_csv(doc, place("results.csv"))
        write_json(place("report.json"), doc)
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


def _parse_detector(text: str) -> tuple[str, str | None]:
    """A `--detector` text as (name, path): a built-in detector's name, with
    path None, or `external:path=PATH`, whose PATH is all the text after
    `path=`, commas and `=` included."""
    name, _, rest = text.partition(":")
    key, eq, value = rest.partition("=")
    if rest and not eq:
        raise ConfigError(f"bad detector parameter {rest!r} (expected key=value)")
    if name != "external" and name not in DETECTORS:
        raise ConfigError(f"unknown detector {name!r}")
    if rest and (name, key) != ("external", "path"):  # a key the detector does not take
        raise ConfigError(f"detector {name!r} has no parameter {key!r} (given {value!r}); "
                          f"it accepts: {'path' if name == 'external' else 'none'}")
    if name == "external" and not value:
        raise ConfigError("detector 'external' requires a 'path' parameter")
    return name, value or None


def _label(name: str, path: str | None) -> str:
    """A detector's name in report.json, results.csv and its bias file names."""
    return f"{name}:{Path(path).stem}" if path else name


def _bias_name(label: str, graph_path: str) -> str:
    """The file under bias/ holding the per-node bias of one (detector, graph) cell."""
    return f"{label}_{Path(graph_path).stem}.csv"

