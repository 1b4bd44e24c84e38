"""Benchmark of the cdfair CLI: whole passes on seeded inputs, every output checked.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; the package is imported from its
``src`` directory. Timed set-up writes the workload's inputs with
``cdfair generate``; for ``evaluate-external`` the benchmark then writes two
noisy copies of the ground truth, untimed. Next it starts one
``python -m cdfair.cli`` pass after another (closed loop, one client) until
``--seconds`` have passed. Every pass's output files must be byte-identical
to the first one's, and the first one's outputs are checked by ``check.py``,
which does not import cdfair.

The host's CPU speed drifts by up to a third for seconds to minutes at a
time, and a pure-Python loop slows with the passes. So the benchmark times a
fixed calibration loop right before and after every pass and every set-up,
and reports the median of ``wall * CALIBRATION_REF_S / calibration``: the
time at the speed where that loop takes CALIBRATION_REF_S. The raw times are
kept in result.json.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` every pass runs in ``traced.py``, alternately with and without
spans, and the line holds the per-layer metrics and the tracing overhead.
Details of the run, including a sha256 of every input and output file, go to
``.perfbench-work/<workload>/result.json``. ``--quick`` shrinks every input
for the benchmark's own tests. Exit code 2 means the benchmark could not run
and printed no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

XI = 0.3
MINORITY = 0.2  # the CLI's default --minority for sweeps
RATIOS = [r / 10 for r in range(11)]  # the CLI's default --ratios
MOVED = 0.1  # share of nodes an external partition moves to a random community
SETUP_REPS = 3
MIN_PASSES = 2  # the determinism check needs two passes
PASS_TIMEOUT_S = 60.0  # a pass takes about 2 s; a run must end within 180 s
PROBE = "import cdfair; print(cdfair.__file__)"
CALIBRATION_LOOPS = 250_000
CALIBRATION_TABLE = 1 << 18  # int objects over about 9 MB, more than an L2 holds
CALIBRATION_REF_S = 0.15  # about the loop's time on the tuning VM in a fast phase


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    c_min: int = 0
    c_max: int = 0
    detectors: tuple[str, ...] = ()
    externals: tuple[str, ...] = ()  # noisy ground-truth copies, one-graph workloads only
    graphs: int = 1  # graphs per evaluate pass, each from its own seed
    runs: int = 0  # sweep repetitions; 0 means an evaluate workload

    @property
    def is_sweep(self) -> bool:
        return self.runs > 0

    @property
    def labels(self) -> list[str]:
        return [*self.detectors, *(f"external:{e}" for e in self.externals)]

    @property
    def units(self) -> int:
        """Cells (evaluate) or curves (sweep) one pass produces and the checker judges."""
        if self.is_sweep:
            return len(check.SCENARIOS) * len(check.TARGETS)
        return len(self.labels) * self.graphs

    @property
    def cells(self) -> int:
        """Evaluation cells per pass; for a sweep, its perturbation points."""
        return self.units * len(RATIOS) * self.runs if self.is_sweep else self.units

    def graph_files(self) -> list[tuple[str, str]]:
        """(edge list, ground truth) paths relative to the work directory."""
        return [(f"inputs/g{i}.edges", f"inputs/g{i}.gt") for i in range(self.graphs)]


# One pass takes about 2 s on a 2-core VM, so a run makes several passes. The
# detector workloads evaluate many small graphs per pass because detector time
# varies a lot from one graph to the next: over 24 seeds, label propagation's
# time had a coefficient of variation of 0.94 at n=2500, c in [50, 400], and
# Louvain + label propagation 0.15 at n=1000, c in [20, 100]. A sum over many
# such graphs varies much less from seed to seed.
WORKLOADS = {w.name: w for w in (
    Workload("evaluate-detect", n=1_000, c_min=20, c_max=100, graphs=16,
             detectors=("louvain", "label_propagation")),
    # small communities (k_gt ~ 4k) so the per-community O(n k) work shows
    Workload("evaluate-external", n=50_000, c_min=5, c_max=30, externals=("split", "merge")),
    Workload("sweep", n=10_000, runs=5),
    Workload("evaluate-cnm", n=600, c_min=20, c_max=100, graphs=6, detectors=("cnm",)),
)}
QUICK = {
    "evaluate-detect": dict(n=400, graphs=2),
    "evaluate-external": dict(n=2_000),
    "sweep": dict(n=300, runs=2),
    "evaluate-cnm": dict(n=200, graphs=2),
}


# ------------------------------------------------------------------ processes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Runs child processes through spawn.py, so that each one's peak RSS is its own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], env=_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=PASS_TIMEOUT_S)
        self.proc.stdout.close()

    def run(self, cmd: list[str], cwd: Path, log: Path) -> tuple[bool, float]:
        """(exit code was 0, peak RSS in MB) of one child process."""
        request = {"cmd": cmd, "cwd": str(cwd), "log": str(log), "timeout": PASS_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the process spawner ended early")
        reply = json.loads(line)
        return reply["code"] == 0, reply["maxrss_kb"] / 1024.0


def cli_command(args: list[str]) -> list[str]:
    """The user's command for one pass."""
    return [sys.executable, "-m", "cdfair.cli", *args]


def runner_command(commands: list[list[str]], spans: Path | None = None) -> list[str]:
    """Several CLI commands in one interpreter (see traced.py)."""
    cmd = [sys.executable, str(BENCH / "traced.py")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    for args in commands:
        cmd += ["--", *args]
    return cmd


def calibrate(table: list[int]) -> float:
    """Seconds a fixed dict-counting loop takes now: the host's current speed.

    It counts keys read from `table` in a scattered order and keys that stay
    in cache, as the detectors' loops do.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    mask = len(table) - 1
    for j in range(CALIBRATION_LOOPS):
        key = table[(j * 7919) & mask] & 65535
        counts[key] = counts.get(key, 0) + 1
        counts[j & 1023] = counts.get(j & 1023, 0) + 1
    return time.perf_counter() - start


class Stopwatch:
    """Wall times of steps, each with the calibrations taken just before and after it.

    One calibration sits between two consecutive steps and serves both.
    """

    def __init__(self):
        self.table = list(range(CALIBRATION_TABLE))
        self.last = calibrate(self.table)

    def time(self, step):
        """Run step(); returns (result, wall s, mean of the two calibrations around it)."""
        start = time.perf_counter()
        result = step()
        wall = time.perf_counter() - start
        before, self.last = self.last, calibrate(self.table)
        return result, wall, (before + self.last) / 2


def speed_scaled(timings: list[tuple[float, float]]) -> float:
    """Median of (wall, calibration) timings scaled to where the loop takes CALIBRATION_REF_S."""
    return statistics.median(wall * CALIBRATION_REF_S / calibration for wall, calibration in timings)


def digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


# ------------------------------------------------------------------ set-up


def write_externals(w: Workload, seed: int, inputs: Path) -> None:
    """Seeded noisy copies of the ground truth, as external partition files.

    ``split`` halves every community at random, ``merge`` joins them four at a
    time; each then moves MOVED of the nodes to a uniformly random community.
    """
    gt = check.read_labels(inputs / "g0.gt")
    rng = np.random.default_rng([seed, 7])
    k = int(gt.max()) + 1
    for name in w.externals:
        if name == "split":
            labels, k_pred = 2 * gt + rng.integers(0, 2, len(gt)), 2 * k
        else:
            labels, k_pred = gt // 4, (k + 3) // 4
        moved = rng.random(len(gt)) < MOVED
        labels[moved] = rng.integers(0, k_pred, int(moved.sum()))
        np.savetxt(inputs / f"{name}.part", np.column_stack([np.arange(len(gt)), labels]), fmt="%d")


def probe() -> None:
    """Check that the CLI's interpreter imports cdfair from this checkout."""
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"cdfair does not import from {SRC}: {proc.stderr.strip()[-300:]}")


def setup_command(w: Workload, seed: int, spans: Path | None = None) -> list[str]:
    """The timed set-up step: ``cdfair generate`` for every graph, in one interpreter.

    A sweep has no input files, so its set-up is starting the interpreter and
    importing the CLI.
    """
    if w.is_sweep:
        return [sys.executable, "-c", "import cdfair.cli"]
    return runner_command([[
        "generate", "abcd", "--n", str(w.n), "--c-min", str(w.c_min), "--c-max", str(w.c_max),
        "--xi", str(XI), "--seed", str(100 * seed + i), "--out", "inputs", "--prefix", f"g{i}",
    ] for i in range(w.graphs)], spans)


def setup(w: Workload, seed: int, workdir: Path, spawner: Spawner, spans: Path | None = None) -> None:
    """Write the workload's inputs under workdir/inputs (one timed set-up step)."""
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    ok, _ = spawner.run(setup_command(w, seed, spans), workdir, workdir / "setup.log")
    if not ok:
        raise BenchError(f"set-up failed; see {workdir / 'setup.log'}")


def pass_args(w: Workload, seed: int, out: str) -> list[str]:
    if w.is_sweep:
        return ["sweep", "--n", str(w.n), "--runs", str(w.runs), "--seed", str(seed), "--out", out]
    args = ["evaluate"]
    for edges, gt in w.graph_files():
        args += ["--graph", edges, "--gt", gt]
    for d in w.detectors:
        args += ["--detector", d]
    for e in w.externals:
        args += ["--detector", f"external:path=inputs/{e}.part"]
    return args + ["--seed", str(seed), "--out", out]


def check_outputs(w: Workload, workdir: Path, out: Path) -> dict[str, list[str]]:
    if w.is_sweep:
        return check.check_sweep(out, w.n, MINORITY, RATIOS)
    externals = {f"external:{e}": workdir / "inputs" / f"{e}.part" for e in w.externals}
    graphs = [(edges, workdir / gt) for edges, gt in w.graph_files()]
    return check.check_evaluate(out, graphs, list(w.detectors), externals)


# ------------------------------------------------------------------ tracing


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus its direct children's. Inclusive
    time counts only the outermost span of a name, so recursion is not
    counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child_time[i]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            t["s"] += end - start
    return totals


SETUP_LAYERS = ("synthgen.generate_abcd_lite", "graph.write_edge_list", "partition.write_partition")


def layer_metrics(doc: dict, w: Workload) -> dict[str, float]:
    """Per-layer metrics of one traced pass (or, for SETUP_LAYERS, one traced set-up)."""
    totals = layer_totals(doc["spans"])

    def get(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0)

    def note(name: str, key: str) -> int:
        return doc["notes"].get(name, {}).get(key, 0)

    perturbs = ("perturb.perturb_expand", "perturb.perturb_shrink", "perturb.perturb_change")
    metrics = {f"{name}.s": get(name) for name in SETUP_LAYERS}
    metrics.update({
        "graph.load_edge_list.s": get("graph.load_edge_list"),
        "graph.edges": note("graph.load_edge_list", "edges"),
        "graph.dropped": note("graph.load_edge_list", "dropped"),
        "partition.load_partition.s": get("partition.load_partition"),
        "partition.contingency.s": get("partition.contingency"),
        "partition.contingency.calls_per_cell": get("partition.contingency", "calls") / w.cells,
        "partition.contingency.cells": note("partition.contingency", "cells"),
        "partition.from_labels.s": get("partition.from_labels"),
        "partition.from_labels.calls": get("partition.from_labels", "calls"),
        "bias.ib_all_fast.s": get("bias.ib_all_fast"),
        "bias.ib_all_fast.calls": get("bias.ib_all_fast", "calls"),
        "bias.from_values.s": get("bias.from_values"),
        "bias.write_csv.s": get("bias.write_csv"),
        "quality.modularity.s": get("quality.modularity"),
        "quality.nmi.s": get("quality.nmi"),
        "quality.ari.s": get("quality.ari"),
        "quality.nf1.s": get("quality.nf1"),
        "groupfair.community_stats.s": get("groupfair.community_stats"),
        "groupfair.community_scores.s": get("groupfair.community_scores"),
        "groupfair.phi.self_s": get("groupfair.phi", "self_s"),
        "detectors.louvain.s": get("detectors.louvain"),
        "detectors.label_propagation.s": get("detectors.label_propagation"),
        "detectors.greedy_agglomerative.s": get("detectors.greedy_agglomerative"),
        "detectors.k_pred": note("detectors.run_detector", "k_pred"),
        "perturb.run_sweep.self_s": get("perturb.run_sweep", "self_s"),
        "perturb.perturb.s": sum(get(p) for p in perturbs),
        "perturb.points": sum(get(p, "calls") for p in perturbs),
        "cli.import.s": doc["import_s"],
        "cli.evaluate_run.self_s": get("cli.evaluate_run", "self_s"),
        "cli.sweep.self_s": get("cli.sweep", "self_s"),
    })
    return metrics


def tracing_overhead(passes: list[dict]) -> float:
    """Median over (untraced, traced) pass pairs of traced / untraced time - 1.

    Pairs are consecutive passes, so both sides of a ratio ran at about the
    same host speed; each time is also speed-scaled.
    """
    ratios = [
        (b["wall_s"] / b["calibration_s"]) / (a["wall_s"] / a["calibration_s"])
        for a, b in zip(passes[::2], passes[1::2]) if a["ok"] and b["ok"]
    ]
    if not ratios:
        raise BenchError("no pair of untraced and traced passes succeeded")
    return statistics.median(ratios) - 1.0


def metric_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "fraction" if name.endswith("_frac") else "count"


# ------------------------------------------------------------------ one run


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / w.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    detail: dict = {
        "workload": dataclasses.asdict(w), "seed": seed, "seconds": seconds, "trace": trace,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "memory_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2)},
    }
    setup_spans = workdir / "setup-spans.json" if trace and not w.is_sweep else None
    probe()
    with Spawner() as spawner:
        stopwatch = Stopwatch()
        setups = [stopwatch.time(lambda: setup(w, seed, workdir, spawner, setup_spans))
                  for _ in range(1 if trace else SETUP_REPS)]
        detail["setup_timings_s"] = [(wall, calibration) for _, wall, calibration in setups]
        if w.externals:
            write_externals(w, seed, workdir / "inputs")
        detail["input_sha256"] = digests(workdir / "inputs")

        passes: list[dict] = []
        reference: dict | None = None  # digests of the first pass that exited 0
        start = time.perf_counter()
        while len(passes) < MIN_PASSES * (2 if trace else 1) or time.perf_counter() - start < seconds:
            i = len(passes)
            traced = trace and i % 2 == 1
            out = workdir / "out" / f"pass-{i}"
            spans = workdir / f"spans-{i}.json" if traced else None
            args = pass_args(w, seed, str(out.relative_to(workdir)))
            # --trace 1 compares traced.py with and without spans, so both sides share an entry point
            cmd = runner_command([args], spans) if trace else cli_command(args)
            (ok, rss), wall, calibration = stopwatch.time(lambda: spawner.run(cmd, workdir, workdir / "passes.log"))
            record = {"traced": traced, "ok": ok, "wall_s": wall, "calibration_s": calibration,
                      "peak_rss_mb": rss}
            if ok:
                files = digests(out)
                if reference is None:
                    reference = files
                    detail["output_sha256"] = files
                    try:
                        detail["check"] = check_outputs(w, workdir, out)
                    except (OSError, ValueError) as exc:  # unreadable output fails every unit
                        detail["check"] = {f"unit {u}": [f"unreadable output: {exc}"] for u in range(w.units)}
                    record["reference"] = True
                record["identical"] = files == reference
                if traced:
                    record["layers"] = json.loads(spans.read_text(encoding="utf-8"))
            if not record.get("reference"):
                shutil.rmtree(out, ignore_errors=True)
            passes.append(record)

    checked = detail.get("check", {})
    check_failed = sum(1 for failures in checked.values() if failures)
    failed = sum(check_failed if p["ok"] and p["identical"] else w.units for p in passes)
    attempted = w.units * len(passes)
    detail["failed_frac"] = failed / attempted
    plain = [p for p in passes if not p["traced"] and p["ok"]]
    if not plain:
        raise BenchError(f"no pass of {w.name} succeeded; see {workdir / 'passes.log'}")
    if trace:
        traced_ok = [p for p in passes if p["traced"] and p["ok"]]
        if not traced_ok:
            raise BenchError(f"no traced pass of {w.name} succeeded; see {workdir / 'passes.log'}")
        docs = [p.pop("layers") for p in traced_ok]
        per_pass = [layer_metrics(doc, w) for doc in docs]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        if setup_spans is not None:  # a sweep generates nothing in set-up
            docs.append(json.loads(setup_spans.read_text(encoding="utf-8")))
            values.update({f"{name}.s": layer_metrics(docs[-1], w)[f"{name}.s"] for name in SETUP_LAYERS})
        values["trace.overhead_frac"] = tracing_overhead(passes)
        detail["absent"] = sorted({name for doc in docs for name in doc["absent"]})
        metrics = {k: {"value": v, "unit": metric_unit(k)} for k, v in values.items()}
    else:
        metrics = {
            "run_s": {"value": speed_scaled([(p["wall_s"], p["calibration_s"]) for p in plain]), "unit": "s"},
            "setup_s": {"value": speed_scaled(detail["setup_timings_s"]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain), "unit": "MB"},
        }
    detail["passes"] = passes
    result = {"correct": failed == 0 and bool(checked), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail["result"] = result
    (workdir / "result.json").write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.quick:
        w = dataclasses.replace(w, **QUICK[w.name])
    if not (SRC / "cdfair" / "cli.py").is_file():
        print(f"error: no cdfair source under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(w, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"details: {WORK / w.name / 'result.json'}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
