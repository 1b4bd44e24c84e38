#!/usr/bin/env python3
"""Detector comparison across the mixing fraction xi.

For each xi in a grid, generates `--graphs` planted-partition graphs, runs all
built-in detectors on them, and writes per-cell metrics plus a per-xi run
report; `cdfair report` then turns the run reports into IB_G-vs-quality
scatter plots. Each step is a `cdfair` command run in this process, so the
files carry the same provenance and checks as on the command line, and the
script exits with the first non-zero exit code.

Usage:
    python3 scripts/run_xi_experiment.py --out results/xi [--n 2000 --graphs 5]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from cdfair.cli import main as cdfair

DETECTORS = ("louvain", "label_propagation", "cnm")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--xi", default="0.2,0.4,0.6", help="comma list of mixing fractions")
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--c-min", type=int, default=50)
    ap.add_argument("--c-max", type=int, default=400)
    ap.add_argument("--graphs", type=int, default=5, help="graphs per xi value")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out)
    commands, reports = [], []
    for xi in (float(v) for v in args.xi.split(",")):
        xi_dir = out / f"xi_{xi:g}"
        data_dir = xi_dir / "data"
        evaluate = ["evaluate", *(f"--detector={name}" for name in DETECTORS),
                    "--seed", str(args.seed), "--group", f"xi={xi:g}", "--out", str(xi_dir / "run")]
        for i in range(args.graphs):
            commands.append(["generate", "abcd", "--n", str(args.n), "--c-min", str(args.c_min),
                             "--c-max", str(args.c_max), "--xi", repr(xi),
                             "--seed", str(args.seed + 101 * i),
                             "--out", str(data_dir), "--prefix", f"g{i}"])
            evaluate += ["--graph", str(data_dir / f"g{i}.edges"),
                         "--gt", str(data_dir / f"g{i}.gt")]
        commands.append(evaluate)
        reports.append(str(xi_dir / "run" / "report.json"))
    commands.append(["report", *reports, "--out", str(out / "figures")])
    for argv in commands:  # each command checks its input; the first failure stops the run
        if rc := cdfair(argv):
            return rc
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
