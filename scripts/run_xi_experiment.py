#!/usr/bin/env python3
"""Detector comparison across the mixing fraction xi.

For each xi in a grid, generates `--graphs` planted-partition graphs, runs all
built-in detectors, and writes per-cell metrics plus per-xi run reports. The
run reports can then be fed to `cdfair report` to get IB_G-vs-quality scatter
plots.

Usage:
    python3 scripts/run_xi_experiment.py --out results/xi [--n 2000 --graphs 5]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from cdfair.evaluate import RunConfig, evaluate_run
from cdfair.detectors import DetectorSpec
from cdfair.graph import write_edge_list
from cdfair.partition import write_partition
from cdfair.report import write_report_outputs
from cdfair.synthgen import AbcdParams, generate_abcd_lite

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
    reports = []
    for xi in (float(v) for v in args.xi.split(",")):
        xi_dir = out / f"xi_{xi:g}"
        data_dir = xi_dir / "data"
        data_dir.mkdir(parents=True, exist_ok=True)
        pairs = []
        for i in range(args.graphs):
            params = AbcdParams(n=args.n, c_min=args.c_min, c_max=args.c_max,
                                xi=xi, seed=args.seed + 101 * i)
            g, p, info = generate_abcd_lite(params)
            edges_path = data_dir / f"g{i}.edges"
            gt_path = data_dir / f"g{i}.gt"
            with open(edges_path, "w", encoding="utf-8") as fh:
                write_edge_list(g, fh)
            with open(gt_path, "w", encoding="utf-8") as fh:
                write_partition(p, fh)
            pairs.append((str(edges_path), str(gt_path)))
            print(f"xi={xi:g} graph {i}: |E|={info['num_edges']}, "
                  f"mixing={info['realized_inter_fraction']:.3f}")
        cfg = RunConfig(
            graphs=pairs,
            detectors=[DetectorSpec(name) for name in DETECTORS],
            out_dir=str(xi_dir / "run"),
            seed=args.seed,
            graph_group=f"xi={xi:g}",
        )
        evaluate_run(cfg)
        reports.append(xi_dir / "run" / "report.json")
        print(f"wrote {xi_dir / 'run' / 'report.json'}")

    for path in write_report_outputs([str(p) for p in reports], str(out / "figures")):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
