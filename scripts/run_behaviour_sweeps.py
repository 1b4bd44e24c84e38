#!/usr/bin/env python3
"""Reproduce the perturbation-response curves (expansion / shrinkage / change).

Runs every (scenario, target) sweep at several graph sizes and writes one CSV
per combination, plus a combined long-format CSV for plotting.

Usage:
    python3 scripts/run_behaviour_sweeps.py --out results/sweeps [--sizes 100,1000]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from cdfair.perturb import SCENARIOS, TARGETS, SweepConfig, run_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--sizes", default="100,1000,10000", help="comma list of graph sizes")
    ap.add_argument("--minority", type=float, default=0.2)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sizes = [int(s) for s in args.sizes.split(",")]
    ratios = tuple(r / 10 for r in range(11))

    combined = out / "sweeps_all.csv"
    with open(combined, "w", encoding="utf-8") as all_fh:
        all_fh.write("scenario,target,n,ratio,mean_ib,std_ib\n")
        for n in sizes:
            for scenario in SCENARIOS:
                for target in TARGETS:
                    cfg = SweepConfig(
                        scenario=scenario, target=target, ratios=ratios,
                        n=n, minority_frac=args.minority,
                    )
                    result = run_sweep(cfg)
                    path = out / f"sweep_{scenario}_{target}_n{n}.csv"
                    with open(path, "w", encoding="utf-8") as fh:
                        result.write_csv(fh)
                    for ratio, m in zip(ratios, result.mean_ib):
                        all_fh.write(f"{scenario},{target},{n},{ratio!r},{m!r},0.0\n")
                    print(f"wrote {path}")
    print(f"wrote {combined}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
