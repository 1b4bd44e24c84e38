#!/usr/bin/env python3
"""Reproduce the perturbation-response curves (expansion / shrinkage / change).

Runs every (scenario, target) sweep at several graph sizes and writes one CSV
per combination, plus a combined long-format CSV for plotting.

Usage:
    python3 scripts/run_behaviour_sweeps.py --out results/sweeps [--sizes 100,1000]
"""

from __future__ import annotations

import argparse
import io
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

    parts = []  # every sweep CSV, each but the first without its header line
    for n in sizes:
        for scenario in SCENARIOS:
            for target in TARGETS:
                cfg = SweepConfig(
                    scenario=scenario, target=target, ratios=ratios,
                    n=n, minority_frac=args.minority,
                )
                buf = io.StringIO()
                run_sweep(cfg).write_csv(buf)
                text = buf.getvalue()
                path = out / f"sweep_{scenario}_{target}_n{n}.csv"
                path.write_text(text, encoding="utf-8")
                parts.append(text.partition("\n")[2] if parts else text)
                print(f"wrote {path}")
    combined = out / "sweeps_all.csv"
    combined.write_text("".join(parts), encoding="utf-8")
    print(f"wrote {combined}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
