"""Command-line pipeline: generate, evaluate, sweep, report.

Exit codes: 0 success (possibly with warnings: only bad input fails an
evaluate cell), 1 config or parse error, or an evaluate worker process that
ended abruptly, 2 I/O error; any other exception is a defect and stops the
run. All randomness flows from the run seed through `derive_cell_seed`, and
sweeps use no randomness, so any command re-run with the same arguments
produces byte-identical outputs, whatever the number of evaluate workers.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import __version__
from .perturb import SCENARIOS, TARGETS, SweepConfig, run_sweep
from .staging import staged

# a command imports what only it uses when it runs (numpy; `report`, with json
# and csv), so sweep, --help and --version load neither and report no numpy


def _error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------- generate


def cmd_generate(args: argparse.Namespace) -> int:
    from dataclasses import asdict  # loaded by synthgen anyway

    from .graph import write_edge_list
    from .partition import write_partition
    from .report import write_json
    from .synthgen import AbcdParams, generate_abcd_lite

    out, prefix = Path(args.out), args.prefix
    if prefix in ("", ".", "..") or Path(prefix).name != prefix:  # a file name in --out
        raise ValueError(f"--prefix must be a file name without a path separator, "
                         f"not empty, '.' or '..', got {prefix!r}")
    params = AbcdParams(
        n=args.n, gamma=args.gamma, d_min=args.d_min, d_max=args.d_max,
        beta=args.beta, c_min=args.c_min, c_max=args.c_max, xi=args.xi, seed=args.seed,
    )
    g, p, info = generate_abcd_lite(params)
    provenance = {"model": "abcd_lite", "params": asdict(params), "realized": info,
                  "package_version": __version__}
    with staged(out) as place:
        with open(place(f"{prefix}.edges"), "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
        with open(place(f"{prefix}.gt"), "w", encoding="utf-8") as fh:
            write_partition(p, fh)
        write_json(place(f"{prefix}.json"), provenance)
    summary = (f"n={g.n}, |E|={g.num_edges}, dropped_stubs={info['dropped_stubs']}, "
               f"realized_inter_fraction={info['realized_inter_fraction']:.4f}")
    print(f"wrote {out / prefix}.edges / .gt / .json  ({summary})")
    return 0


# ---------------------------------------------------------------- evaluate


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluate import ConfigError, WorkerError, _parse_detector, evaluate_run

    if len(args.graph) != len(args.gt):
        raise ConfigError("--graph and --gt must be given the same number of times")
    detectors = [_parse_detector(d) for d in args.detector]
    try:
        doc = evaluate_run(list(zip(args.graph, args.gt)), detectors, args.out,
                           seed=args.seed, graph_group=args.group)
    except WorkerError as exc:
        return _error(exc)
    for w in doc["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {Path(args.out) / 'report.json'} and results.csv")
    return 0


# ---------------------------------------------------------------- sweep


def _parse_ratios(text: str) -> tuple[float, ...]:
    ratios = []
    for token in text.split(","):
        try:
            ratios.append(float(token))
        except ValueError:
            raise ValueError(f"--ratios: {token!r} is not a number") from None
    return tuple(ratios)


def cmd_sweep(args: argparse.Namespace) -> int:
    ratios = _parse_ratios(args.ratios)
    scenarios = SCENARIOS if args.scenario == "all" else (args.scenario,)
    targets = TARGETS if args.target == "both" else (args.target,)
    # every sweep is computed (and its input checked) before the output
    # directory is made, so a bad input leaves no directory
    results = [
        run_sweep(SweepConfig(scenario=scenario, target=target, ratios=ratios,
                              n=args.n, minority_frac=args.minority))
        for scenario in scenarios for target in targets
    ]
    names = [f"sweep_{r.config.scenario}_{r.config.target}.csv" for r in results]
    with staged(args.out) as place:
        for result, name in zip(results, names):
            with open(place(name), "w", encoding="utf-8") as fh:
                result.write_csv(fh)
    print("\n".join(f"wrote {Path(args.out) / name}" for name in names))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .report import write_report_outputs

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
    abcd.add_argument("--seed", type=int, default=0)
    abcd.add_argument("--out", default=".")
    abcd.add_argument("--prefix", default="graph")
    abcd.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="run detectors and compute all measures")
    ev.add_argument("--graph", action="append", default=[], help="edge-list path (repeatable)")
    ev.add_argument("--gt", action="append", default=[],
                    help="ground-truth partition path (repeatable)")
    ev.add_argument("--detector", action="append", default=[],
                    help="name[:k=v,...], e.g. louvain or external:path=p.gt")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--group", default="run", help="graph group label used in reports")
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_evaluate)

    sw = sub.add_parser("sweep", help="perturbation-response sweeps")
    sw.add_argument("--scenario", choices=SCENARIOS + ("all",), default="all")
    sw.add_argument("--target", choices=TARGETS + ("both",), default="both")
    sw.add_argument("--n", type=int, default=1000)
    sw.add_argument("--minority", type=float, default=0.2)
    sw.add_argument("--ratios", default=",".join(str(r / 10) for r in range(11)))
    sw.add_argument("--runs", type=int, default=100,
                    help="accepted for old command lines; the bias is exact, so it changes nothing")
    sw.add_argument("--seed", type=int, default=0,
                    help="accepted for old command lines; sweeps use no randomness")
    sw.add_argument("--out", default=".")
    sw.set_defaults(func=cmd_sweep)

    rep = sub.add_parser("report", help="plot-data CSV and SVG scatters from run reports")
    rep.add_argument("reports", nargs="+", help="report.json paths")
    rep.add_argument("--out", default=".")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a bad input or option, and the loaders' errors
        return _error(exc)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The `cdfair` command. It freezes the heap before exit, so teardown leaves
    the import graph to the OS instead of collecting it; main() does not, as
    in-process callers would keep their cyclic garbage forever."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
