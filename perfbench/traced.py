"""Run cdfair CLI commands in one interpreter, optionally recording spans.

Usage: python traced.py [--spans OUT.json] -- ARGS [-- ARGS ...]

Each ARGS is one ``cdfair`` command line, run through ``cdfair.cli.main``; the
first one that fails ends the run with its exit code. With ``--spans``, spans
are recorded around the package's public calls.

The wrappers are installed from here, not inside the package: each target
function is replaced in every cdfair module namespace (and module-level dict)
that holds it, so calls that other modules imported by name, such as
``bias.contingency`` or ``perturb._PERTURBATIONS``, are traced too. Spans are
kept in memory and written to OUT.json when the command ends. A target that a
later refactor removed is listed under ``absent`` instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module, attribute path); a dotted attribute is a method
TARGETS = (
    ("graph.load_edge_list", "graph", "load_edge_list"),
    ("graph.write_edge_list", "graph", "write_edge_list"),
    ("synthgen.generate_abcd_lite", "synthgen", "generate_abcd_lite"),
    ("partition.load_partition", "partition", "load_partition"),
    ("partition.write_partition", "partition", "write_partition"),
    ("partition.contingency", "partition", "contingency"),
    ("partition.from_labels", "partition", "Partition.from_labels"),
    ("bias.ib_all_fast", "bias", "ib_all_fast"),
    ("bias.from_values", "bias", "BiasReport.from_values"),
    ("bias.write_csv", "bias", "BiasReport.write_csv"),
    ("quality.modularity", "quality", "modularity"),
    ("quality.nmi", "quality", "nmi"),
    ("quality.ari", "quality", "ari"),
    ("quality.nf1", "quality", "nf1"),
    ("groupfair.community_stats", "groupfair", "community_stats"),
    ("groupfair.community_scores", "groupfair", "community_scores"),
    ("groupfair.phi", "groupfair", "phi"),
    ("detectors.run_detector", "detectors", "run_detector"),
    ("detectors.louvain", "detectors", "louvain"),
    ("detectors.label_propagation", "detectors", "label_propagation"),
    ("detectors.greedy_agglomerative", "detectors", "greedy_agglomerative"),
    ("perturb.run_sweep", "perturb", "run_sweep"),
    ("perturb.perturb_expand", "perturb", "perturb_expand"),
    ("perturb.perturb_shrink", "perturb", "perturb_shrink"),
    ("perturb.perturb_change", "perturb", "perturb_change"),
    ("cli.evaluate_run", "cli", "evaluate_run"),
    ("cli.sweep", "cli", "cmd_sweep"),
    ("cli.generate", "cli", "cmd_generate"),
)


def _edges_note(result) -> dict:
    return {"edges": result.graph.num_edges,
            "dropped": result.duplicates_dropped + result.self_loops_dropped}


# counts read from a call's return value, after its span has ended
NOTES = {
    "graph.load_edge_list": _edges_note,
    "partition.contingency": lambda table: {"cells": len(table.overlap)},
    "detectors.run_detector": lambda partition: {"k_pred": partition.k},
}


class Tracer:
    """In-memory span log: one [name, start, end, parent index] list per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[str, dict[str, int]] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                self._note(name, note, result)
            return result

        return traced

    def _note(self, name: str, note, result) -> None:
        try:
            values = note(result)
        except (AttributeError, TypeError):
            self.absent.append(f"{name} (counts)")
            return
        totals = self.notes.setdefault(name, {})
        for key, value in values.items():
            totals[key] = totals.get(key, 0) + int(value)

    def install(self, package: str = "cdfair") -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == package or key.startswith(package + ".")) and m is not None]
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(f"{package}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                self.absent.append(name)
                continue
            if owner_name:  # method on a class: classmethods keep their binding
                raw = vars(owner).get(method)
                if isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(self.wrap(name, raw.__func__)))
                elif callable(raw):
                    setattr(owner, method, self.wrap(name, raw))
                else:
                    self.absent.append(name)
                continue
            original = getattr(module, method, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper


def _commands(argv: list[str]) -> list[list[str]]:
    commands: list[list[str]] = []
    for arg in argv:
        if arg == "--":
            commands.append([])
        elif commands:
            commands[-1].append(arg)
    return commands


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"] and len(argv) > 1:
        spans_path, argv = argv[1], argv[2:]
    commands = _commands(argv)
    if argv[:1] != ["--"] or not all(commands):
        print("usage: traced.py [--spans OUT.json] -- ARGS [-- ARGS ...]", file=sys.stderr)
        return 1
    start = time.perf_counter()
    import cdfair.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    if spans_path is not None:
        tracer.install()
    code = 0
    try:
        for args in commands:
            code = cdfair.cli.main(args)
            if code != 0:
                break
    finally:
        if spans_path is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"import_s": import_s, "spans": tracer.spans,
                           "notes": tracer.notes, "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
