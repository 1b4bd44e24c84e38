"""The import surface: ``import cdfair`` loads nothing else, ``cdfair sweep``
and ``cdfair report`` run without numpy, ``cdfair evaluate`` without
``numpy.ma``, and its forked workers without a process pool or a thread,
README's library example runs as written, and nothing in `src/` is there for
tests alone.

Each check runs in a fresh interpreter with `src/` on its import path, since
this test process has imported every module already.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, cwd=ROOT)


def test_import_cdfair_loads_neither_numpy_nor_a_submodule():
    proc = _python(
        "import sys, cdfair\n"
        "print(cdfair.__version__)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'numpy' or m.startswith(('numpy.', 'cdfair.'))))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == ["[]"]


def test_sweep_report_and_version_run_without_numpy(tmp_path):
    from cdfair.cli import main

    # a report.json from a real run; this test process may load numpy
    for ext, text in (("edges", "0 1\n1 2\n0 2\n2 3\n3 4\n4 5\n3 5\n"),
                      ("gt", "0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n")):
        (tmp_path / f"g.{ext}").write_text(text)
    assert main(["evaluate", "--graph", str(tmp_path / "g.edges"), "--gt", str(tmp_path / "g.gt"),
                 "--detector", "louvain", "--out", str(tmp_path / "run")]) == 0
    proc = _python(
        "import sys\n"
        "from cdfair.cli import main\n"
        f"assert main(['sweep', '--n', '200', '--out', {str(tmp_path / 'sweep')!r}]) == 0\n"
        f"assert main(['report', {str(tmp_path / 'run' / 'report.json')!r},\n"
        f"             '--out', {str(tmp_path / 'figures')!r}]) == 0\n"
        "try:\n"
        "    main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert len(list((tmp_path / "sweep").glob("sweep_*.csv"))) == 6
    assert (tmp_path / "figures" / "scatter_points.csv").is_file()


def test_evaluate_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique without a return_* argument imports numpy.ma, which costs
    # each forked worker its import time and memory; one worker runs every
    # cell in the interpreter that is checked
    data = ROOT / "tests" / "data"
    proc = _python(
        "import sys\n"
        "import numpy\n"
        "if 'numpy.ma' in sys.modules:\n"
        "    sys.exit('numpy.ma loaded by numpy')\n"
        "from cdfair import evaluate\n"
        "from cdfair.cli import main\n"
        "evaluate._worker_count = lambda cells: 1\n"
        f"assert main(['evaluate', '--graph', {str(data / 'karate.edges')!r},\n"
        f"             '--gt', {str(data / 'karate.gt')!r},\n"
        "             '--detector', 'louvain', '--detector', 'label_propagation',\n"
        f"             '--detector', 'cnm', '--detector', 'external:path={data / 'karate.gt'}',\n"
        f"             '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    if proc.stderr.strip() == "numpy.ma loaded by numpy":  # numpy before 2.0 imports it
        pytest.skip(proc.stderr.strip())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert len(list((tmp_path / "run" / "bias").glob("*.csv"))) == 4


def test_parallel_evaluate_starts_no_thread_and_no_pool(tmp_path):
    # the workers are plain forked children: no multiprocessing or
    # concurrent.futures import, and no feeder or manager thread
    data = ROOT / "tests" / "data"
    proc = _python(
        "import sys, threading\n"
        "from cdfair import evaluate\n"
        "from cdfair.cli import main\n"
        "evaluate._worker_count = lambda cells: 2\n"
        f"assert main(['evaluate', '--graph', {str(data / 'karate.edges')!r},\n"
        f"             '--gt', {str(data / 'karate.gt')!r},\n"
        "             '--detector', 'louvain', '--detector', 'cnm',\n"
        f"             '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        "print(threading.active_count())"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "1"]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    proc = _python(blocks[0])
    assert proc.returncode == 0, proc.stderr
    ib_g, mean_ib, nmi = map(float, proc.stdout.split())
    assert 0.0 <= ib_g <= 0.5 and 0.0 <= mean_ib < 1.0 and 0.0 <= nmi <= 1.0


def test_every_definition_in_src_has_a_caller_in_src():
    """Code that only tests call lives under tests/ (``tests/oracles.py``).
    Every module-level function and class of ``src/cdfair``, and every method
    not named ``__…__``, is read somewhere in ``src/cdfair`` outside its own
    definition, as a name or an attribute. ``_KeepRecords.emit`` is exempt:
    ``logging`` calls it."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "cdfair").glob("*.py"))}
    reads = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
             for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []  # (module, qualified name, node)
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (*functions, ast.ClassDef)):
                found.append((module, top.name, top))
            if isinstance(top, ast.ClassDef):
                found += [(module, f"{top.name}.{node.name}", node) for node in top.body
                          if isinstance(node, functions) and not re.fullmatch(r"__\w+__", node.name)]
    uncalled = [
        f"{module}:{node.lineno} {qualname}" for module, qualname, node in found
        if qualname != "_KeepRecords.emit" and not any(
            name == node.name and not (at == module and node.lineno <= line <= node.end_lineno)
            for at, line, name in reads)
    ]
    assert uncalled == []
