"""The import surface: ``import cdfair`` loads nothing else, ``cdfair sweep``
and ``cdfair report`` run without numpy, and with ``--help`` and ``--version``
without dataclasses (sweep, --help and --version without the report module
too), ``cdfair generate`` without the evaluate pipeline, ``cdfair evaluate``
without ``numpy.ma``, and its forked workers without a process pool or a
thread, forked from a process of one thread (the CLI asks for one OpenBLAS
thread before numpy loads, unless the variable is set); the `cdfair` command
keeps main's exit codes and exits with a frozen heap, `python -m cdfair.cli`
executes the cli module once, README's library example runs as written, and
nothing in `src/` is there for tests alone.

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


@pytest.fixture(scope="module")
def karate_report(tmp_path_factory) -> Path:
    from cdfair.cli import main

    out = tmp_path_factory.mktemp("karate")
    data = ROOT / "tests" / "data"
    assert main(["evaluate", "--graph", str(data / "karate.edges"), "--gt", str(data / "karate.gt"),
                 "--detector", "louvain", "--out", str(out)]) == 0
    return out / "report.json"


RECORDS = ("dataclasses", "inspect")
REPORTING = ("json", "csv", "cdfair.report")


@pytest.mark.parametrize("command, unloaded", [
    ("sweep", RECORDS + REPORTING),
    ("report", RECORDS),
    ("--help", RECORDS + REPORTING),
    ("--version", RECORDS + REPORTING),
])
def test_a_command_loads_no_module_that_only_other_commands_use(tmp_path, karate_report,
                                                                 command, unloaded):
    # dataclasses pulls in inspect, ast, dis and tokenize, and report json and
    # csv: about 17 ms of a sweep process. Modules loaded before cdfair.cli
    # (the interpreter's site may import some) are not counted
    argv = {"sweep": ["sweep", "--n", "200", "--out", str(tmp_path / "sweep")],
            "report": ["report", str(karate_report), "--out", str(tmp_path / "figures")],
            }.get(command, [command])
    proc = _python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "from cdfair.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code)\n"
        f"print(sorted(m for m in {unloaded!r} if m in sys.modules and m not in before))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["0", "[]"]


def _script_target() -> str:
    """The `cdfair` console script's ``module:function`` in pyproject.toml,
    read with a regex, since Python 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, flags=re.S | re.M)
    return re.search(r'^cdfair\s*=\s*"([\w.]+:\w+)"\s*$', section.group(1), flags=re.M).group(1)


# how each entry starts the CLI, after argv is set: as `python -m` does, and
# as the installed script's wrapper does
ENTRIES = {
    "python -m cdfair.cli": "import runpy\nrunpy.run_module('cdfair.cli', run_name='__main__', "
                            "alter_sys=True)\n",
    "console script": "from importlib import import_module\n"
                      "module, function = {target!r}.split(':')\n"
                      "sys.exit(getattr(import_module(module), function)())\n",
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("case", ["sweep", "unsorted ratios", "unknown option", "out under a file"])
def test_the_cdfair_command_keeps_mains_exit_codes_and_exits_frozen(tmp_path, entry, case):
    # gc.freeze() before exit spares the interpreter's teardown from
    # collecting the import graph; every byte must still be written
    out = tmp_path / "out"
    (tmp_path / "file").write_text("")
    # (argv, exit code, the last stderr line's start, stderr lines)
    argv, code, error, lines = {
        "sweep": (["sweep", "--n", "200", "--out", str(out)], 0, "", 0),
        "unsorted ratios": (["sweep", "--ratios", "0.5,0.1", "--out", str(out)], 1,
                            "error: ratios must be sorted ascending", 1),
        # argparse prints its usage line first
        "unknown option": (["sweep", "--bogus", "--out", str(out)], 2, "cdfair: error: ", 2),
        "out under a file": (["sweep", "--n", "200", "--out", str(tmp_path / "file" / "o")], 2,
                             "I/O error: ", 1),
    }[case]
    frozen = tmp_path / "freeze_count"
    proc = _python(
        "import atexit, gc, sys\n"
        f"atexit.register(lambda: open({str(frozen)!r}, 'w').write(str(gc.get_freeze_count())))\n"
        f"sys.argv = ['cdfair', *{argv!r}]\n"
        + ENTRIES[entry].format(target=_script_target())
    )
    assert proc.returncode == code, proc.stderr
    assert int(frozen.read_text()) > 0
    errors = proc.stderr.splitlines()
    assert len(errors) == lines and all(line.startswith(error) for line in errors[-1:])
    paths = sorted(out.glob("sweep_*.csv"))
    assert len(paths) == (6 if code == 0 else 0)
    assert sorted(proc.stdout.splitlines()) == [f"wrote {path}" for path in paths]
    assert all(len(path.read_text().splitlines()) == 12 for path in paths)


@pytest.mark.parametrize("command", ["generate", "evaluate", "report"])
def test_python_m_executes_the_cli_module_once(tmp_path, karate_report, command):
    # runpy executes cdfair/cli.py as __main__ and leaves cdfair.cli unimported;
    # a module that imported it would execute the file a second time
    data = ROOT / "tests" / "data"
    argv = {"generate": ["generate", "abcd", "--n", "300", "--c-min", "20", "--c-max", "60"],
            "evaluate": ["evaluate", "--graph", str(data / "karate.edges"),
                         "--gt", str(data / "karate.gt"), "--detector", "louvain"],
            "report": ["report", str(karate_report)]}[command]
    proc = _python(
        "import atexit, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules if m == 'cdfair.cli')))\n"
        f"sys.argv = ['cdfair', *{argv!r}, '--out', {str(tmp_path / 'out')!r}]\n"
        + ENTRIES["python -m cdfair.cli"]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_generate_loads_no_evaluate_pipeline(tmp_path):
    proc = _python(
        "import sys\n"
        "from cdfair.cli import main\n"
        "assert main(['generate', 'abcd', '--n', '300', '--c-min', '20', '--c-max', '60',\n"
        f"             '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('cdfair.')))"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert {"cdfair.synthgen", "cdfair.report"} <= set(loaded)
    pipeline = ("evaluate", "detectors", "bias", "quality", "groupfair")
    assert [m for m in loaded if m.removeprefix("cdfair.") in pipeline] == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.edges", "graph.gt", "graph.json"]


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


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="reads /proc/self/task; OpenBLAS starts no thread of its own on 1 CPU")
def test_evaluate_forks_its_workers_from_one_thread(tmp_path):
    # numpy loads OpenBLAS with a thread per CPU unless told otherwise, and
    # forking a multi-threaded process is unsafe (a DeprecationWarning from
    # CPython 3.12 on); cdfair makes no BLAS call, so it asks for one thread.
    # Two cells on two CPUs or more fork two workers
    data = ROOT / "tests" / "data"
    proc = _python(
        "import os\n"
        "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
        "threads, fork = [], os.fork\n"
        "def counted_fork():\n"
        "    threads.append(len(os.listdir('/proc/self/task')))\n"
        "    return fork()\n"
        "os.fork = counted_fork\n"
        "from cdfair.cli import main\n"
        f"assert main(['evaluate', '--graph', {str(data / 'karate.edges')!r},\n"
        f"             '--gt', {str(data / 'karate.gt')!r},\n"
        "             '--detector', 'louvain', '--detector', 'cnm',\n"
        f"             '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "print(threads)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[1, 1]"


def test_blas_threads_are_set_before_numpy_loads_and_a_set_value_is_kept():
    # `sweep --ratios x` fails before loading numpy
    proc = _python(
        "import os\n"
        "from cdfair.cli import main\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
        "assert main(['sweep', '--ratios', 'x']) == 1\n"
        "print(os.environ.pop('OPENBLAS_NUM_THREADS'))\n"
        "assert main(['sweep', '--ratios', 'x']) == 1\n"
        "print(os.environ.pop('OPENBLAS_NUM_THREADS'))\n"
        "import numpy\n"
        "assert main(['sweep', '--ratios', 'x']) == 1\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["2", "1", "None"]


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
    Every module-level function and class of ``src/cdfair`` is read
    somewhere in ``src/cdfair`` outside its own definition, as a name or an
    attribute, and every method not named ``__…__`` as an attribute: a local
    variable of the same name does not count. ``_KeepRecords.emit`` is
    exempt: ``logging`` calls it."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "cdfair").glob("*.py"))}
    reads = [(module, node.lineno, node.attr if isinstance(node, ast.Attribute) else node.id,
              isinstance(node, ast.Attribute))
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
            name == node.name and (attribute or "." not in qualname)
            and not (at == module and node.lineno <= line <= node.end_lineno)
            for at, line, name, attribute in reads)
    ]
    assert uncalled == []
