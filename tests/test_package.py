"""The import surface: ``import cdfair`` loads nothing else, and README's
library example runs as written.

Each check runs in a fresh interpreter with `src/` on its import path, since
this test process has imported every module already.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    proc = _python(blocks[0])
    assert proc.returncode == 0, proc.stderr
    ib_g, mean_ib, nmi = map(float, proc.stdout.split())
    assert 0.0 <= ib_g <= 0.5 and 0.0 <= mean_ib < 1.0 and 0.0 <= nmi <= 1.0
