"""Rewrite tests/golden/manifest.json from the runs that tests/test_golden.py
checks, in one process, serially.

    python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cdfair import evaluate  # noqa: E402
from test_golden import MANIFEST, run_digests  # noqa: E402

evaluate._worker_count = lambda cells: 1
os.chdir(ROOT)
with tempfile.TemporaryDirectory() as out:
    digests = run_digests(Path(out))
MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
print(f"wrote {len(digests)} digests to {MANIFEST.relative_to(ROOT)}")
