"""Every command's `--out` files land together or not at all.

Numpy-free and json-free, so a sweep, which writes through `staged`, loads
neither.
"""

from __future__ import annotations

import contextlib
import errno
import os
from pathlib import Path


@contextlib.contextmanager
def staged(out_dir):
    """Yield `place(name)`: the path to write `out_dir/name` to, in a fresh
    `out_dir/.cdfair-partial-<pid>/` (or `-<pid>-1`, `-<pid>-2`, ... where a
    killed run left one), once its directory is made and no directory stands
    in its place. The files are moved into place, in the order placed, when
    the block ends; a failure before then removes every path this call made,
    so `out_dir` is left as it was.

    The last file placed is taken as the index of the others, as report.json
    and a generated graph's <prefix>.json are. Its old copy is removed before
    the first file moves, so an index in `out_dir` always lists the files
    beside it, even after a failure while they move."""
    out = Path(out_dir)
    made = [p for p in (*reversed(out.parents), out) if not os.path.lexists(p)]
    dests: list[Path] = []

    def place(name: str) -> Path:
        dest = out / name
        if not os.path.lexists(dest.parent):
            made.append(dest.parent)
            dest.parent.mkdir()
        if not dest.parent.is_dir():  # a file where a directory goes
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(dest))
        if dest.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(dest))
        dests.append(dest)
        made.append(staging / str(len(dests)))
        return made[-1]

    try:
        out.mkdir(parents=True, exist_ok=True)
        staging = base = out / f".cdfair-partial-{os.getpid()}"
        tries = 0
        while True:
            try:
                staging.mkdir()
                break
            except FileExistsError:  # a killed run's, with this pid
                tries += 1
                staging = base.with_name(f"{base.name}-{tries}")
        made.append(staging)
        yield place
        if dests:
            with contextlib.suppress(FileNotFoundError):
                os.remove(dests[-1])
        for i, dest in enumerate(dests, 1):
            os.replace(staging / str(i), dest)
        staging.rmdir()
    except BaseException:
        for path in reversed(made):  # children first; a directory goes only when empty
            with contextlib.suppress(OSError):
                path.rmdir() if path.is_dir() else path.unlink()
        raise
