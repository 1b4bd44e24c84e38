"""Two-column text I/O shared by edge lists and partition files.

Both formats are whitespace-separated token pairs, one per line, with blank
lines and '#' comments allowed. Parsing is done over the whole file at once;
checks that fail report the line number of the first offending line. Writing
formats whole integer columns at once too.
"""

from __future__ import annotations

import itertools
from typing import Iterable, TextIO

import numpy as np

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def read_pairs(source: TextIO | Iterable[str]) -> tuple[np.ndarray, list[str], tuple[int, int] | None]:
    """Tokens of the data lines, two per line, in file order.

    Reading stops at the first line holding other than two tokens, which is
    returned as ``(line number, token count)``; the lines before it are
    returned so the caller can check them first and report whichever problem
    comes first in the file. A byte order mark that opens the first line is
    dropped. Returns ``(line number of each data line, flat token list,
    malformed line or None)``.
    """
    lines = list(source)
    if lines and lines[0].startswith("\ufeff"):  # a UTF-8 byte order mark
        lines[0] = lines[0][1:]
    text = " ".join(lines)  # a line need not end in a newline
    counts = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    has_comments = "#" in text
    if has_comments:
        comment = np.fromiter((ln.lstrip().startswith("#") for ln in lines), bool, len(lines))
        counts[comment] = 0
    bad = np.flatnonzero((counts != 0) & (counts != 2))
    stop = int(bad[0]) if len(bad) else len(lines)
    malformed = (stop + 1, int(counts[stop])) if len(bad) else None
    data = counts[:stop] == 2
    if has_comments or malformed is not None:
        text = " ".join(itertools.compress(lines[:stop], data.tolist()))
    return np.flatnonzero(data) + 1, text.split(), malformed


def parse_ints(tokens: list[str]) -> tuple[np.ndarray, int | None]:
    """``int()`` of each token, up to the first token it rejects.

    Returns the values as int64 (clipped to its range) and the index of the
    first non-integer token, or None when every token is an integer.
    """
    try:  # numpy parses each string with int()'s rules
        return np.array(tokens, dtype=np.int64), None
    except (ValueError, OverflowError):
        pass
    values = []
    for tok in tokens:
        try:
            values.append(min(max(int(tok), _I64_MIN), _I64_MAX))
        except ValueError:
            break
    bad = len(values) if len(values) < len(tokens) else None
    return np.array(values, dtype=np.int64), bad


def first_true(mask: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def format_rows(*columns: np.ndarray) -> str:
    """One line per row: the columns' decimal values, space-separated.

    The columns are non-negative integer arrays of one length. Each value is
    written as ``str()`` writes it, without building one string per value:
    the digits of every row go into one byte matrix, column after column,
    with a separator byte after each (a space, and a newline after the last).
    Leading zeros are masked out, and the kept bytes, read row by row, are
    the text.
    """
    if len(columns[0]) == 0:
        return ""
    widths = [len(str(int(col.max()))) for col in columns]
    chars = np.full((len(columns[0]), sum(widths) + len(widths)), ord(" "), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    start = 0
    for col, width in zip(columns, widths):
        rest = np.asarray(col, dtype=np.int64)
        for j in range(start + width - 1, start, -1):  # every digit but the first
            rest, digit = np.divmod(rest, 10)
            chars[:, j] = digit + ord("0")
            keep[:, j - 1] = rest > 0  # the digit before j unless it is a leading zero
        chars[:, start] = rest + ord("0")
        start += width + 1
    chars[:, -1] = ord("\n")
    return chars[keep].tobytes().decode("ascii")
