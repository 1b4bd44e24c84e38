"""Two-column text I/O shared by edge lists and partition files.

Both formats are token pairs separated by ASCII whitespace, one per line,
with blank lines and '#' or '%' comments allowed. ``read_rows`` is the one
reader: it takes a file's bytes and returns its token pairs, as integers
when the file is in the canonical form and as text otherwise, so each loader
has one parse path.
Checks that fail report the line number of the first offending line, and
``load_file`` puts the file's path and role before that. Writing
formats whole integer columns at once, in the canonical form that
``parse_rows`` reads back without one Python object per token.
"""

from __future__ import annotations

import io
import itertools
import re
from typing import Sequence

import numpy as np

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1
_MAX_DIGITS = 18  # every 18-digit value fits int64
_BLOCK = 1 << 18  # bytes per block of parse_rows
_SPACE = " \t\n\r\x0b\x0c"  # the token separators: what bytes.split() splits on
# the other characters that str.split() splits on
_OTHER_SPACE_RE = re.compile("[\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
                             "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000]")
_NOT_SPACE_RE = re.compile(f"[^{_SPACE}]+")


class InputError(ValueError):
    """A file's content that a loader rejects."""


def load_file(path: str, role: str, load):
    """``load`` applied to the bytes of the file at `path`.

    An InputError that ``load`` raises is raised again, of the same class,
    with its message prefixed by the path and the file's role in the run:
    ``g.gt (ground truth): line 3: …``. Bytes that are not UTF-8 raise an
    InputError with the same prefix and the decoder's message.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return load(data)
    except InputError as exc:
        raise type(exc)(f"{path} ({role}): {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} ({role}): {exc}") from None


def read_rows(data: bytes) -> tuple[Sequence[int], np.ndarray, str | None]:
    """The token pairs of a file's data lines, as ``read_pairs`` returns them.

    The (m, 2) tokens are int64 when the file is canonical (``parse_rows``),
    and otherwise the text tokens as an object array, which keeps each token
    whole (``"a\\x00"`` is not ``"a"``). The line numbers of canonical rows
    are ``range(1, m + 1)``, which takes no memory per row; callers only
    index them, to name a line in an error.
    """
    rows = parse_rows(data)
    if rows is not None:  # row r is line r + 1
        return range(1, len(rows) + 1), rows, None
    linenos, tokens, error = read_pairs(data)
    return linenos, np.array(tokens, dtype=object).reshape(-1, 2), error


def read_pairs(data: bytes) -> tuple[np.ndarray, list[str], str | None]:
    """Tokens of the data lines, two per line, in file order.

    Bytes are decoded as ``open(path, encoding="utf-8")`` reads a file:
    UTF-8, universal newlines; a byte order mark that opens the first line
    is dropped. Tokens are separated by the ASCII whitespace that
    ``bytes.split()`` splits on, so ``1\u00a02`` is one token. A line whose
    first token starts with ``#`` or ``%`` is a comment. Reading stops at the
    first line holding other than two tokens, which the error names; the
    lines before it are returned so the caller can check them first and
    report whichever problem comes first in the file. Returns ``(line number
    of each data line, flat token list, error or None)``.
    """
    lines = list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    if lines and lines[0].startswith("\ufeff"):  # a UTF-8 byte order mark
        lines[0] = lines[0][1:]
    text = " ".join(lines)  # a line need not end in a newline
    # str.split splits about twice as fast as the regex, and the same way
    # when the text holds none of the other spaces
    split = _NOT_SPACE_RE.findall if _OTHER_SPACE_RE.search(text) else str.split
    counts = np.fromiter(map(len, map(split, lines)), np.int64, len(lines))
    has_comments = "#" in text or "%" in text
    if has_comments:
        comment = np.fromiter((ln.lstrip(_SPACE).startswith(("#", "%")) for ln in lines),
                              bool, len(lines))
        counts[comment] = 0
    bad = np.flatnonzero((counts != 0) & (counts != 2))
    stop = int(bad[0]) if len(bad) else len(lines)
    error = f"line {stop + 1}: expected two tokens, got {counts[stop]}" if len(bad) else None
    paired = counts[:stop] == 2
    if has_comments or error is not None:
        text = " ".join(itertools.compress(lines[:stop], paired.tolist()))
    return np.flatnonzero(paired) + 1, split(text), error


def parse_rows(data: bytes) -> np.ndarray | None:
    """The integer pairs of canonical two-column text, or None for other text.

    Canonical text is what ``format_rows`` writes for two columns: every line
    is ``token SP token LF``, and every token is ``0`` or 1 to 18 digits
    without a leading zero. Such a token is ``str()`` of its value, so two
    tokens are equal exactly when their values are, and ``read_pairs`` +
    ``parse_ints`` give the same values. Row r of the (m, 2) int64 result is
    line r + 1. Any other input, an empty one included, gives None.

    The bytes are parsed in blocks of about ``_BLOCK`` bytes, each ending
    after a newline, into one result array sized from the newline count, so
    besides its input and result the parse holds only one block's
    temporaries. A line never spans two blocks, so checking each block
    checks the file.
    """
    if not data.endswith(b"\n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    values = np.empty(2 * np.count_nonzero(buf == ord("\n")), dtype=np.int64)
    start = done = 0
    while start < len(data):
        stop = data.index(b"\n", min(start + _BLOCK, len(data)) - 1) + 1
        count = _parse_block(buf[start:stop], values[done:])
        if count is None:
            return None
        start, done = stop, done + count
    return values.reshape(-1, 2)


def _parse_block(buf: np.ndarray, out: np.ndarray) -> int | None:
    """Parse canonical lines ending in a newline into the front of `out`;
    the number of values written, or None when the lines are not canonical."""
    ends = np.flatnonzero(buf - np.uint8(ord("0")) >= 10)  # the byte after each token
    seps = buf[ends]
    if len(ends) % 2 or (seps[0::2] != ord(" ")).any() or (seps[1::2] != ord("\n")).any():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    if lengths.min() < 1 or lengths.max() > _MAX_DIGITS:
        return None
    if ((buf[starts] == ord("0")) & (lengths > 1)).any():  # a leading zero
        return None
    # right-aligned Horner over the token columns; a token shorter than the
    # column reads as a leading "0", so every token gains the same offset
    width = int(lengths.max())
    padded = np.concatenate([np.zeros(width, dtype=np.uint8), buf])  # no index below 0
    values = out[: len(ends)]
    values[:] = 0
    for j in range(width, 0, -1):  # the j-th byte before each token's end
        values *= 10
        values += np.where(lengths >= j, padded[ends + (width - j)], ord("0"))
    values -= ord("0") * int("1" * width)
    return len(ends)


def parse_ints(tokens: np.ndarray | list[str]) -> tuple[np.ndarray, int | None]:
    """The values of node-id tokens, up to the first token that is not one.

    A node id is ASCII digits after an optional ``-``, so ``1_0``, ``+3``
    and ``\u0663`` (which ``int()`` reads as 10, 3 and 3) are not. ``tokens``
    holds text tokens, or the int64 tokens of ``read_rows``, which are
    returned as they are. Returns the values as int64 (clipped to its range)
    and the index of the first token that is not a node id, or None when
    every token is one.
    """
    if isinstance(tokens, np.ndarray) and tokens.dtype == np.int64:
        return tokens, None
    stop = _first_non_id(tokens)
    ids = tokens[:stop]
    try:
        return np.asarray(ids, dtype=np.int64), stop
    except (ValueError, OverflowError):
        pass
    values = []
    for tok in ids:
        try:
            values.append(min(max(int(tok), _I64_MIN), _I64_MAX))
        except ValueError:  # more digits than int() converts
            return np.array(values, dtype=np.int64), len(values)
    return np.array(values, dtype=np.int64), stop


def _first_non_id(tokens) -> int | None:
    """Index of the first text token that is not a node id, or None."""
    # the UTF-8 bytes of the tokens, which hold no space, with a space
    # before and after each
    buf = np.frombuffer(f" {' '.join(tokens)} ".encode(), dtype=np.uint8)
    digit = buf - np.uint8(ord("0")) < 10
    bad = ~digit & (buf != ord(" "))
    minus = np.flatnonzero(buf == ord("-"))  # allowed first in a token, before a digit
    bad[minus] = (buf[minus - 1] != ord(" ")) | ~digit[minus + 1]
    at = first_true(bad)
    return None if at is None else int(np.count_nonzero(buf[:at] == ord(" "))) - 1


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
