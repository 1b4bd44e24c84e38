"""Two-column text I/O shared by edge lists and partition files.

Both formats are UTF-8 text of token pairs, one per line, with blank lines
and '#' or '%' comments allowed. Tokens are separated by runs of the six
ASCII whitespace bytes, which ``bytes.split()`` splits on; lines end in LF,
CRLF or a lone CR, and a leading byte order mark is dropped, as ``open(path,
encoding="utf-8")`` reads a file. ``read_rows`` is the one reader, into one
int64 array of token values. Checks that fail report the line number of the
first offending line (``column``), and ``load_file`` puts the file's path
and role before that. Writing formats whole integer columns at once, in the
canonical form that ``read_rows`` parses fastest, through one byte matrix of
digits (``digit_matrix``), which also gives bias CSVs their node ids.
"""

from __future__ import annotations

import numpy as np

_MAX_DIGITS = 18  # every 18-digit value fits int64
_BLOCK = 1 << 18  # bytes per block of read_rows
NOT_ID = -(2**63)  # the value of a token that is not a node id; no id has it
_COMMENT = np.frombuffer(b"#%", dtype=np.uint8)  # the first byte of a comment line


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


def read_rows(data: bytes) -> tuple[np.ndarray, str | None, np.ndarray]:
    """``(values, error, canonical)`` of a file's bytes, parsed block by block
    (``_blocks``) into one array sized once from the line count. Values is
    (m, 2) int64: the two tokens of each data line as node ids, ASCII digits
    after an optional ``-`` clipped to ±(2**63 - 1), or ``NOT_ID`` for a
    token that is no id or has more digits than ``int()`` reads. Error
    names the first line of neither none nor two tokens, ``line L: expected
    two tokens, got C``, or is None; the rows stop before that line.
    Canonical[c] tells whether every token of column c is canonical
    (``_parse_block``, the shortcut a canonical block takes). Bytes that
    are not UTF-8 raise ``data.decode()``'s error."""
    if not data.isascii():
        data.decode()  # offsets in its error count every byte, a byte order mark too
    buf = np.frombuffer(data, dtype=np.uint8)
    # every LF and lone CR ends a line, and a last line may end without one
    size = data.count(b"\n") + (data[-1:] not in b"\r\n")
    if b"\r" in data:
        after = np.take(buf, np.flatnonzero(buf == ord("\r")) + 1, mode="clip")
        size += np.count_nonzero(after != ord("\n"))
    flat = np.empty(2 * size, dtype=np.int64)
    canonical, error, done, before = np.ones(2, dtype=bool), None, 0, 0  # rows, lines done
    for start, stop in _blocks(data):
        block = buf[start:stop]
        # only a block that ends in a digit and LF and holds no tab can be canonical
        canonical_bytes = (data[stop - 2 : stop - 1].isdigit() and data[stop - 1 : stop] == b"\n"
                           and data.find(b"\t", start, stop) < 0)
        rows = _parse_block(block, flat[2 * done :]) if canonical_bytes else None
        if rows is not None:  # a canonical block holds a row on every line
            done, before = done + rows, before + rows
            continue
        starts, ends, rows, bad, counts = _split(block)
        out = flat[2 * done : 2 * done + len(starts)]
        canonical &= _parse_ids(block, starts, ends, out).reshape(-1, 2).all(axis=0)
        done += len(rows)
        if bad is not None:
            error = f"line {before + bad + 1}: expected two tokens, got {counts[bad]}"
            break
        before += len(counts)
    return flat[: 2 * done].reshape(-1, 2), error, canonical


def column(data: bytes, col: int) -> tuple[np.ndarray, list[bytes]]:
    """The line number of each data row, and the bytes of its token in
    column `col`, found by splitting the file again (``read_rows(data)``'s
    rows come first): to word an error, or to tell tokens apart by their
    bytes, which for UTF-8 tells them apart by their text."""
    buf, lines, tokens, before = np.frombuffer(data, dtype=np.uint8), [], [], 1
    for start, stop in _blocks(data):
        starts, ends, rows, _, counts = _split(buf[start:stop])
        lines.append(rows + before)
        tokens += map(data.__getitem__, map(slice, (starts[col::2] + start).tolist(),
                                            (ends[col::2] + start).tolist()))
        before += len(counts)
    return np.concatenate(lines or [np.zeros(0, dtype=np.int64)]), tokens


def _blocks(data: bytes):
    """(start, stop) of blocks of about ``_BLOCK`` bytes after a leading byte
    order mark, each ending after a LF or a lone CR: no line or CRLF spans two."""
    start, lf = (3 if data.startswith(b"\xef\xbb\xbf") else 0), -1
    while start < len(data):
        at = min(start + _BLOCK, len(data)) - 1
        if lf < at:  # the first LF from `at` on, or len(data) when there is none
            lf = data.find(b"\n", at) % (len(data) + 1)
        cr = data.find(b"\r", at, lf)
        stop = cr + 1 if 0 <= cr < lf - 1 else lf + 1
        yield start, stop
        start = stop


def _parse_block(buf: np.ndarray, out: np.ndarray) -> int | None:
    """Parse canonical lines into the front of `out`; their number, or None
    when the lines are not canonical: ``token SP token LF`` each, every
    token ``0`` or 1 to 18 digits without a leading zero, as ``format_rows``
    writes them. Such a token is ``str()`` of its value, so two tokens are
    equal exactly when their values are."""
    ends = np.flatnonzero(buf - np.uint8(ord("0")) >= 10)  # the byte after each token
    seps = buf[ends]
    if len(ends) % 2 or (seps[0::2] != ord(" ")).any() or (seps[1::2] != ord("\n")).any():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    if (lengths.min() < 1 or lengths.max() > _MAX_DIGITS
            or ((buf[starts] == ord("0")) & (lengths > 1)).any()):  # a leading zero
        return None
    _digits(buf, ends, lengths, out[: len(ends)])
    return len(ends) // 2


def _split(block: np.ndarray):
    """The data lines of a block of whole lines: (their tokens' starts and
    ends, two per line; their indices; index of the first line of neither
    none nor two tokens, before which they stop, or None; token counts)."""
    lf = block == ord("\n")
    eol = lf | (block == ord("\r")) & ~np.append(lf[1:], False)  # a CR before LF is a space
    bounds = np.flatnonzero(np.diff(~_space(block), prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    line_ends = np.flatnonzero(eol)
    lines = len(line_ends) + (not eol[-1])
    if (len(starts) == 2 * lines and (ends[1::2][: len(line_ends)] <= line_ends).all()
            and (starts[2::2] > line_ends[: lines - 1]).all()
            and not np.isin(block[starts[0::2]], _COMMENT).any()):
        return starts, ends, np.arange(lines), None, np.full(lines, 2)  # two tokens a line
    line = np.searchsorted(line_ends, starts)  # the line of each token
    counts = np.bincount(line, minlength=lines)
    head = np.diff(line, prepend=-1) > 0  # the first token of each line
    counts[line[head & np.isin(block[starts], _COMMENT)]] = 0
    bad = first_true((counts != 0) & (counts != 2))
    data_line = (counts == 2) & (np.arange(lines) < (lines if bad is None else bad))
    keep = data_line[line]
    return starts[keep], ends[keep], np.flatnonzero(data_line), bad, counts


def _parse_ids(block: np.ndarray, starts: np.ndarray, ends: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """Write the tokens' values into `out`, as ``read_rows`` returns them;
    whether each token is canonical."""
    neg = block[starts] == ord("-")
    first = starts + neg  # the first digit
    width = ends - first
    is_id = width > 0
    # the bytes in tokens that are neither digits nor a sign before them
    other = np.flatnonzero((block - np.uint8(ord("0")) >= 10) & ~_space(block))
    tok = np.searchsorted(starts, other, side="right") - 1
    inside = (tok >= 0) & (other < np.append(ends, 0)[tok]) & (other >= np.append(first, 0)[tok])
    is_id[tok[inside]] = False
    _digits(block, ends, np.where(is_id & (width <= _MAX_DIGITS), width, 0), out)
    for k in np.flatnonzero(is_id & (width > _MAX_DIGITS)).tolist():  # rare: Python reads them
        try:
            out[k] = min(int(block[first[k] : ends[k]].tobytes()), 2**63 - 1)
        except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits)
            is_id[k] = False
    out[neg] *= -1
    out[~is_id] = NOT_ID
    leading_zero = (np.take(block, first, mode="clip") == ord("0")) & (width > 1)
    return is_id & ~neg & (width <= _MAX_DIGITS) & ~leading_zero


def _space(block: np.ndarray) -> np.ndarray:
    """Which bytes separate tokens: space, and tab, LF, VT, FF, CR (9-13)."""
    return (block == ord(" ")) | (block - np.uint8(9) < 5)


def _digits(buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray, out: np.ndarray) -> None:
    """Write into `out` the value of the ``lengths[i]`` digits before ``ends[i]``."""
    # right-aligned Horner over the token columns; a token shorter than the
    # column reads as a leading "0", so every token gains the same offset
    width = int(lengths.max(initial=0))
    padded = np.concatenate([np.zeros(width, dtype=np.uint8), buf])  # no index below 0
    out[:] = 0
    for j in range(width, 0, -1):  # the j-th byte before each token's end
        out *= 10
        out += np.where(lengths >= j, padded[ends + (width - j)], ord("0"))
    out -= ord("0") * ((10**width - 1) // 9)


def first_true(mask: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def digit_matrix(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(chars, keep)``: the decimal digits of non-negative integer columns
    of one non-zero length, one byte row per row, without building one string
    per value. Each column's digits are right-aligned in a field as wide as
    its largest value, followed by one separator byte, a space; `keep` masks
    out the leading zeros, so the kept bytes of a row, read in order, are its
    values as ``str()`` writes them, each followed by its separator."""
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
    return chars, keep


def format_rows(*columns: np.ndarray) -> str:
    """One line per row: the columns' decimal values, space-separated, as
    ``str()`` writes them; the kept bytes of ``digit_matrix``, with a newline
    for the last separator."""
    if len(columns[0]) == 0:
        return ""
    chars, keep = digit_matrix(*columns)
    chars[:, -1] = ord("\n")
    return chars[keep].tobytes().decode("ascii")
