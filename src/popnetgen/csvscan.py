"""Both directions of the CSV byte format, with numpy, a block at a time.

Writing: ``format_rows`` turns rows of int columns, categorical columns and
literal separators into UTF-8 bytes, ``WRITE_BLOCK`` rows per block, with
no Python object per row.  Reading: ``scan`` parses a plain file, one whose
every line ends in '\\n' or '\\r\\n' and whose every id field is written as
``str`` writes an int of at most 18 digits.  The readers in ``export`` send
any other file to their line-by-line tier.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

READ_BLOCK = 1 << 18  # characters per block
WRITE_BLOCK = 1 << 14  # rows per block
_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)  # an int64 has at most 19 digits


def _padded(labels: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The labels as the rows of a zero-padded uint8 table, and their lengths."""
    table = np.array(labels, "S")
    sizes = np.array([len(label) for label in labels], np.int64)
    return table.view(np.uint8).reshape(len(labels), table.itemsize), sizes


def format_rows(parts: Sequence) -> Iterator[np.ndarray]:
    """The rows made of ``parts`` as uint8 arrays of UTF-8 bytes, up to
    ``WRITE_BLOCK`` rows each.  A part is a column of non-negative int64
    values, written in decimal; a (codes, labels) column, each row's code
    picking one of the byte strings ``labels``; or bytes, the same in every
    row.  Each row places a part right after the one before it.  The column
    parts all hold one value per row."""
    columns = [  # (values, label table); None values for bytes, no table for decimal
        (None, _padded([part])) if isinstance(part, bytes)
        else (part[0], _padded(part[1])) if isinstance(part, tuple) else (part, None)
        for part in parts
    ]
    rows = len(next(values for values, _ in columns if values is not None))
    for lo in range(0, rows, WRITE_BLOCK):
        cells = []
        for values, table in columns:
            values = 0 if values is None else values[lo:lo + WRITE_BLOCK]
            if table is None:
                cells.append((values, 1 + np.searchsorted(_POWERS, values, "right"), table))
            else:
                cells.append((values, table[1][values], table))
        width = sum(size for _, size, _ in cells)
        at = np.cumsum(width) - width  # where each row starts
        block = np.empty(int(width.sum()), np.uint8)
        for values, size, table in cells:
            _place(block, at, values, size, table)
            at += size
        yield block


def _place(block: np.ndarray, at: np.ndarray, values, size, table) -> None:
    """Write one part of every row, ``size`` bytes from ``at``: without a
    label table the values in decimal, one digit position per pass from the
    last; with one the codes' labels, one byte position per pass."""
    if table is None:
        at = at + size - 1
        while len(at):
            values, digit = np.divmod(values, 10)
            block[at] = digit + ord("0")
            keep = values > 0
            at, values = at[keep] - 1, values[keep]
        return
    for k in range(table[0].shape[1]):
        keep = size > k
        if not keep.all():
            at, values, size = at[keep], values[keep], size[keep]
        block[at + k] = table[0][values, k]


class _NotPlain(Exception):
    """A file that the byte parser leaves to the line-by-line reader."""


def plain_header(text: str) -> tuple[list[str], int]:
    """The first line's fields and where the next line starts; _NotPlain
    when some line ends in a break ``str.splitlines`` takes other than '\\n'
    or '\\r\\n'."""
    if any(c in text for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029") or (
        "\r" in text and text.count("\r") != text.count("\r\n")
    ):
        raise _NotPlain
    stop = text.find("\n") + 1 or len(text)
    return text[:stop].removesuffix("\n").removesuffix("\r").split(","), stop


def _ids(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int64 values of the fields ``b[lo:hi]`` by Horner's rule, one pass
    per digit position, right-aligned; _NotPlain unless each is an optional
    '-' and 1-18 digits without a leading zero, "0" excepted."""
    neg = b[lo] == ord("-")
    size = hi - lo - neg
    if not ((size >= 1) & (size <= 18) & ((b[lo + neg] != ord("0")) | (size == 1) & ~neg)).all():
        raise _NotPlain
    value = np.zeros(len(lo), np.int64)
    for k in range(int(size.max(initial=0)), 0, -1):
        digit = (b[hi - k] - np.uint8(ord("0"))) * (size >= k)
        if (digit > 9).any():
            raise _NotPlain
        value = value * 10 + digit
    return np.where(neg, -value, value)


def _run_starts(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Rows whose field ``b[lo:hi]`` differs from the row before's, row 0
    included; equal-length pairs are compared one byte position at a time."""
    size = hi - lo
    same = np.zeros(len(lo), bool)
    pairs = np.flatnonzero(size[1:] == size[:-1]) + 1
    k = 0
    while len(pairs):
        ended = size[pairs] == k
        same[pairs[ended]] = True
        pairs = pairs[~ended]
        pairs = pairs[b[lo[pairs] + k] == b[lo[pairs - 1] + k]]
        k += 1
    return np.flatnonzero(~same)


def scan(text: str, start: int, width: int, ids: Sequence[int], name: int = -1):
    """Rows of ``text[start:]``, blank ones skipped, parsed as UTF-8 bytes a
    block at a time: an int64 (rows, len(ids)) array of the ``ids`` fields,
    each row's field ``name`` as an index into the names in the order they
    first appear, and those names.  _NotPlain unless every row has
    ``width`` fields and every id is as ``_ids`` reads it."""
    blocks, kinds, code = [np.empty((0, len(ids)), np.int64)], [np.empty(0, np.intp)], {}
    while start < len(text):
        stop = text.find("\n", start + READ_BLOCK - 1) + 1 or len(text)
        data = text[start:stop].encode() + b"\n"  # a blank row if it ended in one
        start = stop
        b = np.frombuffer(data, np.uint8)
        ends = np.flatnonzero(b == ord("\n"))
        begins = np.concatenate(([0], ends[:-1] + 1))
        ends -= (ends > begins) & (b[ends - 1] == ord("\r"))
        begins, ends = begins[ends > begins], ends[ends > begins]
        # With width - 1 commas per row in all, each row holds its own iff
        # they ascend from its start to its end.
        commas = np.flatnonzero(b == ord(","))
        if len(commas) != len(begins) * (width - 1):
            raise _NotPlain
        bounds = np.column_stack([begins - 1, commas.reshape(len(begins), width - 1), ends])
        if (np.diff(bounds) <= 0).any():
            raise _NotPlain
        blocks.append(np.column_stack([_ids(b, bounds[:, k] + 1, bounds[:, k + 1]) for k in ids]))
        if name >= 0:
            lo, hi = bounds[:, name] + 1, bounds[:, name + 1]
            runs = _run_starts(b, lo, hi)
            run_codes = [code.setdefault(data[lo[j]:hi[j]].decode(), len(code)) for j in runs]
            kinds.append(np.repeat(np.array(run_codes, np.intp), np.diff(runs, append=len(lo))))
    return np.concatenate(blocks), np.concatenate(kinds), list(code)
