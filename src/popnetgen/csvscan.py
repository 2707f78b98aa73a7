"""Both directions of the CSV byte format, with numpy, a block at a time.

Writing: ``format_rows`` turns rows of int columns, categorical columns and
literal separators into UTF-8 bytes, ``WRITE_BLOCK`` rows per block, with
no Python object per row.  Reading: ``scan`` parses the rows of a file
whose lines end at '\\n', one '\\r' before it dropped, and refuses the
first row, by its line, that has the wrong number of fields or an id field
not written as ``str`` writes an int of at most 18 digits.  popnetgen
writes no other file, so no other reader is needed.
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


def header(text: str) -> tuple[list[str], int]:
    """The first line's fields and where the next line starts."""
    stop = text.find("\n") + 1 or len(text)
    return text[:stop].removesuffix("\n").removesuffix("\r").split(","), stop


def _ids(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 values of the fields ``b[lo:hi]`` by Horner's rule, one pass
    per digit position, right-aligned, and whether each is written as
    ``str`` writes an int of 1-18 digits: an optional '-', then digits
    without a leading zero, "0" excepted."""
    neg = b[lo] == ord("-")
    size = hi - lo - neg
    ok = (size >= 1) & (size <= 18) & ((b[lo + neg] != ord("0")) | (size == 1) & ~neg)
    value = np.zeros(len(lo), np.int64)
    for k in range(min(int(size.max(initial=0)), 18), 0, -1):
        digit = (b[hi - k] - np.uint8(ord("0"))) * (size >= k)
        ok &= digit <= 9
        value = value * 10 + digit
    return np.where(neg, -value, value), ok


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


def _bounds(begins: np.ndarray, ends: np.ndarray, commas: np.ndarray, width: int):
    """Field bounds of rows that hold ``width - 1`` of ``commas`` each, in turn."""
    rows = len(begins)
    return np.column_stack([begins - 1, commas[:rows * (width - 1)].reshape(rows, width - 1), ends])


def scan(text: str, start: int, width: int, ids: Sequence[int], name: int = -1,
         numbered: bool = False):
    """Rows of ``text[start:]``, blank ones skipped, parsed as UTF-8 bytes a
    block at a time: an int64 (rows, len(ids)) array of the ``ids`` fields,
    each row's field ``name`` as an index into the names in the order they
    first appear, and those names.  A line ends at '\\n', one '\\r' before
    it dropped.  ValueError('<line>: <problem>'), by the line of ``text``,
    at the first row that has other than ``width`` fields, an id that
    ``_ids`` refuses or, when ``numbered``, a first id other than the row's
    number from 0."""
    blocks, kinds, code = [np.empty((0, len(ids)), np.int64)], [np.empty(0, np.intp)], {}
    while start < len(text):
        stop = text.find("\n", start + READ_BLOCK - 1) + 1 or len(text)
        data = text[start:stop].encode() + b"\n"  # a blank row if it ended in one
        b = np.frombuffer(data, np.uint8)
        ends = np.flatnonzero(b == ord("\n"))
        begins = np.concatenate(([0], ends[:-1] + 1))
        ends -= (ends > begins) & (b[ends - 1] == ord("\r"))
        begins, ends = begins[ends > begins], ends[ends > begins]
        # With width - 1 commas per row in all, each row holds its own iff
        # they ascend from its start to its end.  Else the rows before the
        # first with another count do.
        commas = np.flatnonzero(b == ord(","))
        fit = len(begins)
        bounds = _bounds(begins, ends, commas, width) if len(commas) == fit * (width - 1) else None
        if bounds is None or (np.diff(bounds) <= 0).any():
            fields = np.searchsorted(commas, ends) - np.searchsorted(commas, begins) + 1
            fit = int(np.argmax(fields != width))
            bounds = _bounds(begins[:fit], ends[:fit], commas, width)
        values, oks = zip(*(_ids(b, bounds[:, k] + 1, bounds[:, k + 1]) for k in ids))
        ok = np.logical_and.reduce(oks)
        if numbered:  # row j of the block carries j plus the rows of earlier blocks
            ok = ok & (values[0] == np.arange(fit) + sum(map(len, blocks)))
        if fit < len(begins) or not ok.all():
            row = fit if ok.all() else int(np.argmin(ok))
            line = 1 + text.count("\n", 0, start) + data.count(b"\n", 0, begins[row])
            if row == fit:
                raise ValueError(f"{line}: expected {width} fields, got {fields[row]}")
            spelled = [good[row] for good in oks]
            k = ids[int(np.argmin(spelled))]  # the first id spelled wrong, else the first
            token = data[bounds[row, k] + 1:bounds[row, k + 1]].decode()
            raise ValueError(f"{line}: agent id {token!r}" + (
                f", expected {row + sum(map(len, blocks))}" if all(spelled)
                else " is not a decimal integer of 1-18 digits without a leading zero"))
        blocks.append(np.column_stack(values))
        if name >= 0:
            lo, hi = bounds[:, name] + 1, bounds[:, name + 1]
            runs = _run_starts(b, lo, hi)
            run_codes = [code.setdefault(data[lo[j]:hi[j]].decode(), len(code)) for j in runs]
            kinds.append(np.repeat(np.array(run_codes, np.intp), np.diff(runs, append=len(lo))))
        start = stop
    return np.concatenate(blocks), np.concatenate(kinds), list(code)
