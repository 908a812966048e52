"""Structured emission of result rows as CSV, JSON records, or a plain table.

All three formats carry the same formatted numeric strings: numbers are
rendered once (default 6 significant digits, the table convention) and the
rendered token is inserted verbatim into CSV cells and JSON values, so
emissions of the same command are numerically identical and byte-reproducible.

A table is a ``LazyTable``: a header and tuple rows, made afresh on each pass
so that they need not be held.  CSV and JSON make one pass; plain makes two,
the first to measure column widths.  Rows are written one at a time.
Integers (ints and integral Decimals) are rendered only as their row is
written; plain measures their column widths by digit count, so a table of huge
integers is never held as text.  Integral Decimals print in time linear in
their length and without Python's 4300-digit limit on int -> str; other cells
that meet it print with it lifted.
"""

from __future__ import annotations

import sys
import threading
from collections.abc import Callable, Iterator, Sequence
from decimal import Decimal
from itertools import islice

import mpmath

from .errors import DomainError
from .mpreal import decimal_length

FORMATS = ("plain", "csv", "json")
DEFAULT_SIGNIFICANT_DIGITS = 6
_INTEGERS = (int, Decimal)  # exact types: a bool renders as true/false
_INTEGER_TYPES = frozenset(_INTEGERS)  # a row of these prints with one %-format
_UNIT = Decimal(1)  # the same quantum as this is exponent 0: str prints every digit, no point or exponent
_CSV_SPECIAL = (",", '"', "\r", "\n")  # a cell holding one may need csv.writer's quoting
_LIMIT_LOCK = threading.Lock()
_WIDTH_SLICE = 256  # rows measured at a time by plain's width pass


def _unlimited(convert, *args) -> str:
    """convert(*args), retried with Python's int -> str digit limit lifted where it raises.

    str of an int past 4300 digits raises, and so does mpmath 1.3's nstr of a
    real with a mantissa past ~14,300 bits and an exponent past 3500 bits.
    Only the retry lifts the limit, under a lock; int parsing stays guarded outside it.
    """
    try:
        return convert(*args)
    except ValueError:
        with _LIMIT_LOCK:
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                return convert(*args)
            finally:
                sys.set_int_max_str_digits(limit)


def _render(value, significant: int, json_mode: bool) -> str:
    """Render one cell.

    Integers print exactly; floats and arbitrary-precision reals go through
    mpmath's shortest-form printer at the given significant digits, which is
    deterministic for a given input.
    """
    if value is None:
        return "null" if json_mode else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, _INTEGERS):
        return _unlimited(str, value)
    if isinstance(value, str):
        if not json_mode:
            return value
        import json

        return json.dumps(value)
    return _unlimited(mpmath.nstr, value, significant)


def _integer_width(n) -> int:
    """Printed length of an int or integral Decimal, from its digit count."""
    if isinstance(n, Decimal):
        return n.adjusted() + 1 + n.is_signed()
    digits = decimal_length(n)  # exact, or one above
    return digits - (digits > 1 and abs(n) < 10 ** (digits - 1)) + (n < 0)


def _column_width(header: str, column) -> int:
    """Width of a plain column of rendered text and integers.

    Integers are not rendered: the widest is the largest or the smallest.  A
    Decimal off exponent 0 (1E+5, 2.50) prints in that form: its column is measured as text.
    """
    types = set(map(type, column))
    if Decimal in types and not all(c.same_quantum(_UNIT) for c in column if type(c) is Decimal):
        return max(len(header), *(len(c if type(c) is str else _unlimited(str, c)) for c in column))
    if _INTEGER_TYPES.issuperset(types):
        return max(len(header), _integer_width(max(column)), _integer_width(min(column)))
    width = max(len(header), max((len(c) for c in column if type(c) is str), default=0))
    integers = [c for c in column if type(c) is not str]
    if integers:
        width = max(width, _integer_width(max(integers)), _integer_width(min(integers)))
    return width


def _csv_row_writer(out):
    """cells -> one csv line on out, the bytes csv.writer writes.

    A row csv.writer would not quote, no cell holding a comma, quote, CR or
    LF and not one empty cell, is joined directly; csv.writer is loaded only
    for the rest.
    """
    writer = None

    def write(cells):
        nonlocal writer
        if cells != [""] and not any(c in cell for cell in cells for c in _CSV_SPECIAL):
            out.write(",".join(cells) + "\n")
            return
        if writer is None:
            import csv

            writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cells)

    return write


class LazyTable:
    """``length`` rows under the header ``keys``, made afresh on each pass by ``make_rows()`` as tuples."""

    def __init__(self, keys: Sequence[str], length: int, make_rows: Callable[[], Iterator[tuple]]):
        self.keys = list(keys)
        self._length = length
        self._make_rows = make_rows

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[tuple]:
        return self._make_rows()


def emit_rows(rows: LazyTable, kind: str, significant: int, out) -> None:
    """Write a table to the text stream ``out`` in the requested format.

    Anything but a ``LazyTable`` raises TypeError: a one-shot iterator would
    lose its rows to plain format's first pass.
    """
    if kind not in FORMATS:
        raise DomainError(f"unknown output format {kind!r}; known: {', '.join(FORMATS)}")
    if not isinstance(rows, LazyTable):
        raise TypeError(f"emit_rows needs a LazyTable, not {type(rows).__name__}")
    if not rows:
        return
    keys = rows.keys
    if kind != "plain":
        # a row of ints and integral Decimals prints as one %-format of their
        # str, which needs no csv quoting; every cell of another row is rendered
        json_mode = kind == "json"
        if json_mode:
            import json

            line = "{" + ", ".join(json.dumps(k).replace("%", "%%") + ": %s" for k in keys) + "}\n"
            write = lambda cells: out.write(line % tuple(cells))
        else:
            line = ",".join(["%s"] * len(keys)) + "\n"
            write = _csv_row_writer(out)
            write(keys)
        for row in rows:
            if _INTEGER_TYPES.issuperset(map(type, row)):
                try:
                    out.write(line % row)
                    continue
                except ValueError:  # an int past the int -> str limit
                    pass
            write([_render(v, significant, json_mode) for v in row])
        return
    # plain: space-aligned table.  The width pass renders every cell but the
    # integers and keeps that text; it measures slices of rows at a time, so
    # it holds no integer past its slice.  The write pass renders the integers.
    widths = [0] * len(keys)
    texts: list[str] = []
    it = iter(rows)
    while chunk := [row if _INTEGER_TYPES.issuperset(map(type, row))
                    else [v if type(v) in _INTEGERS else _render(v, significant, False) for v in row]
                    for row in islice(it, _WIDTH_SLICE)]:
        widths = [max(w, _column_width(k, column)) for w, k, column in zip(widths, keys, zip(*chunk))]
        texts += [c for r in chunk if type(r) is list for c in r if type(c) is str]
    text = iter(texts).__next__
    out.write("  ".join(k.ljust(widths[i]) for i, k in enumerate(keys)).rstrip() + "\n")
    line = "  ".join(f"%-{w}s" for w in widths)
    for row in rows:
        if not _INTEGER_TYPES.issuperset(map(type, row)):
            row = tuple([v if type(v) in _INTEGERS else text() for v in row])
        try:
            text_line = line % row
        except ValueError:  # an int past the int -> str limit
            text_line = line % tuple([_unlimited(str, v) for v in row])
        out.write(text_line.rstrip() + "\n")
