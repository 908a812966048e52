"""Structured emission of result rows as CSV, JSON records, or a plain table.

All three formats carry the same formatted numeric strings: numbers are
rendered once (default 6 significant digits, the table convention) and the
rendered token is inserted verbatim into CSV cells and JSON values, so
emissions of the same command are numerically identical and byte-reproducible.

A table is any re-iterable row collection with ``len()``: a list, or a
``LazyTable`` that makes its rows afresh on each pass and so is never held.
CSV and JSON make one pass; plain makes two, the first to measure column
widths.  Rows are written to the output one at a time.  Integers (ints and
integral Decimals) are rendered only as their row is written; plain measures
their column widths by digit count, so a table of huge integers is never held
as text.  Integral Decimals print in time linear in their length and without
Python's 4300-digit limit on int -> str; other cells that meet it print with it lifted.
"""

from __future__ import annotations

import sys
import threading
from collections.abc import Callable, Collection, Iterator
from decimal import Decimal
from itertools import chain, islice

import mpmath

from .errors import DomainError
from .mpreal import decimal_length

FORMATS = ("plain", "csv", "json")
DEFAULT_SIGNIFICANT_DIGITS = 6
_INTEGERS = (int, Decimal)  # exact types: a bool renders as true/false
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

    Integers are not rendered: the widest is the largest or the smallest.
    """
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
    """A table of ``length`` rows that ``make_rows()`` makes afresh on each pass."""

    def __init__(self, length: int, make_rows: Callable[[], Iterator[dict]]):
        self._length = length
        self._make_rows = make_rows

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[dict]:
        return self._make_rows()


def emit_rows(rows: Collection[dict], kind: str, significant: int, out) -> None:
    """Write dict rows (the first row's key order) to the text stream ``out`` in the requested format.

    ``rows`` is a list or a ``LazyTable``; it is iterated, never indexed.  A
    one-shot iterator raises TypeError: plain format passes over the rows twice.
    """
    if kind not in FORMATS:
        raise DomainError(f"unknown output format {kind!r}; known: {', '.join(FORMATS)}")
    it = iter(rows)
    if it is rows:
        raise TypeError("emit_rows needs a list or a LazyTable, not a one-shot iterator")
    if not rows:
        return
    first = next(it)
    keys = list(first)
    it = chain((first,), it)
    if kind == "csv":
        write = _csv_row_writer(out)
        write(keys)
        for row in it:
            write([_render(row.get(k), significant, json_mode=False) for k in keys])
        return
    if kind == "json":
        import json

        names = [json.dumps(k) for k in keys]
        for row in it:
            parts = [f"{name}: {_render(row.get(k), significant, json_mode=True)}" for name, k in zip(names, keys)]
            out.write("{" + ", ".join(parts) + "}\n")
        return
    # plain: space-aligned table.  The width pass renders every cell but the
    # integers and keeps that text; it measures slices of rows at a time, so
    # it holds no integer past its slice.  The write pass renders the integers.
    widths = [0] * len(keys)
    texts: list[str] = []
    while chunk := [[v if type(v) in _INTEGERS else _render(v, significant, json_mode=False)
                     for v in map(row.get, keys)] for row in islice(it, _WIDTH_SLICE)]:
        widths = [max(w, _column_width(k, column)) for w, k, column in zip(widths, keys, zip(*chunk))]
        texts += [c for r in chunk for c in r if type(c) not in _INTEGERS]
    text = iter(texts).__next__
    out.write("  ".join(k.ljust(widths[i]) for i, k in enumerate(keys)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join([(_render(v, significant, False) if type(v) in _INTEGERS else text()).ljust(w)
                             for v, w in zip(map(row.get, keys), widths)]).rstrip() + "\n")
