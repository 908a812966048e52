"""Structured emission of result rows as CSV, JSON records, or a plain table.

All three formats carry the same formatted numeric strings: numbers are
rendered once (default 6 significant digits, the table convention) and the
rendered token is inserted verbatim into CSV cells and JSON values, so
emissions of the same command are numerically identical and byte-reproducible.

Rows are written to the output one at a time.  Integers (ints and integral
Decimals) are rendered only as their row is written; plain measures their
column widths by digit count, so a table of huge integers is never held as
text.  Integral Decimals print in time linear in their length and without
Python's 4300-digit limit on int -> str.
"""

from __future__ import annotations

import csv
import json
from decimal import Decimal

import mpmath

from .errors import DomainError
from .mpreal import decimal_length

FORMATS = ("plain", "csv", "json")
DEFAULT_SIGNIFICANT_DIGITS = 6
_INTEGERS = (int, Decimal)  # exact types: a bool renders as true/false


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
        return str(value)
    if isinstance(value, str):
        return json.dumps(value) if json_mode else value
    return mpmath.nstr(value, significant)


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


def emit_rows(rows: list[dict], kind: str, significant: int, out) -> None:
    """Write dict rows (shared key order) to the text stream ``out`` in the requested format."""
    if kind not in FORMATS:
        raise DomainError(f"unknown output format {kind!r}; known: {', '.join(FORMATS)}")
    if not rows:
        return
    keys = list(rows[0].keys())
    if kind == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_render(row.get(k), significant, json_mode=False) for k in keys])
        return
    if kind == "json":
        for row in rows:
            parts = [f"{json.dumps(k)}: {_render(row.get(k), significant, json_mode=True)}" for k in keys]
            out.write("{" + ", ".join(parts) + "}\n")
        return
    # plain: space-aligned table; the width pass renders every cell but the integers
    cells = [[v if type(v) in _INTEGERS else _render(v, significant, json_mode=False)
              for v in map(row.get, keys)] for row in rows]
    widths = [_column_width(k, column) for k, column in zip(keys, zip(*cells))]
    out.write("  ".join(k.ljust(widths[i]) for i, k in enumerate(keys)).rstrip() + "\n")
    for r in cells:
        out.write("  ".join([str(c).ljust(w) for c, w in zip(r, widths)]).rstrip() + "\n")
