"""Structured emission of result rows as CSV, JSON records, or a plain table.

All three formats carry the same formatted numeric strings: numbers are
rendered once (default 6 significant digits, the table convention) and the
rendered token is inserted verbatim into CSV cells and JSON values, so
emissions of the same command are numerically identical and byte-reproducible.
"""

from __future__ import annotations

import csv
import io
import json

import mpmath

from .errors import DomainError

FORMATS = ("plain", "csv", "json")
DEFAULT_SIGNIFICANT_DIGITS = 6


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
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value) if json_mode else value
    return mpmath.nstr(value, significant)


def emit_rows(rows: list[dict], kind: str, significant: int = DEFAULT_SIGNIFICANT_DIGITS) -> str:
    """Serialize dict rows (shared key order) in the requested format."""
    if kind not in FORMATS:
        raise DomainError(f"unknown output format {kind!r}; known: {', '.join(FORMATS)}")
    if not rows:
        return ""
    keys = list(rows[0].keys())
    if kind == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_render(row.get(k), significant, json_mode=False) for k in keys])
        return buf.getvalue()
    if kind == "json":
        lines = []
        for row in rows:
            parts = [f"{json.dumps(k)}: {_render(row.get(k), significant, json_mode=True)}" for k in keys]
            lines.append("{" + ", ".join(parts) + "}")
        return "\n".join(lines) + "\n"
    # plain: space-aligned table
    cells = [[_render(row.get(k), significant, json_mode=False) for k in keys] for row in rows]
    widths = [max(len(keys[i]), max((len(r[i]) for r in cells), default=0)) for i in range(len(keys))]
    out = ["  ".join(k.ljust(widths[i]) for i, k in enumerate(keys)).rstrip()]
    for r in cells:
        out.append("  ".join(r[i].ljust(widths[i]) for i in range(len(keys))).rstrip())
    return "\n".join(out) + "\n"
