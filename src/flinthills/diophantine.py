"""Empirical irrationality measures and approximation-inequality audits.

The empirical measure of a convergent p/q of alpha is -log|alpha - p/q|/log q;
for the convergents of pi it drifts toward 2.  The audit checks, row by row,
the classical two-sided Dirichlet bounds, the Hurwitz refinement, and the
shifted bound 1/(2 q_n) <= |p_{n+1} - alpha q_{n+1} - 1/q_n| <= 2/q_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .contfrac import constant_convergents, constant_value, convergents, digits_for_terms, expand
from .errors import DomainError, UndefinedMeasureError
from .mpreal import FIXTURES, RealContext, make_context


@dataclass(frozen=True)
class MeasurePoint:
    """One row of the empirical-measure table (row numbers start at 1)."""

    index: int
    p: int
    q: int
    error: object
    mu_hat: object | None  # undefined for q < 2


@dataclass(frozen=True)
class AuditRow:
    index: int
    p: int
    q: int
    error: object
    dirichlet_lower: object
    dirichlet_upper: object
    dirichlet_ok: bool
    hurwitz_ok: bool
    shifted_value: object
    shifted_lower: object
    shifted_upper: object
    shifted_ok: bool


@dataclass(frozen=True)
class AuditReport:
    constant_id: str
    rows: tuple[AuditRow, ...]
    all_dirichlet_ok: bool
    all_shifted_ok: bool
    hurwitz_count: int


def approximation_error(alpha, p: int, q: int, ctx: RealContext):
    """|alpha - p/q| computed as |alpha*q - p|/q to avoid quotient rounding."""
    if q == 0:
        raise DomainError("q must be nonzero")
    mp = ctx._mp
    return abs(mp.mpf(alpha) * q - p) / abs(q)


def empirical_measure(alpha, p: int, q: int, ctx: RealContext):
    """mu_hat = -ln|alpha - p/q| / ln q; undefined at q < 2 where ln q = 0."""
    if q < 2:
        raise UndefinedMeasureError(f"empirical measure undefined for q={q}")
    err = approximation_error(alpha, p, q, ctx)
    if err == 0:
        raise DomainError("p/q equals alpha at working precision")
    mp = ctx._mp
    return -mp.ln(err) / mp.ln(q)


def _resolve(alpha, n_max: int, ctx: RealContext | None):
    """Return (alpha value, convergents to n_max, context), auto-sizing
    precision when alpha is given as a named constant.

    At least n_max convergents come back (n_max + 1 when precision allows);
    a value whose precision certifies fewer raises DomainError.
    """
    if isinstance(alpha, str):
        work = make_context(max(digits_for_terms(n_max + 2), ctx.decimal_digits if ctx is not None else 0))
        value = constant_value(alpha, work)  # first, so the expansion's smaller pi is derived from it
        return value, constant_convergents(alpha, n_max + 1), work
    if ctx is None:
        raise DomainError("a context is required when alpha is given as a value")
    pq = expand(alpha, n_max + 1, ctx)
    convs = convergents(pq, min(n_max + 1, len(pq.terms)))
    if len(convs) < n_max:
        raise DomainError(f"only {len(convs)} convergents available for n_max={n_max}")
    return ctx._mp.mpf(alpha), convs, ctx


def measure_table(alpha, n_max: int, ctx: RealContext | None = None) -> list[MeasurePoint]:
    """Rows 1..n_max of the empirical-measure table; row 1 has no measure.

    ``alpha`` is either a named constant (precision auto-sized) or a value
    at the caller's context precision.
    """
    value, convs, work = _resolve(alpha, n_max, ctx)
    rows = []
    for c in convs[:n_max]:
        err = approximation_error(value, c.p, c.q, work)
        mu = empirical_measure(value, c.p, c.q, work) if c.q >= 2 else None
        rows.append(MeasurePoint(index=c.index + 1, p=c.p, q=c.q, error=err, mu_hat=mu))
    return rows


def inequality_audit(alpha, n_range, ctx: RealContext | None = None) -> AuditReport:
    """Per-row audit of the approximation inequalities over convergent rows.

    ``n_range`` is an inclusive (start, stop) pair of table row numbers, or
    a bare stop meaning (1, stop).  Checked per row n:

    * 1/(2 q_{n+1} q_n) <= |alpha - p_n/q_n| <= 1/q_n^2
    * |alpha - p_n/q_n| < 1/(sqrt5 q_n^2)         (recorded, holds infinitely often)
    * 1/(2 q_n) <= |p_{n+1} - alpha q_{n+1} - 1/q_n| <= 2/q_n
    """
    if isinstance(n_range, int):
        n_range = (1, n_range)
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise DomainError(f"bad row range {n_range}")
    constant_id = alpha if isinstance(alpha, str) else "x"
    value, convs, work = _resolve(alpha, hi + 1, ctx)
    mp = work._mp
    sqrt5 = mp.sqrt(5)
    rows: list[AuditRow] = []
    hurwitz = 0
    for n in range(lo, hi + 1):
        c = convs[n - 1]
        cn1 = convs[n]
        err = approximation_error(value, c.p, c.q, work)
        d_lower = 1 / (2 * mp.mpf(cn1.q) * c.q)
        d_upper = 1 / (mp.mpf(c.q) ** 2)
        d_ok = bool(d_lower <= err <= d_upper)
        h_ok = bool(err < 1 / (sqrt5 * mp.mpf(c.q) ** 2))
        hurwitz += h_ok
        s_val = abs(mp.mpf(cn1.p) - value * cn1.q - mp.mpf(1) / c.q)
        s_lower = 1 / (2 * mp.mpf(c.q))
        s_upper = 2 / mp.mpf(c.q)
        s_ok = bool(s_lower <= s_val <= s_upper)
        rows.append(
            AuditRow(
                index=n,
                p=c.p,
                q=c.q,
                error=err,
                dirichlet_lower=d_lower,
                dirichlet_upper=d_upper,
                dirichlet_ok=d_ok,
                hurwitz_ok=h_ok,
                shifted_value=s_val,
                shifted_lower=s_lower,
                shifted_upper=s_upper,
                shifted_ok=s_ok,
            )
        )
    return AuditReport(
        constant_id=constant_id,
        rows=tuple(rows),
        all_dirichlet_ok=all(r.dirichlet_ok for r in rows),
        all_shifted_ok=all(r.shifted_ok for r in rows),
        hurwitz_count=hurwitz,
    )


# ---------------------------------------------------------------------------
# known-typo annotations for the published reference tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableAnnotation:
    table: str
    row: int
    column: str
    note: str


def load_table_annotations(path=None) -> tuple[TableAnnotation, ...]:
    """Annotations marking published table cells that the exact recurrence
    (and the OEIS fixtures) show to be misprints."""
    text = Path(FIXTURES / "table_annotations.txt" if path is None else path).read_text(encoding="ascii")
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        table, row, column, note = (line.split(",", 3) + [""])[:4]
        out.append(TableAnnotation(table=table, row=int(row), column=column, note=note))
    return tuple(out)

