"""Continued-fraction expansion with certified terms, and the convergent recurrence.

The expansion runs interval arithmetic on [x - eps, x + eps] in exact integers
(eps spanning the scaled value's last working digit) and emits a partial
quotient only while both endpoints agree on it, so no garbage terms appear
near precision exhaustion.  Convergents are exact big integers from the
standard three-term recurrence, verifiable against bundled OEIS b-files; the
same recurrence runs on exact Decimal integers for printing.
"""

from __future__ import annotations

import decimal
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .errors import CrossCheckError, DomainError, FixtureFormatError, InsufficientTermsError
from .mpreal import MIN_DECIMAL_DIGITS, RealContext, make_context, pi_const, to_scaled

# Lochs-type budget: one decimal digit certifies ~0.97 partial quotients of a
# typical irrational, so 1.03 digits per requested term plus a flat margin
DIGITS_PER_TERM = 1.03
DIGITS_MARGIN = 50

# denominators wider than this many bits are expanded in batches
_BATCH_BITS = 2000

# name -> its value at a context's precision
_CONSTANTS = {
    "pi": pi_const,
    "sqrt2": lambda ctx: ctx._mp.sqrt(2),
    "sqrt3": lambda ctx: ctx._mp.sqrt(3),
    "sqrt5": lambda ctx: ctx._mp.sqrt(5),
    "golden": lambda ctx: (1 + ctx._mp.sqrt(5)) / 2,
    "cbrt2": lambda ctx: ctx._mp.cbrt(2),
}
KNOWN_CONSTANTS = tuple(_CONSTANTS)


@dataclass(frozen=True)
class PartialQuotients:
    """Validated partial quotients a_0, a_1, ... of one constant.

    ``terms[0]`` is the integer part.  ``exhausted`` is set when the working
    precision ran out before the requested number of terms; the terms that
    were emitted are still certified correct.
    """

    constant_id: str
    terms: tuple[int, ...]
    source_precision: int
    exhausted: bool = False

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class Convergent:
    """Exact convergent p/q; ``index`` counts quotients folded in, 0-based.

    The published tables number their rows from 1 at (3, 1); that row number
    is ``index + 1``.
    """

    index: int
    p: int
    q: int


@dataclass(frozen=True)
class VerificationReport:
    """Per-index comparison of a computed sequence against a fixture."""

    fixture_path: str
    compared: int
    mismatches: tuple[tuple, ...]  # (fixture index, expected, got)

    @property
    def passed(self) -> bool:
        return self.compared > 0 and not self.mismatches


def digits_for_terms(terms: int) -> int:
    """Decimal digits needed to certify about ``terms`` partial quotients."""
    if terms < 1:
        raise DomainError("term count must be positive")
    return math.ceil(terms * DIGITS_PER_TERM) + DIGITS_MARGIN


def constant_value(constant_id: str, ctx: RealContext):
    """Value of a named constant at context precision."""
    if constant_id not in _CONSTANTS:
        raise DomainError(f"unknown constant {constant_id!r}; known: {', '.join(KNOWN_CONSTANTS)}")
    return _CONSTANTS[constant_id](ctx)


def expand(x, max_terms: int, ctx: RealContext, constant_id: str = "x", *, _prefix=()) -> PartialQuotients:
    """Certified partial quotients of a positive real x.

    Emits at most ``max_terms`` quotients; stops early (with the ``exhausted``
    flag) once the uncertainty interval around x no longer pins down the next
    quotient.  Rational inputs cannot be told apart from nearby irrationals at
    finite precision, so they also end exhausted rather than terminated.

    ``_prefix`` (``expand_constant``'s retry) holds quotients of x certified at
    fewer digits.  When both ends of the interval expand as the prefix, all of
    it does, and the prefix is folded in at once: the endpoints are then the
    integers the quotient-by-quotient loop reaches, so the result is the same.
    """
    if max_terms < 1:
        raise DomainError("max_terms must be positive")
    scale_digits = ctx.effective_digits
    scale = 10**scale_digits
    scaled = to_scaled(x, scale_digits)
    # interval half-width: one unit in the last working digit of x, which for
    # |x| > 1 is up to ~|x| units at this scale, plus slack for the rounding
    # of the scaling itself
    eps = to_scaled(x, 0) + 3
    lo_n, lo_d = scaled - eps, scale
    hi_n, hi_d = scaled + eps, scale
    if lo_n < 0:
        raise DomainError("expand requires x > 0 resolved away from zero")
    terms: list[int] = []
    if _prefix:
        ends = _advance(lo_n, lo_d, hi_n, hi_d, _prefix, 0, len(_prefix))
        if ends[0] > ends[1] >= 0 and ends[2] > ends[3] >= 0:  # both tails in (1, inf]
            terms, (lo_n, lo_d, hi_n, hi_d) = list(_prefix), ends
    exhausted = _expand_interval(lo_n, lo_d, hi_n, hi_d, max_terms, terms)
    return PartialQuotients(
        constant_id=constant_id,
        terms=tuple(terms),
        source_precision=scale_digits,
        exhausted=exhausted,
    )


def _expand_interval(lo_n: int, lo_d: int, hi_n: int, hi_d: int, max_terms: int, out: list[int]) -> bool:
    """Append the quotients both ends of [lo_n/lo_d, hi_n/hi_d] agree on.

    Stops at ``max_terms`` entries in ``out``; returns True when precision
    ran out first.  While both denominators are wide, the low half of every
    endpoint is dropped (rounding outward), the quotients of that wider
    interval are found recursively, and the exact endpoints are then advanced
    past them all at once.  Those quotients are certified for the exact
    interval too: x -> 1/(x - a) keeps an inner interval inside the image of
    an outer one, so if both outer ends share a floor, both inner ends do.
    Every stopping decision is taken on exact endpoints.
    """
    while len(out) < max_terms:
        if lo_d <= 0 or hi_d <= 0:
            return True
        start = len(out)
        bits = min(lo_d.bit_length(), hi_d.bit_length())
        if bits > _BATCH_BITS and lo_n > 0:
            s = bits // 2
            _expand_interval(lo_n >> s, (lo_d >> s) + 1, (hi_n >> s) + 1, hi_d >> s, max_terms, out)
        if len(out) > start:
            lo_n, lo_d, hi_n, hi_d = _advance(lo_n, lo_d, hi_n, hi_d, out, start, len(out))
            continue
        a = lo_n // lo_d
        if a != hi_n // hi_d:
            return True
        if out and a < 1:
            raise CrossCheckError("non-positive partial quotient past a_0")
        out.append(a)
        # x -> 1/(x - a) maps [lo, hi] to [1/(hi - a), 1/(lo - a)]
        lo_n, lo_d, hi_n, hi_d = hi_d, hi_n - a * hi_d, lo_d, lo_n - a * lo_d
    return False


def _advance(lo_n: int, lo_d: int, hi_n: int, hi_d: int, terms: Sequence[int], i: int, j: int) -> tuple:
    """The endpoints after x -> 1/(x - a) for each a in terms[i:j]: x = (p y + p1)/(q y + q1) inverted exactly."""
    p, p1, q, q1 = _fold(terms, i, j)
    if (j - i) & 1:
        return p1 * hi_d - q1 * hi_n, q * hi_n - p * hi_d, p1 * lo_d - q1 * lo_n, q * lo_n - p * lo_d
    return q1 * lo_n - p1 * lo_d, p * lo_d - q * lo_n, q1 * hi_n - p1 * hi_d, p * hi_d - q * hi_n


def _fold(terms: Sequence[int], i: int, j: int) -> tuple[int, int, int, int]:
    """(p, p1, q, q1) with [[p, p1], [q, q1]] the product of [[a, 1], [1, 0]] over terms[i:j].

    Short runs use the convergent recurrence; longer ones split in halves so
    the big products are balanced.
    """
    if j - i <= 32:
        p, p1, q, q1 = 1, 0, 0, 1
        for a in terms[i:j]:
            p, p1 = a * p + p1, p
            q, q1 = a * q + q1, q
        return p, p1, q, q1
    m = (i + j) // 2
    p, p1, q, q1 = _fold(terms, i, m)
    r, r1, t, t1 = _fold(terms, m, j)
    return p * r + p1 * t, p * r1 + p1 * t1, q * r + q1 * t, q * r1 + q1 * t1


def expand_constant(constant_id: str, max_terms: int, digits: int | None = None) -> PartialQuotients:
    """Expand a named constant at ``digits``, or at a precision auto-sized for the term count.

    Auto-sized precision follows a typical constant's quotient rate; when it
    falls short, one retry resumes after its terms (see ``expand``) at the
    precision the observed rate calls for.  An explicit ``digits`` never retries.
    """
    auto = digits is None
    if auto:
        digits = digits_for_terms(max_terms)
    pq = _expand_at(constant_id, max_terms, digits)
    if auto and len(pq.terms) < max_terms:
        got = max(len(pq.terms), 1)
        pq = _expand_at(constant_id, max_terms, math.ceil(digits * max_terms / got) + DIGITS_MARGIN, pq.terms)
    return pq


def _expand_at(constant_id: str, max_terms: int, digits: int, prefix=()) -> PartialQuotients:
    ctx = make_context(max(digits, MIN_DECIMAL_DIGITS))
    return expand(constant_value(constant_id, ctx), max_terms, ctx, constant_id=constant_id, _prefix=prefix)


def _checked_terms(pq: PartialQuotients, count: int) -> tuple[int, ...]:
    """The first ``count`` terms, once the count and the type of every term are checked."""
    if count < 1:
        raise DomainError("count must be positive")
    if count > len(pq.terms):
        raise InsufficientTermsError(
            f"{count} convergents requested but only {len(pq.terms)} terms available"
        )
    terms = pq.terms[:count]
    for k, a in enumerate(terms):
        if type(a) is not int:
            raise CrossCheckError(f"partial quotient {k} is a {type(a).__name__}, not an int")
    return terms


def convergent_pairs(pq: PartialQuotients, count: int) -> Iterator[tuple[int, int]]:
    """The first ``count`` pairs (p_n, q_n), folded lazily.

    The count and the terms are checked when this is called, before the first
    pair is folded: every term must be an int (see ``convergents``).
    """
    return _recurrence(_checked_terms(pq, count))


def _recurrence(terms, one=1, fma=lambda a, x, y: a * x + y) -> Iterator[tuple]:
    """(p_n, q_n) from (p_(-1), q_(-1)) = (one, 0) and (p_(-2), q_(-2)) = (0, one), each step a*x + y by fma."""
    p, p_prev, q, q_prev = one, 0, 0, one
    for a in terms:
        p, p_prev = fma(a, p, p_prev), p
        q, q_prev = fma(a, q, q_prev), q
        yield p, q


def convergents(pq: PartialQuotients, count: int) -> list[Convergent]:
    """First ``count`` exact convergents by the standard recurrence, in lowest terms.

    The recurrence p_n = a_n p_(n-1) + p_(n-2), q_n = a_n q_(n-1) + q_(n-2)
    gives p_n q_(n-1) - p_(n-1) q_n = (-1)^(n-1) for any terms (Khinchin,
    *Continued Fractions*, Theorem 2), so every common divisor of p_n and q_n
    divides 1 when the terms are integers.  Lowest terms therefore rest only
    on every term being an int, which is checked once (CrossCheckError)
    instead of by a gcd on each row.
    """
    return [Convergent(index=k, p=p, q=q) for k, (p, q) in enumerate(convergent_pairs(pq, count))]


# integers held exactly: no precision or exponent limit is reachable, and any
# rounding would raise instead of printing a wrong digit
_EXACT_DECIMAL = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                 traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow])


def decimal_convergents(pq: PartialQuotients, count: int) -> Iterator[tuple[Decimal, Decimal]]:
    """The first ``count`` pairs (p_n, q_n) as exact integral Decimals, folded lazily.

    Same recurrence and call-time checks as ``convergent_pairs``.  ``str`` of
    an integral Decimal takes time linear in its length and has no digit
    limit, where ``str`` of an int is quadratic and stops at 4300 digits, so
    tables of convergents are printed from these.
    """
    # the exact context's own fma takes the int zeros exactly: no context is
    # entered, so none leaks to the consumer
    return _recurrence(_checked_terms(pq, count), Decimal(1), _EXACT_DECIMAL.fma)


def constant_convergents(constant_id: str, count: int) -> list[Convergent]:
    """Convergents of a named constant, precision auto-sized for the count."""
    return convergents(expand_constant(constant_id, count), count)


def reconstruct(pq: PartialQuotients) -> Fraction:
    """Fold the quotients back into the finite fraction they define."""
    if not pq.terms:
        raise DomainError("no terms to reconstruct")
    p, _, q, _ = _fold(pq.terms, 0, len(pq.terms))
    return Fraction(p, q)


# ---------------------------------------------------------------------------
# fixture verification (OEIS b-file format)
# ---------------------------------------------------------------------------


def parse_bfile(fixture_path) -> dict[int, Decimal]:
    """Parse an OEIS b-file: lines of "index value", '#' comments ignored.

    Values are integral Decimals, which have no digit limit where an int
    parsed from text stops at 4300 digits.
    """
    entries: dict[int, Decimal] = {}
    try:
        text = Path(fixture_path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise FixtureFormatError(f"{fixture_path}: not a readable ASCII b-file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FixtureFormatError(f"{fixture_path}:{lineno}: expected 'index value', got {raw!r}")
        try:
            idx, val = int(parts[0]), Decimal(parts[1])
        except (ValueError, decimal.InvalidOperation) as exc:
            raise FixtureFormatError(f"{fixture_path}:{lineno}: non-integer field: {raw!r}") from exc
        if val.as_tuple().exponent != 0:  # a fraction, an exponent, NaN or infinity
            raise FixtureFormatError(f"{fixture_path}:{lineno}: non-integer field: {raw!r}")
        entries[idx] = val
    if not entries:
        raise FixtureFormatError(f"{fixture_path}: no data lines")
    return entries


def verify_fixture(seq, fixture_path, index_offset: int = 0) -> VerificationReport:
    """Compare a computed integer sequence against a b-file fixture.

    ``seq[i]`` is matched against fixture index ``i + index_offset``; indices
    present on only one side are skipped.  Passes iff every overlapping index
    matches.
    """
    fixture = parse_bfile(fixture_path)
    compared = 0
    mismatches: list[tuple] = []
    for i, got in enumerate(seq):
        fi = i + index_offset
        if fi not in fixture:
            continue
        compared += 1
        expected = fixture[fi]
        if expected != got:
            mismatches.append((fi, expected, got))
    return VerificationReport(
        fixture_path=str(fixture_path),
        compared=compared,
        mismatches=tuple(mismatches),
    )
