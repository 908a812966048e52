"""Arbitrary-precision real arithmetic with exact argument reduction.

A RealContext owns a private mpmath context whose working precision is the
requested digit count plus a fixed guard margin, so every context is immutable
and safe to share across threads.  The constant pi is produced by two
independent integer-arithmetic series (a Machin arctangent evaluation and a
binary-splitting Chudnovsky evaluation) that must agree, and must match a
bundled 1000-digit reference, before a value is released.

Sines of exact rational arguments are reduced modulo pi in exact scaled-integer
arithmetic, with pi carried to twice the numerator's digit length in extra
digits: near a numerator of a convergent of pi the residue m - q*pi can be as
small as ~1/q, and the result must stay relatively accurate there.
"""

from __future__ import annotations

import functools
import math
import threading
from importlib import resources

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_int, mpf_cos, mpf_cos_sin, mpf_div, mpf_neg, mpf_sin

from .errors import CrossCheckError, DomainError, PrecisionError

MIN_DECIMAL_DIGITS = 30
DEFAULT_GUARD_DIGITS = 40

# a pi series first runs _PI_SERIES_GUARD digits past the scale asked for, and
# its value there is within _PI_SERIES_ERROR units: two for each of Machin's
# arctangents, times 16 + 4 (Chudnovsky's bound, two units, is below it)
_PI_SERIES_GUARD = 12
_PI_SERIES_ERROR = 2 * (16 + 4)


class RealContext:
    """Precision-carrying arithmetic environment.

    All results produced through a context are correct to ``decimal_digits``
    significant digits; internally every value carries ``guard_digits`` more.
    """

    __slots__ = ("decimal_digits", "guard_digits", "_mp")

    def __init__(self, decimal_digits: int):
        if decimal_digits < MIN_DECIMAL_DIGITS:
            raise PrecisionError(
                f"precision too low: {decimal_digits} digits requested, "
                f"minimum is {MIN_DECIMAL_DIGITS}"
            )
        self.decimal_digits = int(decimal_digits)
        self.guard_digits = DEFAULT_GUARD_DIGITS
        mp = MPContext()
        mp.dps = self.decimal_digits + self.guard_digits
        self._mp = mp

    @property
    def effective_digits(self) -> int:
        return self.decimal_digits + self.guard_digits

    def mpf(self, x):
        """Convert int/str/float/mpf to this context's working type."""
        return self._mp.mpf(x)

    def __repr__(self) -> str:
        return f"RealContext(decimal_digits={self.decimal_digits})"


def make_context(decimal_digits: int) -> RealContext:
    """Create a context; rejects precision below the supported minimum."""
    return RealContext(decimal_digits)


# ---------------------------------------------------------------------------
# pi in scaled-integer form
# ---------------------------------------------------------------------------

_pi_cache: dict[int, int] = {}  # {digits: value} for the largest scale computed
_pi_derived = (0, 0, 0)  # (cached scale, scale, value) of the last scale derived from it
_pi_lock = threading.Lock()


@functools.cache
def _reference_pi_digits() -> str:
    """First 1000 significant digits of pi from the bundled fixture."""
    text = (
        resources.files("flinthills")
        .joinpath("fixtures/pi_1000.txt")
        .read_text(encoding="ascii")
    )
    return "".join(text.split())


def _arctan_split(a: int, b: int, c: int) -> tuple[int, int, int]:
    """(P, Q, T) for the ratios 2j / ((2j + 1) c), a <= j < b, by binary splitting.

    P and Q are the products of the numerators and of the denominators, and
    T/Q = sum_{k=a}^{b-1} prod_{j=a}^{k} 2j / ((2j + 1) c).
    """
    if b - a == 1:
        return 2 * a, (2 * a + 1) * c, 2 * a
    m = (a + b) // 2
    p1, q1, t1 = _arctan_split(a, m, c)
    p2, q2, t2 = _arctan_split(m, b, c)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _arctan_inv_scaled(x: int, one: int) -> int:
    """arctan(1/x) * one to within two units, by Euler's series.

    arctan(1/x) = (x/c) sum_k prod_{j<=k} 2j / ((2j + 1) c) with c = 1 + x^2;
    every term is positive and the ratio is below 1/c.  The sum is taken by
    binary splitting to 2 + log_c(one) terms, so the dropped tail is below
    one unit.  Q and T are then cut to 64 bits beyond ``one`` before the
    division: that moves T/Q by at most 1/Q < 2**-63 / one, and the result
    by less than 2**-63 units.  The final floor costs one more unit.
    """
    c = 1 + x * x
    terms = 2 + math.ceil(math.log(one, c))
    _, q, t = _arctan_split(1, terms, c)
    shift = max(0, q.bit_length() - one.bit_length() - 64)
    q >>= shift
    t >>= shift
    return one * x * (q + t) // (c * q)


def _ziv_floor(val: int, guard: int) -> int | None:
    """val // 10**guard if all of val +- _PI_SERIES_ERROR floor to it (Ziv's test), else None."""
    unit = 10**guard
    low = (val - _PI_SERIES_ERROR) // unit
    return low if low == (val + _PI_SERIES_ERROR) // unit else None


def _pi_machin_scaled(digits: int, guard: int = _PI_SERIES_GUARD) -> int:
    """floor(pi * 10**digits) exactly, via 16 arctan(1/5) - 4 arctan(1/239)."""
    one = 10 ** (digits + guard)
    val = 16 * _arctan_inv_scaled(5, one) - 4 * _arctan_inv_scaled(239, one)
    return _ziv_floor(val, guard) or _pi_machin_scaled(digits, 2 * guard)


def _chudnovsky_split(a: int, b: int) -> tuple[int, int, int]:
    if b - a == 1:
        if a == 0:
            return 1, 1, 13591409
        pa = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        qa = a * a * a * 10939058860032000
        ta = pa * (13591409 + 545140134 * a)
        return pa, qa, -ta if a & 1 else ta
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, m)
    p2, q2, t2 = _chudnovsky_split(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _pi_chudnovsky_scaled(digits: int, guard: int = _PI_SERIES_GUARD) -> int:
    """floor(pi * 10**digits) exactly, via binary-splitting Chudnovsky.  val is within two
    units: the floor moves it by under one, the root by pi / sqrt(10005), the rest far less."""
    prec = digits + guard
    terms = prec // 14 + 2
    _, q, t = _chudnovsky_split(0, terms)
    scale = 10**prec
    # cut Q and T to 64 bits beyond the scale, as _arctan_inv_scaled does:
    # Q/T moves by a relative 2**-63 / scale, far below one unit
    shift = max(0, q.bit_length() - scale.bit_length() - 64)
    q >>= shift
    t >>= shift
    sqrt_10005 = math.isqrt(10005 * scale * scale)
    val = q * 426880 * sqrt_10005 // t
    return _ziv_floor(val, guard) or _pi_chudnovsky_scaled(digits, 2 * guard)


def pi_scaled(digits: int) -> int:
    """floor(pi * 10**digits) exactly, cross-checked and cached; a function of digits alone.

    Two independent series must give the same floor, and it must match every
    digit of the bundled reference it covers.  Only the largest scale is kept;
    smaller ones are derived from it, and the last derivation is remembered
    because callers repeat one scale per term.  A miss computes at twice the
    cached scale or at digits, whichever is larger, so growing scales cost a
    logarithmic number of computations.
    """
    global _pi_derived
    if digits < 1:
        raise DomainError("scale must be positive")
    with _pi_lock:
        have, val = next(iter(_pi_cache.items()), (0, 0))
        if have < digits:
            have = max(digits, 2 * have)
            val = _pi_machin_scaled(have)
            b = _pi_chudnovsky_scaled(have)
            if val != b:
                raise CrossCheckError(f"pi series disagree at {have} digits (delta={val - b})")
            ref = _reference_pi_digits()
            k = min(have + 1, len(ref))  # val has have + 1 digits, "3" and have more
            if val // 10 ** (have + 1 - k) != int(ref[:k]):
                raise CrossCheckError(
                    f"pi computation does not match the bundled reference at {have} digits"
                )
            _pi_cache.clear()
            _pi_cache[have] = val
        if _pi_derived[:2] != (have, digits):
            _pi_derived = (have, digits, val // 10 ** (have - digits))
        return _pi_derived[2]


def pi_const(ctx: RealContext):
    """pi correct to the context precision."""
    eff = ctx.effective_digits
    scaled = pi_scaled(eff)
    mp = ctx._mp
    return mp.mpf(scaled) / mp.mpf(10) ** eff


# ---------------------------------------------------------------------------
# exact scaling helpers
# ---------------------------------------------------------------------------


def to_scaled(x, digits: int) -> int:
    """floor(x * 10**digits) computed exactly from the binary mantissa; x >= 0."""
    sign, man, exp, _ = x._mpf_
    man = int(man)
    if man == 0:
        # a zero mantissa with nonzero exponent marks inf/nan
        if exp != 0:
            raise DomainError("to_scaled requires a finite value")
        return 0
    if sign:
        raise DomainError("to_scaled requires a nonnegative value")
    n = man * 10**digits
    return n << exp if exp >= 0 else n >> (-exp)


def decimal_length(n: int) -> int:
    """Decimal digit count of |n|, within one above the exact count, never below."""
    if n == 0:
        return 1
    bits = abs(n).bit_length()
    est = bits * 30103 // 100000  # floor(bits * log10(2))
    return est + 1


# ---------------------------------------------------------------------------
# trigonometric operations
# ---------------------------------------------------------------------------


def residue_mod_pi(num: int, den: int, m, red: int) -> tuple[int, int]:
    """(q, r) with pi*num/den + m = q*pi + r/10**red and |r| <= pi/2 at that scale.

    m is an exact int or Fraction.  p is below pi by under one unit and the other
    terms are floored at the scale, so r is off by less than |q - num/den| + 2 units.
    """
    s = 10**red
    p = pi_scaled(red)
    q, r = divmod((p * num) // den + (m.numerator * s) // m.denominator, p)
    if 2 * r > p:  # step to the nearest multiple
        q, r = q + 1, r - p
    return q, r


def reduction_digits(m, ctx: RealContext) -> int:
    """Scale digits for reducing an exact rational m modulo pi.

    Twice the numerator's length in extra digits: one length absorbs the size
    of m, the other keeps the result relatively accurate even when m - q pi
    is as small as ~1/m (the convergent-numerator worst case).  A fraction
    below one (q = 0) needs the denominator's length instead.
    """
    return ctx.effective_digits + max(2 * decimal_length(m.numerator), decimal_length(m.denominator))


@functools.lru_cache(maxsize=64)
def _rounded_power_of_ten(red: int, prec: int, rnd: str):
    """10**red as a raw mpf rounded to prec bits, as mp.mpf(10**red) rounds it."""
    return from_int(10**red, prec, rnd)


def _reduce_mod_pi(num: int, den: int, m, red: int, ctx: RealContext, want: str):
    """sin, cos or (sin, cos) of pi*num/den + m as raw mpf values, evaluated at its residue r.

    r/10**red is formed as mp.mpf(r) / mp.mpf(10**red) forms it: both operands
    rounded to working precision, then divided.  A shift by pi negates sine
    and cosine alike, so the values flip sign when q is odd.  want is "sin",
    "cos" or "sincos".
    """
    q, r = residue_mod_pi(num, den, m, red)
    prec, rnd = ctx._mp._prec_rounding
    x = mpf_div(from_int(r, prec, rnd), _rounded_power_of_ten(red, prec, rnd), prec, rnd)
    if want == "sincos":
        cv, sv = mpf_cos_sin(x, prec, rnd)
        return (mpf_neg(sv, prec, rnd), mpf_neg(cv, prec, rnd)) if q & 1 else (sv, cv)
    value = mpf_sin(x, prec, rnd) if want == "sin" else mpf_cos(x, prec, rnd)
    return mpf_neg(value, prec, rnd) if q & 1 else value


def sin_int(m, ctx: RealContext):
    """sin(m) for an exact int or Fraction m of any magnitude, reduced exactly modulo pi."""
    return ctx._mp.make_mpf(_reduce_mod_pi(0, 1, m, reduction_digits(m, ctx), ctx, "sin"))


def cos_int(m, ctx: RealContext):
    """cos(m) for an exact int or Fraction m, by the same reduction as sin_int."""
    return ctx._mp.make_mpf(_reduce_mod_pi(0, 1, m, reduction_digits(m, ctx), ctx, "cos"))


def sincos_pi_rational_plus_int(num: int, den: int, m: int, ctx: RealContext):
    """(sin, cos) of pi*num/den + m, evaluated by exact scaled reduction.

    Used for shifted kernel arguments of the form (pi/2)*w + p, whose integer
    parts are far larger than any working precision but exactly known.
    """
    if den <= 0:
        raise DomainError("denominator must be positive")
    red = ctx.effective_digits + 2 * decimal_length(abs(num) // den + abs(m) + 1) + 2
    sv, cv = _reduce_mod_pi(num, den, m, red, ctx, "sincos")
    return ctx._mp.make_mpf(sv), ctx._mp.make_mpf(cv)
