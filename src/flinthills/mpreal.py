"""Arbitrary-precision real arithmetic with exact argument reduction.

A RealContext owns a private mpmath context whose working precision is the
requested digit count plus a fixed guard margin, so every context is immutable
and safe to share across threads.  The constant pi is produced by two
independent integer-arithmetic series (a Machin arctangent evaluation and a
binary-splitting Chudnovsky evaluation) that must agree, and must match a
bundled 1000-digit reference, before a value is released.

Sines of huge integer arguments are reduced modulo pi in exact scaled-integer
arithmetic, with pi carried to twice the argument's digit length in extra
digits: near a numerator of a convergent of pi the residue m - q*pi can be as
small as ~1/q, and the result must stay relatively accurate there.
"""

from __future__ import annotations

import math
import threading
from importlib import resources

from mpmath.ctx_mp import MPContext

from .errors import CrossCheckError, DomainError, PrecisionError

MIN_DECIMAL_DIGITS = 30
DEFAULT_GUARD_DIGITS = 40

# extra scale digits carried while summing the pi series, absorbing the
# accumulated floor-division error (at most a few units per term)
_PI_SERIES_GUARD = 12


class RealContext:
    """Precision-carrying arithmetic environment.

    All results produced through a context are correct to ``decimal_digits``
    significant digits; internally every value carries ``guard_digits`` more.
    """

    __slots__ = ("decimal_digits", "guard_digits", "_mp")

    def __init__(self, decimal_digits: int, guard_digits: int = DEFAULT_GUARD_DIGITS):
        if decimal_digits < MIN_DECIMAL_DIGITS:
            raise PrecisionError(
                f"precision too low: {decimal_digits} digits requested, "
                f"minimum is {MIN_DECIMAL_DIGITS}"
            )
        if guard_digits < 1:
            raise PrecisionError("guard_digits must be positive")
        self.decimal_digits = int(decimal_digits)
        self.guard_digits = int(guard_digits)
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
        return f"RealContext(decimal_digits={self.decimal_digits}, guard_digits={self.guard_digits})"


def make_context(decimal_digits: int, guard_digits: int = DEFAULT_GUARD_DIGITS) -> RealContext:
    """Create a context; rejects precision below the supported minimum."""
    return RealContext(decimal_digits, guard_digits)


# ---------------------------------------------------------------------------
# pi in scaled-integer form
# ---------------------------------------------------------------------------

_pi_cache: dict[int, int] = {}  # {digits: value} for the largest scale computed
_pi_derived = (0, 0, 0)  # (cached scale, scale, value) of the last scale derived from it
_pi_lock = threading.Lock()
_pi_reference_digits: str | None = None


def _reference_pi_digits() -> str:
    """First 1000 significant digits of pi from the bundled fixture."""
    global _pi_reference_digits
    if _pi_reference_digits is None:
        text = (
            resources.files("flinthills")
            .joinpath("fixtures/pi_1000.txt")
            .read_text(encoding="ascii")
        )
        _pi_reference_digits = "".join(text.split())
    return _pi_reference_digits


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


def _pi_machin_scaled(digits: int) -> int:
    """floor(pi * 10**digits) +- 1, via 16 arctan(1/5) - 4 arctan(1/239)."""
    one = 10 ** (digits + _PI_SERIES_GUARD)
    val = 16 * _arctan_inv_scaled(5, one) - 4 * _arctan_inv_scaled(239, one)
    return val // 10**_PI_SERIES_GUARD


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


def _pi_chudnovsky_scaled(digits: int) -> int:
    """floor(pi * 10**digits) +- 1, via binary-splitting Chudnovsky."""
    prec = digits + _PI_SERIES_GUARD
    terms = prec // 14 + 2
    _, q, t = _chudnovsky_split(0, terms)
    scale = 10**prec
    sqrt_10005 = math.isqrt(10005 * scale * scale)
    val = q * 426880 * sqrt_10005 // t
    return val // 10**_PI_SERIES_GUARD


def _int_prefix(value: int, value_digits: int, k: int) -> int:
    """First k decimal digits of a value known to have value_digits digits."""
    return value // 10 ** (value_digits - k)


def pi_scaled(digits: int) -> int:
    """floor(pi * 10**digits) to within one unit, cross-checked and cached.

    Two independent series must agree and the leading digits must match the
    bundled reference before the value is released.  Only the largest scale
    computed so far is kept; smaller scales are derived from it, and the last
    derivation is remembered because callers repeat one scale per term.
    """
    global _pi_derived
    if digits < 1:
        raise DomainError("scale must be positive")
    with _pi_lock:
        for have, val in _pi_cache.items():
            if have >= digits:
                if _pi_derived[:2] != (have, digits):
                    _pi_derived = (have, digits, val // 10 ** (have - digits))
                return _pi_derived[2]
        a = _pi_machin_scaled(digits)
        b = _pi_chudnovsky_scaled(digits)
        if abs(a - b) > 2:
            raise CrossCheckError(
                f"pi series disagree at {digits} digits (delta={a - b})"
            )
        ref = _reference_pi_digits()
        # value has digits+1 decimal digits ("3" + digits); drop the last,
        # possibly off-by-one, digit from the comparison
        k = min(digits, len(ref) - 1)
        if _int_prefix(a, digits + 1, k) != int(ref[:k]):
            raise CrossCheckError(
                f"pi computation does not match the bundled reference at {digits} digits"
            )
        _pi_cache.clear()
        _pi_cache[digits] = a
        return a


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


def _reduce_nearest(t: int, p: int) -> tuple[int, int]:
    """Split t = q*p + r with r in (-p/2, p/2], q the nearest multiple."""
    q, r = divmod(t, p)
    if 2 * r > p:
        q += 1
        r -= p
    return q, r


# ---------------------------------------------------------------------------
# trigonometric operations
# ---------------------------------------------------------------------------


def _check_finite(ctx: RealContext, value):
    if not ctx._mp.isfinite(value):
        raise DomainError("operation produced a non-finite value")
    return value


def _reduce_mod_pi(num: int, den: int, m: int, red: int, ctx: RealContext, want: str):
    """sin, cos or (sin, cos) of pi*num/den + m, by exact reduction modulo pi.

    The argument is scaled by 10**red, split as q*pi + r with |r| <= pi/2 at
    that scale, and evaluated at r; a shift by pi negates sine and cosine
    alike, so the values flip sign when q is odd.  want is "sin", "cos" or
    "sincos".
    """
    s = 10**red
    p = pi_scaled(red)
    q, r = _reduce_nearest((p * num) // den + m * s, p)
    mp = ctx._mp
    x = mp.mpf(r) / mp.mpf(s)
    if want == "sincos":
        cv, sv = mp.cos_sin(x)
        return (-sv, -cv) if q & 1 else (sv, cv)
    value = mp.sin(x) if want == "sin" else mp.cos(x)
    return -value if q & 1 else value


def sin_int(m: int, ctx: RealContext):
    """sin(m) for an exact integer m of any magnitude.

    Reduces m modulo pi with pi carried to twice the digit length of m in
    extra digits: the first length absorbs the size of m itself, the second
    keeps the result relatively accurate even when the residue m - q pi is as
    small as ~1/m (the convergent-numerator worst case).
    """
    if m == 0:
        return ctx._mp.mpf(0)
    red = ctx.effective_digits + 2 * decimal_length(m)
    return _check_finite(ctx, _reduce_mod_pi(0, 1, m, red, ctx, "sin"))


def cos_int(m: int, ctx: RealContext):
    """cos(m) for an exact integer m, by the same reduction as sin_int."""
    if m == 0:
        return ctx._mp.mpf(1)
    red = ctx.effective_digits + 2 * decimal_length(m)
    return _check_finite(ctx, _reduce_mod_pi(0, 1, m, red, ctx, "cos"))


def sincos_pi_rational_plus_int(num: int, den: int, m: int, ctx: RealContext):
    """(sin, cos) of pi*num/den + m, evaluated by exact scaled reduction.

    Used for shifted kernel arguments of the form (pi/2)*w + p, whose integer
    parts are far larger than any working precision but exactly known.
    """
    if den <= 0:
        raise DomainError("denominator must be positive")
    red = ctx.effective_digits + 2 * decimal_length(abs(num) // den + abs(m) + 1) + 2
    return _reduce_mod_pi(num, den, m, red, ctx, "sincos")


def sin_real(x, ctx: RealContext):
    """sin(x) for a finite real, correctly reduced at working precision."""
    mp = ctx._mp
    x = mp.mpf(x)
    if not mp.isfinite(x):
        raise DomainError("sin_real requires a finite argument")
    return _check_finite(ctx, mp.sin(x))


def cos_real(x, ctx: RealContext):
    """cos(x) for a finite real."""
    mp = ctx._mp
    x = mp.mpf(x)
    if not mp.isfinite(x):
        raise DomainError("cos_real requires a finite argument")
    return _check_finite(ctx, mp.cos(x))


def ln_real(x, ctx: RealContext):
    """Natural logarithm; domain error for x <= 0."""
    mp = ctx._mp
    x = mp.mpf(x)
    if not mp.isfinite(x) or x <= 0:
        raise DomainError(f"ln_real requires x > 0, got {x}")
    return _check_finite(ctx, mp.ln(x))
