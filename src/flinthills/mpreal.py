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

A run of sines at consecutive indices (the generator sine_run) yields each index
with the same bits as its per-index path: the residues step exactly (the
generators flint_residues and alpha_pi_residues), a rotation recurrence supplies
each value, and it is used only when Ziv's rounding test shows that it rounds
to what mpmath's sine returns.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from pathlib import Path

import mpmath
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_cos_sin,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_sin,
)
from mpmath.libmp.libelefun import COS_SIN_CACHE_PREC, cos_sin_basecase

from .errors import CrossCheckError, DomainError, PrecisionError

MIN_DECIMAL_DIGITS = 30
DEFAULT_GUARD_DIGITS = 40

# the bundled reference files, read by path beside this module
FIXTURES = Path(__file__).with_name("fixtures")

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
    return "".join((FIXTURES / "pi_1000.txt").read_text(encoding="ascii").split())


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
    """Decimal digit count of |n|, within one above the exact count, never below,
    and non-decreasing in |n| (flint_residues finds where its scale changes by search)."""
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


def _residue_argument(r: int, red: int, prec: int, rnd: str):
    """r/10**red as mp.mpf(r) / mp.mpf(10**red) forms it: both operands rounded
    to working precision, then divided."""
    return mpf_div(from_int(r, prec, rnd), _rounded_power_of_ten(red, prec, rnd), prec, rnd)


def _reduce_mod_pi(num: int, den: int, m, red: int, ctx: RealContext):
    """(sin, cos) of pi*num/den + m as raw mpf values, evaluated at its residue r.

    A shift by pi negates sine and cosine alike, so both flip sign when q is
    odd.  mpf_sin and mpf_cos are mpf_cos_sin's two values, rounded alike.
    """
    q, r = residue_mod_pi(num, den, m, red)
    prec, rnd = ctx._mp._prec_rounding
    cv, sv = mpf_cos_sin(_residue_argument(r, red, prec, rnd), prec, rnd)
    return (mpf_neg(sv, prec, rnd), mpf_neg(cv, prec, rnd)) if q & 1 else (sv, cv)


def sin_int(m, ctx: RealContext, run=None):
    """sin(m) for an exact int or Fraction m of any magnitude, reduced exactly modulo pi.

    With run, a sine_run of flint_residues for ctx, m is its next index and
    the value is taken from it: the same bits, and fast along consecutive m.
    Any other m raises CrossCheckError.
    """
    if run is not None:
        return ctx._mp.make_mpf(_next_sine(run, m))
    return ctx._mp.make_mpf(_reduce_mod_pi(0, 1, m, reduction_digits(m, ctx), ctx)[0])


def cos_int(m, ctx: RealContext):
    """cos(m) for an exact int or Fraction m, by the same reduction as sin_int."""
    return ctx._mp.make_mpf(_reduce_mod_pi(0, 1, m, reduction_digits(m, ctx), ctx)[1])


def sincos_pi_rational_plus_int(num: int, den: int, m: int, ctx: RealContext):
    """(sin, cos) of pi*num/den + m, evaluated by exact scaled reduction.

    Used for shifted kernel arguments of the form (pi/2)*w + p, whose integer
    parts are far larger than any working precision but exactly known.
    """
    if den <= 0:
        raise DomainError("denominator must be positive")
    red = ctx.effective_digits + 2 * decimal_length(abs(num) // den + abs(m) + 1) + 2
    sv, cv = _reduce_mod_pi(num, den, m, red, ctx)
    return ctx._mp.make_mpf(sv), ctx._mp.make_mpf(cv)


# ---------------------------------------------------------------------------
# certified sines along a run of consecutive indices
# ---------------------------------------------------------------------------

_ROTATION_GUARD = 64  # the rotation carries prec + 64 bits
_ANCHOR_EVERY = 1024  # rotation steps between two anchors
_MAGNITUDES = range(-7, 3)  # mag of the arguments analysed: 2**-8 <= |x| < 4


def _mpmath_analysed(version: str) -> bool:
    """True for the mpmath releases whose sine the bounds below were read from (1.3.x)."""
    return version.split(".")[:2] == ["1", "3"]


def _cos_sin_error(p: int) -> int:
    """Bound, in units of 2**-p, on the error of either value of mpmath 1.3's
    fixed-point ``cos_sin_basecase(t, p)`` against cos and sin of t/2**p, 0 <= t < 2**(p+1).

    Read from ``mpmath/libmp/libelefun.py`` 1.3.  Up to COS_SIN_CACHE_PREC bits
    (400 on the Python backend, 200 under gmpy2) t splits into its top 8 bits,
    whose cos and sin come from a table built by ``exponential_series`` and
    shifted down (each within 2 units), and a rest below 2**-8, whose cos and
    sin are Taylor sums.  Each term of those sums is a floor of a product and
    a floor division, off by at most 1 + 1.01/k units, and the loop stops
    within two terms of the first k with k 2**(p-8k) < k!; with K that k,
    each sum is within K/2 + 4 units.  The addition formula mixes the two sums
    like a rotation (their error grows by at most sqrt 2), adds 2.01 for the
    table and one for its floor: under 0.71 K + 8.7 units.
    Above COS_SIN_CACHE_PREC, ``exponential_series`` sums the series of
    cos(t/2**r) with 10 + 2 max(r, -mag t) extra bits (e0 < p/8 + 20 units
    there), doubles the angle r times (each doubling multiplies the error by
    at most 4 and adds one) and takes the sine as sqrt(1 - cos**2), which
    multiplies the error by cot(t) < 2**(1 - mag t); the extra bits absorb
    both, so each value is within 1 + (e0 + 1)/512 + 2**-10 units.
    """
    if p > COS_SIN_CACHE_PREC:
        return 3 + p // 1024
    k = 2
    while k << p >= math.factorial(k) << (8 * k):
        k += 1
    return k + 12


def _mpmath_sin_error(mag: int, prec: int) -> tuple[int, int]:
    """(bound, wp): mpf_sin(x, prec) rounds a fixed-point S at 2**-wp that is
    within bound units of sin x, for x with mag(x) = mag in _MAGNITUDES.

    ``mpf_cos_sin`` works at prec + 10 bits.  ``mod_pi2`` turns x into a fixed
    point t: for mag <= 0 at wp = prec + 10 - mag, truncated (under one unit);
    for mag > 0 it takes x modulo pi/2 at wp + mag + 20 bits and drops mag
    bits, so wp = prec + 30, and t is off by under 5 units (one for the floor,
    at most two quarter turns of pi_fixed's error of at most 4 units, halved).
    When x lies within 2**-30 of a multiple of pi/2 it reduces again at a
    larger wp, where the absolute bound is smaller still.  The quadrant swaps
    and sign flips are exact.
    """
    wp = prec + 30 if mag > 0 else prec + 10 - mag
    return _cos_sin_error(wp) + 5, wp


def _round_certified(a: int, err: int, bits: int, prec: int):
    """a/2**bits rounded to prec bits (nearest, ties to even) as a raw mpf, if
    every value strictly within err/2**bits of it rounds the same; else None.

    That holds when no rounding midpoint and no power of two lies in the
    interval (Ziv's test)."""
    lo, hi = abs(a) - err, abs(a) + err
    shift = hi.bit_length() - prec
    if lo <= 0 or lo.bit_length() != hi.bit_length() or shift < 1:
        return None
    half = 1 << (shift - 1)
    k = (lo + half) >> shift
    if k != (hi + half) >> shift:
        return None
    return from_man_exp(-k if a < 0 else k, shift - bits)


def flint_residues(ctx: RealContext, n: int, wide: int, pi: int):
    """Yield (parity, sin_int's argument x, the reduced angle at 2**-wide) for n, n + 1, ...;
    pi is pi at 2**-wide.

    n modulo pi as sin_int reduces it, stepped exactly: at red =
    reduction_digits(n) scale digits, (q, r) = divmod(n 10**red, p) with
    p = pi_scaled(red).  While red holds, n + 1 adds 10**red to r and
    subtracts p at most once, so the stepped (q, r) are the integers
    ``residue_mod_pi`` computes; past the last index at red it starts afresh.
    """
    prec, rnd = ctx._mp._prec_rounding
    while True:
        red = reduction_digits(n, ctx)
        # the last index at this scale, by search: reduction_digits does not decrease
        last, over = n, 2 * n + 2
        while reduction_digits(over, ctx) == red:
            last, over = over, 2 * over + 2
        while over - last > 1:
            mid = (last + over) // 2
            last, over = (mid, over) if reduction_digits(mid, ctx) == red else (last, mid)
        ten, p = 10**red, pi_scaled(red)
        q, r = divmod(n * ten, p)
        for n in range(n, last + 1):
            # the nearest multiple, as residue_mod_pi takes it
            near, rest = (q + 1, r - p) if 2 * r > p else (q, r)
            yield near, _residue_argument(rest, red, prec, rnd), (n << wide) - near * pi
            r += ten
            if r >= p:
                q, r = q + 1, r - p
        n = last + 1


def alpha_pi_residues(ctx: RealContext, alpha_scaled: int, n: int, wide: int, pi: int):
    """Yield (parity, the series' argument x, the reduced angle at 2**-wide) for n, n + 1, ...;
    pi is pi at 2**-wide.

    pi alpha n modulo pi as the alpha-pi series reduces it, stepped exactly:
    whole, frac = divmod(alpha_scaled n, 10**eff), and the argument is
    pi_const * (frac/10**eff) rounded at each step; n + 1 adds alpha_scaled's
    own whole and fractional parts, carrying at most one.
    """
    prec, rnd = ctx._mp._prec_rounding
    scale = 10**ctx.effective_digits
    exact_scale, pi_val = from_int(scale), pi_const(ctx)._mpf_
    step_whole, step_frac = divmod(alpha_scaled, scale)
    whole, frac = divmod(alpha_scaled * n, scale)
    while True:
        x = mpf_mul(pi_val, mpf_div(from_int(frac, prec, rnd), exact_scale, prec, rnd), prec, rnd)
        yield whole, x, (pi * frac) // scale
        whole, frac = whole + step_whole, frac + step_frac
        if frac >= scale:
            whole, frac = whole + 1, frac - scale


def sine_run(ctx: RealContext, end: int, residues, n: int = 1):
    """Yield (n, sine) for n, n + 1, ..., end, each sine a raw mpf bit for bit
    the per-index path of its residues (flint_residues or alpha_pi_residues).

    residues(n, L, pi) returns an iterator of, for n, n + 1, ..., the
    parity, the per-index argument x and the exact angle phi reduced (n, or
    pi alpha_scaled n / 10**eff, less a multiple of pi), at 2**-L.  The
    per-index value is mpf_sin(x), negated for odd parity.  Set-up runs at
    the first next(), and asks for pi at the largest scale first, so pi is
    computed once.

    sin(x) = sin(phi + delta) with delta = x - phi, and the value is rounded
    from A = sin phi + delta cos phi at B = prec + 64 bits:
    - (cos phi, sin phi) advance by a fixed-point rotation, anchored at n and
      then after every _ANCHOR_EVERY steps from the exact reduced angle by
      ``cos_sin_basecase``.  Anchor and step values are each within
      rho = _cos_sin_error(B) + 3 units (the angle, formed with pi at
      L = B + bits(end) + 4 bits, is within 3 units).  A rotation with
      entries within rho and a floor per step adds at most sqrt 2 (rho + 1)
      to the error norm per step (Higham, Accuracy and Stability of
      Numerical Algorithms, on recurrences), so after j steps the error is
      within 2 rho + j (2 rho + 2) units.
    - delta comes from the exact bits of x and pi at L bits, within 1/8 unit;
      the product's floor adds one, and the neglected terms are below
      delta**2 (measured per index).
    The value is used only when the interval of that bound plus mpmath's
    (_mpmath_sin_error) holds no rounding boundary at prec bits (Ziv's test):
    then mpf_sin(x), which rounds a value inside it, returns the same bits.
    Otherwise the term takes the per-index mpf_sin(x), and so does every term
    on mpmath other than 1.3.x, with |x| < 2**-8 or with |x| >= 4.
    """
    prec, rnd = ctx._mp._prec_rounding
    bits = prec + _ROTATION_GUARD
    wide = bits + end.bit_length() + 4
    # 10**digits > 2**wide, and no smaller than the largest scale flint reduces at up to end
    digits = max(wide * 30103 // 100000 + 2, reduction_digits(end, ctx))
    pi = (pi_scaled(digits) << wide) // 10**digits  # under 2 units below pi 2**wide
    pi_bits = pi >> (wide - bits)

    def angle(theta, odd):
        """(cos, sin) at 2**-B of theta/2**L + odd*pi, for |theta| < pi 2**L."""
        t = theta >> (wide - bits)
        c, s = cos_sin_basecase(min(abs(t), pi_bits - abs(t)), bits)
        c, s = (-c if 2 * abs(t) > pi_bits else c), (-s if t < 0 else s)
        return (-c, -s) if odd & 1 else (c, s)

    odd, _, theta = next(residues(1, wide, pi))  # index 1's reduced angle is one step
    tc, ts = angle(theta, odd)
    # per-index error in units of 2**-B: 2 rho for the anchor, 2 rho + 2 per
    # step, and 4 for delta's error, two floors and the strict inequality
    rho = _cos_sin_error(bits) + 3
    base_err, step_err = 2 * rho + 4, 2 * rho + 2
    mpmath_err = {}
    if _mpmath_analysed(mpmath.__version__):
        for mag in _MAGNITUDES:
            bound, wp = _mpmath_sin_error(mag, prec)
            mpmath_err[mag] = bound << (bits - wp)
    # the index range comes first, so the residues are not stepped past end
    steps = itertools.cycle(range(_ANCHOR_EVERY + 1))
    for n, step, (odd, x, theta) in zip(range(n, end + 1), steps, residues(n, wide, pi)):
        if step:
            c, s = (c * tc - s * ts) >> bits, (s * tc + c * ts) >> bits
        else:
            c, s = angle(theta, odd)
        sign, man, exp, bc = x
        bound = mpmath_err.get(exp + bc)
        if man and bound is not None:
            delta = ((-man if sign else man) << (exp + wide)) - theta
            a = s + ((delta * c) >> wide)
            err = bound + base_err + step * step_err + ((delta * delta) >> (2 * wide - bits))
            value = _round_certified(a, err, bits, prec)
            if value is not None:
                yield n, value
                continue
        value = mpf_sin(x, prec, rnd)
        yield n, (mpf_neg(value, prec, rnd) if odd & 1 else value)


def _next_sine(run, m: int):
    """The next sine of a sine_run, which must be the sine of index m; else CrossCheckError."""
    n, value = next(run, (None, None))
    if n != m:
        raise CrossCheckError(f"the sine run does not give sin({m}) next")
    return value
