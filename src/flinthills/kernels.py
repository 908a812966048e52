"""Dirichlet and Fejer summation kernels and the 2-adic shift sequence.

The shift sequence attached to the convergent numerators p_n of pi is
x_n = ((2^(2+2v) + 1) / 2^(2+2v)) * pi * p_n with v the 2-adic valuation of
p_n.  Then 2 x_n p_n is an odd multiple of pi/2 exactly, which swaps sine and
cosine at the shifted argument (2 x_n + 1) p_n and keeps 1/sin bounded there.

Kernel closed forms: the Dirichlet sum over e^(i 2nz), |n| <= x, equals
sin((2x+1)z)/sin(z); the doubly-indexed Fejer sum equals sin((x+1)z)^2/sin(z)^2.
Some texts carry an extra 1/2 on the latter; the double sum itself does not
(at x=1, z=1 the sum is 2 + 2cos2 = 1.16771, twice the halved form), so the
unhalved expression is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from mpmath.libmp import from_rational, round_nearest, to_rational

from .contfrac import constant_convergents, convergents, digits_for_terms, expand
from .errors import (
    CrossCheckError,
    DomainError,
    PrecisionInsufficientError,
    SingularArgumentError,
)
from .mpreal import (
    RealContext,
    _residue_argument,
    cos_int,
    decimal_length,
    make_context,
    pi_const,
    pi_scaled,
    reduction_digits,
    residue_mod_pi,
    sin_int,
    sincos_pi_rational_plus_int,
)

# integer orders above this get the closed form only: the sum form costs one
# working-precision cosine per term
SUM_FORM_MAX_ORDER = 10**6
MAX_ARG_DIGITS = 4300  # Fraction builds 10**exponent first; Python parses ints up to 4300 digits


def v2(m: int) -> int:
    """2-adic valuation: the largest v with 2^v dividing m; m must be nonzero."""
    if m == 0:
        raise DomainError("v2(0) is undefined")
    return (m & -m).bit_length() - 1


@dataclass(frozen=True)
class ShiftSequenceTerm:
    """One term of the shift sequence with its verified trigonometric values."""

    index: int
    p: int
    v2: int
    x: object  # ((2^(2+2v)+1)/2^(2+2v)) * pi * p
    w: int  # (2^(2+2v)+1) * p^2 / 2^(2v), an exact odd integer
    sin_at_shift: object  # sin((2x+1) p), equals +-cos(p)
    cos_at_shift: object  # cos((2x+1) p), equals +-sin(p)
    sin_double: object  # sin(2 x p) = sin(w pi/2), +-1
    cos_double: object  # cos(2 x p), 0
    sin_residual: object  # | |sin((2x+1)p)| - |cos p| |
    cos_residual: object  # | |cos((2x+1)p)| - |sin p| |


@dataclass(frozen=True)
class KernelEval:
    x_param: object
    z: object
    closed_form: object
    sum_form: object | None  # present only for integer x <= SUM_FORM_MAX_ORDER
    abs_bound: object | None


def shift_term(p: int, ctx: RealContext, index: int = 0) -> ShiftSequenceTerm:
    """Shift-sequence term for a convergent numerator p >= 1.

    The identities |sin((2x+1)p)| = |cos p| and |cos((2x+1)p)| = |sin p| are
    asserted to working tolerance; a violation means an arithmetic bug.
    """
    if p < 1:
        raise DomainError("p must be a positive integer")
    v = v2(p)
    a = 2 + 2 * v
    odd_square = (p >> v) ** 2
    w = ((1 << a) + 1) * odd_square  # == (2^a + 1) p^2 / 2^(2v)
    mp = ctx._mp
    x = mp.mpf((1 << a) + 1) / (1 << a) * pi_const(ctx) * p
    # (2x+1) p == pi*(w/2) + p exactly; evaluate both at full reduction
    sin_shift, cos_shift = sincos_pi_rational_plus_int(w, 2, p, ctx)
    sin_double, cos_double = sincos_pi_rational_plus_int(w, 2, 0, ctx)
    sin_res = abs(abs(sin_shift) - abs(cos_int(p, ctx)))
    cos_res = abs(abs(cos_shift) - abs(sin_int(p, ctx)))
    tol = mp.mpf(10) ** (8 - ctx.decimal_digits)
    if sin_res > tol or cos_res > tol or abs(abs(sin_double) - 1) > tol or abs(cos_double) > tol:
        raise CrossCheckError(f"shift identities violated at p={p}")
    return ShiftSequenceTerm(
        index=index,
        p=p,
        v2=v,
        x=x,
        w=w,
        sin_at_shift=sin_shift,
        cos_at_shift=cos_shift,
        sin_double=sin_double,
        cos_double=cos_double,
        sin_residual=sin_res,
        cos_residual=cos_res,
    )


def exact_decimal(text: str, name: str) -> Fraction:
    """A decimal (or a/b) string as an exact rational of bounded size; errors name it."""
    _, e, exponent = text.lower().partition("e")
    try:
        too_long = len(text) > MAX_ARG_DIGITS or (e and abs(int(exponent)) > MAX_ARG_DIGITS)
        value = None if too_long else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{name} must be a number, got {text!r}") from None
    if too_long:  # outside the try: DomainError is a ValueError
        raise DomainError(f"{name} is too long or its exponent too large, got {text!r}")
    return value


def _exact(value, ctx: RealContext, name: str) -> Fraction:
    """An int, Fraction, decimal string, or mpf (at its exact binary value) as a Fraction."""
    if isinstance(value, str):
        return exact_decimal(value, name)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    value = ctx._mp.mpf(value)
    if not ctx._mp.isfinite(value):
        raise DomainError(f"{name} must be finite")
    return Fraction(*map(int, to_rational(value._mpf_)))  # int: under gmpy2 the parts are mpz


def _rounded(q: Fraction, ctx: RealContext):
    """The exact rational q correctly rounded to working precision."""
    return ctx._mp.make_mpf(from_rational(q.numerator, q.denominator, ctx._mp.prec, round_nearest))


def _is_order(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _kernel(x, z, ctx: RealContext, fejer: bool) -> KernelEval:
    """Closed form of either kernel, and its cosine sum for orders up to the cap.

    x and z are exact rationals, so every sine is reduced modulo pi exactly;
    z within 10^(-decimal_digits/2) of a multiple of pi is singular.  The sum
    form runs over cos(2 n theta), theta = z - q pi the same exact residue.
    """
    mp = ctx._mp
    zq = _exact(z, ctx, "z")
    red = reduction_digits(zq, ctx)
    _, r = residue_mod_pi(0, 1, zq, red)
    zv = _rounded(zq, ctx)
    if abs(r) < 10 ** (red - ctx.decimal_digits // 2):
        raise SingularArgumentError(f"z={zv} is within tolerance of a multiple of pi")
    order = _is_order(x)
    xq = _exact(x, ctx, "x")
    if fejer:
        s = sin_int((xq + 1) * zq, ctx)
        closed = s * s / (sin_int(zq, ctx) ** 2)
    else:
        closed = sin_int((2 * xq + 1) * zq, ctx) / sin_int(zq, ctx)
    sum_form = None
    if order and x <= SUM_FORM_MAX_ORDER:
        theta = mp.make_mpf(_residue_argument(r, red, *mp._prec_rounding))
        one = mp.mpf(1)
        terms = (2 * mp.cos(2 * n * theta) for n in range(1, x + 1))
        # Fejer: the Dirichlet kernels D_0 + ... + D_x, each one cosine pair longer
        sum_form = sum(accumulate(terms, initial=one)) if fejer else sum(terms, one)
        tol = mp.mpf(10) ** (6 - ctx.decimal_digits)
        if abs(closed - sum_form) > tol * max(one, abs(closed)):
            raise CrossCheckError(f"{'Fejer' if fejer else 'kernel'} sum and closed form disagree at x={x}, z={zv}")
    return KernelEval(
        x_param=x if order else _rounded(xq, ctx),
        z=zv,
        closed_form=closed,
        sum_form=sum_form,
        abs_bound=mp.mpf((x + 1) ** 2 if fejer else 2 * x + 1) if order else None,
    )


def dirichlet_kernel(x, z, ctx: RealContext) -> KernelEval:
    """Dirichlet kernel at (x, z): closed form sin((2x+1)z)/sin(z).

    For an integer order x >= 0 the defining cosine sum must agree with it as
    well; any real x (an int, Fraction, decimal string or mpf, like z) gets
    the closed form alone, which continues analytically in x.
    """
    if _is_order(x) and x < 0:
        raise DomainError("integer kernel order must be nonnegative")
    return _kernel(x, z, ctx, fejer=False)


def fejer_kernel(x: int, z, ctx: RealContext) -> KernelEval:
    """Fejer kernel at integer x >= 0: double cosine sum vs sin((x+1)z)^2/sin(z)^2."""
    if not _is_order(x) or x < 0:
        raise DomainError("Fejer kernel requires an integer order x >= 0")
    return _kernel(x, z, ctx, fejer=True)


# ---------------------------------------------------------------------------
# reciprocal-sine bound tables over the convergent numerators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealTechniqueRow:
    index: int
    p: int
    v2: int
    w_odd: bool  # w = (2^(2+2v)+1) p^2 / 2^(2v) is odd
    shift_residual: object  # the larger of the two shift-identity residuals
    recip_sin: object
    ratio: object  # (1/|sin p|) / p


def recip_sin_bound_real_technique(n_max: int, ctx: RealContext) -> list[RealTechniqueRow]:
    """Per-convergent ratio (1/|sin p_n|)/p_n and shift-identity residual."""
    rows = []
    for c in constant_convergents("pi", n_max):
        term = shift_term(c.p, ctx, index=c.index + 1)
        recip = 1 / sin_int(c.p, ctx)
        rows.append(
            RealTechniqueRow(
                index=term.index,
                p=c.p,
                v2=term.v2,
                w_odd=term.w % 2 == 1,
                shift_residual=max(term.sin_residual, term.cos_residual),
                recip_sin=recip,
                ratio=abs(recip) / c.p,
            )
        )
    return rows


@dataclass(frozen=True)
class IntegerTechniqueRow:
    index: int
    p: int
    floor_x: int
    argument: int  # (2 floor(x) + 1) p
    abs_sin: object


def _floor_shift_parameter(p: int, ctx: RealContext) -> int:
    """floor(x_n) for x_n = ((2^a+1)/2^a) pi p, computed in exact scaled form.

    With P = pi_scaled(red) <= pi 10^red < P + 1 and m = (2^a+1) p, x_n lies in
    [P m, (P + 1) m) / (2^a 10^red); the floor is certified when both ends share it.
    """
    a = 2 + 2 * v2(p)
    red = ctx.effective_digits + decimal_length(p) + 2
    den = 10**red << a
    m = ((1 << a) + 1) * p
    low = pi_scaled(red) * m
    floor_x = low // den
    if (low + m - 1) // den != floor_x:
        raise PrecisionInsufficientError(f"floor(x) ambiguous at p={p}; raise precision")
    return floor_x


def recip_sin_bound_integer_technique(n_max: int, ctx: RealContext) -> list[IntegerTechniqueRow]:
    """Same table with the shift parameter truncated to an integer.

    Records |sin((2 floor(x_n) + 1) p_n)| per row; the minimum over rows is
    the empirical content of the claimed lower bound.
    """
    rows = []
    for c in constant_convergents("pi", n_max):
        fx = _floor_shift_parameter(c.p, ctx)
        arg = (2 * fx + 1) * c.p
        abs_sin = abs(sin_int(arg, ctx))
        rows.append(IntegerTechniqueRow(index=c.index + 1, p=c.p, floor_x=fx, argument=arg, abs_sin=abs_sin))
    return rows


@dataclass(frozen=True)
class CfTechniqueRow:
    index: int
    u: int
    v: int
    value: object  # alpha v^2 - u^2 + v/(2 pi)
    distance: object  # distance of value to the nearest integer
    within_bound: bool  # distance < 1/(2 pi)
    abs_sin: object  # |sin(2 pi value)|


def cf_technique_check(d: int, m_max: int, ctx: RealContext) -> list[CfTechniqueRow]:
    """Audit of the continued-fraction shift over sqrt(alpha) = 1/(2 d^(1/4)).

    Requires d > 16 pi^4 so that 2 sqrt(alpha) <= 1/(2 pi).  For each
    convergent u_m/v_m of sqrt(alpha) the row carries
    X = alpha v_m^2 - u_m^2 + v_m/(2 pi), its distance to the nearest integer
    (the quantity that controls |sin(2 pi X)|), and the per-row flag
    distance < 1/(2 pi).  The raw X grows like v_m/(2 pi); only its distance
    to the integers is bounded, and the earliest convergents can miss even
    that bound, so the flags are reported rather than asserted.
    """
    if m_max < 1:
        raise DomainError("m_max must be positive")
    mp = ctx._mp
    threshold = 16 * pi_const(ctx) ** 4
    if mp.mpf(d) <= threshold:
        raise DomainError(f"d must exceed 16 pi^4 = {mp.nstr(threshold, 10)}; got {d}")
    work = make_context(max(ctx.decimal_digits, digits_for_terms(m_max + 3)))
    wmp = work._mp
    sqrt_alpha = 1 / (2 * wmp.sqrt(wmp.sqrt(d)))
    alpha = sqrt_alpha**2
    pq = expand(sqrt_alpha, m_max + 2, work, constant_id=f"recip-2-root4-{d}")
    convs = convergents(pq, min(m_max + 1, len(pq.terms)))
    if len(convs) < m_max + 1:
        raise PrecisionInsufficientError(f"could not certify {m_max} convergents for d={d}")
    two_pi = 2 * pi_const(work)
    inv_two_pi = 1 / two_pi
    rows = []
    for m in range(1, m_max + 1):
        c = convs[m]  # skip the degenerate integer-part convergent 0/1
        value = alpha * c.q * c.q - c.p * c.p + c.q * inv_two_pi
        distance = abs(value - wmp.nint(value))
        abs_sin = wmp.sin(two_pi * distance)  # |sin(2 pi value)|, as distance <= 1/2
        rows.append(
            CfTechniqueRow(
                index=m,
                u=c.p,
                v=c.q,
                value=value,
                distance=distance,
                within_bound=bool(distance < inv_two_pi),
                abs_sin=abs_sin,
            )
        )
    return rows
