"""Partial sums of the Flint Hills family with compensated accumulation.

Families: the Flint Hills series sum 1/(n^u sin^v n); its lacunary restriction
to the record indices of 1/|sin n| (the convergent numerators of pi, led by 1);
the variant sum 1/(n^u sin^v(alpha pi n)) for irrational alpha; and the "Flat
Hills" sums whose sine argument is the nearest-integer distance or fractional
part of pi^n or pi*base^n.

Sums run in ascending index with Neumaier-compensated accumulation so results
are reproducible bit-for-bit at a given precision regardless of platform.  The
summation loop and the sines work on raw mpmath values (``mpmath.libmp``
tuples) and round every step exactly where the mpf operators would, so they
return the bits of the same loop over mpf objects without building an object
per operation; only the result is wrapped as mpf.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from mpmath.libmp import (
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_ge,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_pow,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sin,
    mpf_sub,
)

from .contfrac import constant_convergents, convergent_pairs, expand_constant
from .errors import (
    CrossCheckError,
    DomainError,
    PrecisionInsufficientError,
    SingularArgumentError,
)
from .mpreal import (
    RealContext,
    _next_sine,
    alpha_pi_residues,
    decimal_length,
    flint_residues,
    pi_const,
    pi_scaled,
    sin_int,
    sine_run,
    to_scaled,
)

FAMILIES = ("flint", "lacunary", "alpha_pi", "flat_power", "flat_scaled")
FLAT_VARIANTS = ("nearest", "frac")


@dataclass(frozen=True)
class SeriesSpec:
    family: str
    u: object
    v: object
    alpha: object | None = None
    flat_base: int = 10
    variant: str | None = None  # flat families: "nearest" or "frac"
    limit: int = 0


@dataclass(frozen=True)
class PartialSumResult:
    spec: SeriesSpec
    x: int
    value: object
    largest_term: tuple[int, object] | None
    compensation_residual: object
    checkpoints: tuple[tuple[int, object], ...]  # (c, sum over indices <= c)


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    family: str
    u: object
    v: object
    measure: object | None
    exponent: object  # u - v, or u - (a-1) v
    predicted_convergent: bool
    lacunary_tail_bound: object  # geometric bound via p_n >= phi^n/sqrt5
    partial_sum: object
    half_sum: object
    last_decade_relative_change: object


# n**k is built as an exact integer (then rounded once) only below this many
# bits; a larger power is rounded at every step of mpmath's own power
EXACT_POWER_BITS = 1 << 20


def _exponent(mp, x):
    """x as an int when it is integral, else as a raw mpf: how _power and
    _sin_power take their exponent."""
    e = mp.mpf(x)
    return int(e) if e == int(e) else e._mpf_


def _power(n: int, u, prec: int, rnd: str):
    """n**u as a raw mpf for a positive int index n; u as from _exponent."""
    if type(u) is not int:
        return mpf_pow(from_int(n, prec, rnd), u, prec, rnd)
    if u * n.bit_length() < EXACT_POWER_BITS:
        return from_int(n**u, prec, rnd)
    return mpf_pow_int(from_int(n, prec, rnd), u, prec, rnd)


def _sin_power(s, v, prec: int, rnd: str):
    """s**v for a raw mpf sine value s; rejects non-integer v against a negative sine."""
    if type(v) is int:
        return mpf_pow_int(s, v, prec, rnd)
    if mpf_lt(s, fzero):
        raise DomainError("non-integer sine exponent with negative sine value")
    return mpf_pow(s, v, prec, rnd)


def _run_sum(mp, indices, sine, spec, checkpoints=()):
    """The summation loop: sum of 1/(n^u sine(n)^v) over ascending indices.

    u and v come from the spec; sine(n) returns a raw mpf.  The loop runs on
    raw mpf values and rounds each step as the mpf operators would, so the
    result is the same bits as the same loop over mpf objects.  Accumulation
    is Neumaier's compensated sum.  checkpoints, ascending, each get the
    running sum over the indices at or below them, so a checkpoint between two
    sparse indices is exact too.  The result covers the limit or the last
    checkpoint, whichever is larger.
    """
    if not (mp.isfinite(spec.u) and mp.isfinite(spec.v)):
        raise DomainError("series exponents u, v must be finite")
    prec, rnd = mp._prec_rounding
    u, v = _exponent(mp, spec.u), _exponent(mp, spec.v)
    total = carry = fzero
    largest = None  # (n, term, |term|)
    running = []
    for n in indices:
        while len(running) < len(checkpoints) and checkpoints[len(running)] < n:
            running.append((checkpoints[len(running)], mpf_add(total, carry, prec, rnd)))
        s = sine(n)
        den = mpf_mul(_power(n, u, prec, rnd), _sin_power(s, v, prec, rnd), prec, rnd)
        term = mpf_rdiv_int(1, den, prec, rnd)
        t = mpf_add(total, term, prec, rnd)
        size = mpf_abs(term)
        if mpf_ge(mpf_abs(total), size):
            carry = mpf_add(carry, mpf_add(mpf_sub(total, t, prec, rnd), term, prec, rnd), prec, rnd)
        else:
            carry = mpf_add(carry, mpf_add(mpf_sub(term, t, prec, rnd), total, prec, rnd), prec, rnd)
        total = t
        if largest is None or mpf_gt(size, largest[2]):
            largest = (n, term, size)
    running += [(c, mpf_add(total, carry, prec, rnd)) for c in checkpoints[len(running):]]
    make = mp.make_mpf
    return PartialSumResult(
        spec=spec,
        x=max([spec.limit, *checkpoints]),
        value=make(mpf_add(total, carry, prec, rnd)),
        largest_term=None if largest is None else (largest[0], make(largest[1])),
        compensation_residual=make(mpf_abs(carry, prec, rnd)),
        checkpoints=tuple((c, make(value)) for c, value in running),
    )


def _check_uv(mp, spec):
    # compared as mpf, not float: an int exponent past 2^1024 has no float
    if not (mp.mpf(spec.u) > 0 and mp.mpf(spec.v) > 0):
        raise DomainError("series exponents u, v must be positive")


def _record_indices(x: int) -> list[int]:
    """The record indices of 1/|sin n| up to x: 1, then pi's convergent numerators.

    The n-th numerator (from 0) is at least the Fibonacci number F(n+1) >=
    phi^(n-1), so the first ceil(log_phi x) + 2 quotients of pi hold every
    numerator up to x.  The numerators increase, and they are folded only up
    to the first one above x.
    """
    count = math.ceil(math.log(max(x, 1)) / math.log((1 + math.sqrt(5)) / 2)) + 2
    numerators = (p for p, _ in convergent_pairs(expand_constant("pi", count), count))
    return list(itertools.takewhile(lambda p: p <= x, itertools.chain([1], numerators)))


def _alpha_pi_sine(alpha, ctx: RealContext, end: int):
    """n -> sin(alpha pi n) as a raw mpf, for n = 1, 2, ..., end in order.

    alpha n is split into integer and fractional parts in exact scaled
    arithmetic before the sine is taken, so pi never multiplies a large n at
    working precision; the sines come from a sine_run of alpha_pi_residues,
    and an n out of order raises CrossCheckError.  A sine below
    10^(5-decimal_digits) cannot be resolved and raises.
    """
    mp = ctx._mp
    scaled = to_scaled(mp.mpf(alpha), ctx.effective_digits)
    run = sine_run(ctx, end, functools.partial(alpha_pi_residues, ctx, scaled))
    floor_limit = (mp.mpf(10) ** (5 - ctx.decimal_digits))._mpf_

    def sine(n):
        s = _next_sine(run, n)
        if mpf_lt(mpf_abs(s), floor_limit):
            raise PrecisionInsufficientError(
                f"sin(alpha pi n) below resolution at n={n}; raise precision"
            )
        return s

    return sine


def _pi_powers(scale_digits: int):
    """Yield (acc, 10^k) for n = 1, 2, ... with |acc/10^k - pi^n| < 10^-scale_digits,
    so the fractional part of pi^n survives to scale_digits digits.

    acc is the chain p, p*p//s, ... of n - 1 floor divisions from
    p = pi_scaled(k), which lies below pi * 10^k by less than one unit.  Each step
    multiplies the error so far by about pi, adds pi^j times p's error and
    less than one unit for the floor, so the error of acc is under
    (2n + 1) pi^(n-1) units.  k is scale_digits plus floor(n * 0.49715) digits,
    and n * 0.49715 >= n * log10(pi), so those digits absorb all but one
    digit of the pi^(n-1) growth; 8 more absorb that digit and the 2n + 1 for
    any n below 10^7.  While n - 1 and n share k, acc_n is acc_(n-1) * p // s,
    one multiplication; a new k restarts the chain from s * p // s = p.
    """
    red = None
    for n in itertools.count(1):
        k, steps = scale_digits + (n * 49715) // 100000 + 8, 1
        if k != red:
            red, s, p, acc, steps = k, 10**k, pi_scaled(k), 10**k, n
        for _ in range(steps):
            acc = acc * p // s
        yield acc, s


def _flat_sine(spec: SeriesSpec, ctx: RealContext):
    """n -> sin of ||pi^n||, ||pi b^n||, {pi^n} or {pi b^n} as a raw mpf.

    Each pi^n (or pi b^n) is carried at enough digits that its fractional part
    is exact to working precision before the distance or fractional part is
    taken; that part is rounded to working precision and divided by the exact
    scale.  A term whose argument collapses onto an integer raises.  pi^n
    is carried from n - 1, so _run_sum calls it for n = 1, 2, ... in order.
    """
    power, nearest, base = spec.family == "flat_power", spec.variant == "nearest", spec.flat_base
    prec, rnd = ctx._mp._prec_rounding
    eff = ctx.effective_digits
    singular_tol = 10 ** (ctx.decimal_digits // 2)
    pi_powers = _pi_powers(eff)

    def sine(n):
        if power:
            scaled, s = next(pi_powers)
        else:
            mult = base**n
            red = eff + decimal_length(mult) + 4
            s = 10**red
            scaled = pi_scaled(red) * mult
        frac = scaled % s
        if nearest:
            frac = min(frac, s - frac)
        if frac < s // singular_tol or (not nearest and s - frac < s // singular_tol):
            raise SingularArgumentError(
                f"sine argument at n={n} is within tolerance of an integer"
            )
        return mpf_sin(mpf_div(from_int(frac, prec, rnd), from_int(s), prec, rnd), prec, rnd)

    return sine


def _terms(spec: SeriesSpec, ctx: RealContext, end: int):
    """Validate the spec; return its index stream up to end and its sine."""
    x, mp = spec.limit, ctx._mp
    if spec.family in ("flint", "lacunary"):
        if x < 1:
            raise DomainError("x must be >= 1")
        _check_uv(mp, spec)
        if spec.family == "lacunary":
            return _record_indices(end), lambda n: sin_int(n, ctx)._mpf_
        run = sine_run(ctx, end, functools.partial(flint_residues, ctx))
        # every integer sine stays a call of sin_int, the layer bench/tracing.py counts as reduction
        return range(1, end + 1), lambda n: sin_int(n, ctx, run)._mpf_
    if spec.family == "alpha_pi":
        if x < 0:
            raise DomainError("x must be >= 0")
        _check_uv(mp, spec)
        return range(1, end + 1), _alpha_pi_sine(spec.alpha, ctx, end)
    if spec.family in ("flat_power", "flat_scaled"):
        if spec.variant not in FLAT_VARIANTS:
            raise DomainError(f"unknown variant {spec.variant!r}; known: {', '.join(FLAT_VARIANTS)}")
        if not mp.mpf(spec.u) > 1:
            raise DomainError("flat-hills exponent a must exceed 1")
        if mp.mpf(spec.v) == 0:
            raise DomainError("flat-hills exponent b must be nonzero")
        if x < 0:
            raise DomainError("x must be >= 0")
        if spec.flat_base < 2:
            raise DomainError("base must be >= 2")
        return range(1, end + 1), _flat_sine(spec, ctx)
    raise DomainError(f"unknown family {spec.family!r}; known: {', '.join(FAMILIES)}")


def partial_sum(spec: SeriesSpec, ctx: RealContext, checkpoints=()) -> PartialSumResult:
    """Sum 1/(n^u s(n)^v), ascending and compensated, over the family's indices.

    flint sums sin n over n = 1..x; lacunary the same over the record indices
    of 1/|sin n| (1 and pi's convergent numerators) up to x; alpha_pi sums
    sin(alpha pi n); flat_power and flat_scaled take the sine of ||pi^n|| or
    ||pi b^n|| (variant "nearest") or of the fractional part (variant "frac"),
    with u = a and v = b.  The result carries (c, running sum) for each
    checkpoint c, and a checkpoint past the limit extends the sum to it.
    """
    marks = sorted({int(c) for c in checkpoints})
    if marks and marks[0] < 1:
        raise DomainError("checkpoints must be positive integers")
    indices, sine = _terms(spec, ctx, max([spec.limit, *marks]))
    return _run_sum(ctx._mp, indices, sine, spec, marks)


def convergence_report(spec: SeriesSpec, ctx: RealContext, measure=None) -> ConvergenceDiagnostics:
    """Convergence prediction plus observed plateau behaviour.

    The prediction is u - v > 0 for the Flint Hills family and
    u - (a-1) v > 0 for the alpha-pi family, a being the supplied
    irrationality measure of alpha.  The geometric bound on the lacunary part
    follows from p_n >= phi^n/sqrt5.  No limit is claimed: the report records
    the relative change between the partial sums at the limit and at half the
    limit, both checkpoints of one summation pass.
    """
    mp = ctx._mp
    if spec.family not in ("flint", "alpha_pi"):
        raise DomainError(f"convergence report supports flint and alpha_pi, not {spec.family!r}")
    if measure is not None and mp.isnan(measure):
        raise DomainError("irrationality measure must not be NaN")
    half = max(1, spec.limit // 2)  # past the limit when the limit is 0
    indices, sine = _terms(spec, ctx, max(spec.limit, half))
    if spec.family == "flint":
        exponent = mp.mpf(spec.u) - mp.mpf(spec.v)
    elif measure is None:
        raise DomainError("alpha_pi convergence prediction needs the irrationality measure of alpha")
    else:
        exponent = mp.mpf(spec.u) - (mp.mpf(measure) - 1) * mp.mpf(spec.v)
    at = dict(_run_sum(mp, indices, sine, spec, sorted({half, spec.limit})).checkpoints)
    full, half_sum = at[spec.limit], at[half]
    predicted = bool(exponent > 0)
    phi = (1 + mp.sqrt(5)) / 2
    if predicted:
        r = phi ** (-exponent)
        tail = mp.mpf(5) ** (exponent / 2) * r / (1 - r)
    else:
        tail = mp.inf
    change = abs(full - half_sum) / abs(full) if full != 0 else mp.mpf(0)
    return ConvergenceDiagnostics(
        family=spec.family,
        u=spec.u,
        v=spec.v,
        measure=measure,
        exponent=exponent,
        predicted_convergent=predicted,
        lacunary_tail_bound=tail,
        partial_sum=full,
        half_sum=half_sum,
        last_decade_relative_change=change,
    )


# ---------------------------------------------------------------------------
# reference tables over the convergent numerators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecipSinRow:
    index: int
    p: int
    recip_sin: object  # 1/sin(p)
    recip_inv_sin: object  # 1/sin(1/p)
    ratio: object  # sin(p)/sin(1/p)


def recip_sin_table(n_max: int, ctx: RealContext) -> list[RecipSinRow]:
    """Rows (p_n, 1/sin p_n, 1/sin(1/p_n), sin p_n / sin(1/p_n))."""
    mp = ctx._mp
    rows = []
    for c in constant_convergents("pi", n_max):
        s = sin_int(c.p, ctx)
        s_inv = mp.sin(mp.mpf(1) / c.p)
        rows.append(
            RecipSinRow(
                index=c.index + 1,
                p=c.p,
                recip_sin=1 / s,
                recip_inv_sin=1 / s_inv,
                ratio=s / s_inv,
            )
        )
    return rows


@dataclass(frozen=True)
class GammaReflectionRow:
    index: int
    p: int
    reflection: object  # Gamma(1 - p/pi) Gamma(p/pi), evaluated as pi/sin(p)
    scaled_ratio: object  # pi^2/(p sin p)


def gamma_reflection_table(n_max: int, ctx: RealContext) -> list[GammaReflectionRow]:
    """Rows (Gamma(1-p/pi) Gamma(p/pi), pi^2/(p sin p)) via the reflection identity.

    On the first three rows (p = 3, 22, 333) the C library's double-precision
    gamma, which shares no code with this package or mpmath, must agree with
    the reflection to a relative 1e-9; disagreement raises CrossCheckError.
    """
    mp = ctx._mp
    pi_val = pi_const(ctx)
    rows = []
    for c in constant_convergents("pi", n_max):
        s = sin_int(c.p, ctx)
        reflection = pi_val / s
        scaled_ratio = pi_val**2 / (c.p * s)
        if c.index + 1 <= 3:
            z = c.p / math.pi
            independent = math.gamma(1 - z) * math.gamma(z)
            if abs(independent - float(reflection)) > 1e-9 * abs(float(reflection)):
                raise CrossCheckError(
                    f"gamma product cross-check failed at p={c.p}: "
                    f"{independent} vs {float(reflection)}"
                )
        rows.append(
            GammaReflectionRow(
                index=c.index + 1, p=c.p, reflection=reflection, scaled_ratio=scaled_ratio
            )
        )
    return rows
