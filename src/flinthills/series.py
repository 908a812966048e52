"""Partial sums of the Flint Hills family with compensated accumulation.

Families: the Flint Hills series sum 1/(n^u sin^v n); its lacunary restriction
to the record indices of 1/|sin n| (the convergent numerators of pi, led by 1);
the variant sum 1/(n^u sin^v(alpha pi n)) for irrational alpha; and the "Flat
Hills" sums whose sine argument is the nearest-integer distance or fractional
part of pi^n or pi*base^n.

Sums run in ascending index with Neumaier-compensated accumulation so results
are reproducible bit-for-bit at a given precision regardless of platform.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

from .contfrac import constant_convergents
from .errors import (
    CrossCheckError,
    DomainError,
    PrecisionInsufficientError,
    SingularArgumentError,
)
from .mpreal import RealContext, decimal_length, pi_const, pi_scaled, sin_int, to_scaled

FAMILIES = ("flint", "lacunary", "alpha_pi", "flat_power", "flat_scaled")
FLAT_VARIANTS = ("nearest_power", "nearest_scaled", "frac_power", "frac_scaled")


@dataclass(frozen=True)
class SeriesSpec:
    family: str
    u: object
    v: object
    alpha: object | None = None
    flat_base: int | None = None
    variant: str | None = None
    limit: int = 0


@dataclass(frozen=True)
class PartialSumResult:
    spec: SeriesSpec
    x: int
    value: object
    largest_term: tuple[int, object] | None
    compensation_residual: object


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


class _CompensatedSum:
    """Neumaier-compensated accumulator over context floats."""

    def __init__(self, mp):
        self._mp = mp
        self.total = mp.mpf(0)
        self.carry = mp.mpf(0)

    def add(self, term):
        t = self.total + term
        if abs(self.total) >= abs(term):
            self.carry += (self.total - t) + term
        else:
            self.carry += (term - t) + self.total
        self.total = t

    @property
    def value(self):
        return self.total + self.carry

    @property
    def residual(self):
        return abs(self.carry)


def _power(mp, base, exponent):
    """base**exponent, exact-integer path when the exponent is integral."""
    if isinstance(exponent, int):
        return mp.mpf(base) ** exponent if not isinstance(base, int) else mp.mpf(base**exponent)
    e = mp.mpf(exponent)
    if e == int(e):
        ei = int(e)
        return mp.mpf(base**ei) if isinstance(base, int) else mp.mpf(base) ** ei
    b = mp.mpf(base)
    if b < 0:
        raise DomainError("negative base with non-integer exponent")
    return mp.power(b, e)


def _sin_power(mp, s, v):
    """sin_value**v; rejects non-integer v against a negative sine."""
    e = mp.mpf(v)
    if e == int(e):
        return s ** int(e)
    if s < 0:
        raise DomainError("non-integer sine exponent with negative sine value")
    return mp.power(s, e)


def _run_sum(mp, indices, sine, spec, checkpoints=()):
    """The summation loop: sum of 1/(n^u sine(n)^v) over ascending indices.

    u and v come from the spec.  Returns the result and the (n, running value)
    pairs at the indices listed in checkpoints.
    """
    u, v = spec.u, spec.v
    if not (mp.isfinite(u) and mp.isfinite(v)):
        raise DomainError("series exponents u, v must be finite")
    acc = _CompensatedSum(mp)
    largest = None
    running = []
    for n in indices:
        s = sine(n)
        term = 1 / (_power(mp, n, u) * _sin_power(mp, s, v))
        acc.add(term)
        if largest is None or abs(term) > abs(largest[1]):
            largest = (n, term)
        if n in checkpoints:
            running.append((n, acc.value))
    result = PartialSumResult(
        spec=spec,
        x=spec.limit,
        value=acc.value,
        largest_term=largest,
        compensation_residual=acc.residual,
    )
    return result, running


def _check_uv(u, v):
    if not (float(u) > 0 and float(v) > 0):
        raise DomainError("series exponents u, v must be positive")


def _flint_sine(u, v, x: int, ctx: RealContext):
    """Validate a Flint Hills sum to x; its sine is sin n by exact reduction."""
    if x < 1:
        raise DomainError("x must be >= 1")
    _check_uv(u, v)
    return lambda n: sin_int(n, ctx)


def flint_partial_sum(u, v, x: int, ctx: RealContext) -> PartialSumResult:
    """P_x = sum_{n=1..x} 1/(n^u sin^v n), ascending, compensated."""
    sine = _flint_sine(u, v, x, ctx)
    spec = SeriesSpec(family="flint", u=u, v=v, limit=x)
    return _run_sum(ctx._mp, range(1, x + 1), sine, spec)[0]


def flint_partial_sum_checkpoints(u, v, checkpoints, ctx: RealContext) -> list[tuple[int, object]]:
    """(x, P_x) pairs at the given checkpoints, one ascending compensated pass."""
    _check_uv(u, v)
    marks = sorted(set(int(c) for c in checkpoints))
    if not marks or marks[0] < 1:
        raise DomainError("checkpoints must be positive integers")
    spec = SeriesSpec(family="flint", u=u, v=v, limit=marks[-1])
    return _run_sum(ctx._mp, range(1, marks[-1] + 1), lambda n: sin_int(n, ctx), spec, set(marks))[1]


def lacunary_partial_sum(u, v, x: int, numerators, ctx: RealContext) -> PartialSumResult:
    """Q_x: the same sum restricted to the supplied record indices <= x."""
    if x < 0:
        raise DomainError("x must be >= 0")
    _check_uv(u, v)
    selected = [int(p) for p in numerators if int(p) <= x]
    if not selected:
        warnings.warn("no record indices at or below the limit; sum is empty", stacklevel=2)
    spec = SeriesSpec(family="lacunary", u=u, v=v, limit=x)
    return _run_sum(ctx._mp, selected, lambda p: sin_int(p, ctx), spec)[0]


def _alpha_pi_sine(u, v, alpha, x: int, ctx: RealContext):
    """Validate an alpha-pi sum to x; its sine is n -> sin(alpha pi n).

    alpha n is split into integer and fractional parts in exact scaled
    arithmetic before the sine is taken, so pi never multiplies a large n at
    working precision.  A sine below 10^(5-decimal_digits) cannot be resolved
    and raises.
    """
    if x < 0:
        raise DomainError("x must be >= 0")
    _check_uv(u, v)
    mp = ctx._mp
    eff = ctx.effective_digits
    scale = 10**eff
    alpha_scaled = to_scaled(mp.mpf(alpha), eff)
    pi_val = pi_const(ctx)
    floor_limit = mp.mpf(10) ** (5 - ctx.decimal_digits)

    def sine(n):
        whole, frac = divmod(alpha_scaled * n, scale)
        s = mp.sin(pi_val * (mp.mpf(frac) / scale))
        if whole & 1:
            s = -s
        if abs(s) < floor_limit:
            raise PrecisionInsufficientError(
                f"sin(alpha pi n) below resolution at n={n}; raise precision"
            )
        return s

    return sine


def alpha_pi_partial_sum(u, v, alpha, x: int, ctx: RealContext) -> PartialSumResult:
    """sum_{n=1..x} 1/(n^u sin^v(alpha pi n)); see _alpha_pi_sine."""
    sine = _alpha_pi_sine(u, v, alpha, x, ctx)
    spec = SeriesSpec(family="alpha_pi", u=u, v=v, alpha=alpha, limit=x)
    return _run_sum(ctx._mp, range(1, x + 1), sine, spec)[0]


def _pi_power_scaled(n: int, scale_digits: int) -> tuple[int, int]:
    """(floor(pi^n * 10^k), 10^k) with k sized so the fractional part of pi^n
    survives; error grows by at most one unit per multiplication."""
    red = scale_digits + (n * 49715) // 100000 + 8  # n*log10(pi) integer digits
    s = 10**red
    p = pi_scaled(red)
    acc = p
    for _ in range(n - 1):
        acc = acc * p // s
    return acc, s


def flat_hills_partial_sum(variant: str, a, b, x: int, ctx: RealContext, base: int = 10) -> PartialSumResult:
    """Flat Hills partial sum: argument ||pi^n||, ||pi b^n||, {pi^n} or {pi b^n}.

    Each pi^n (or pi b^n) is carried at enough digits that its fractional part
    is exact to working precision before the distance or fractional part is
    taken.  A term whose argument collapses onto an integer raises.
    """
    if variant not in FLAT_VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; known: {', '.join(FLAT_VARIANTS)}")
    if not float(a) > 1:
        raise DomainError("flat-hills exponent a must exceed 1")
    if float(b) == 0:
        raise DomainError("flat-hills exponent b must be nonzero")
    if x < 0:
        raise DomainError("x must be >= 0")
    if base < 2:
        raise DomainError("base must be >= 2")
    mp = ctx._mp
    eff = ctx.effective_digits
    singular_tol = 10 ** (ctx.decimal_digits // 2)

    def sine(n):
        if variant.endswith("_power"):
            scaled, s = _pi_power_scaled(n, eff)
        else:
            mult = base**n
            red = eff + decimal_length(mult) + 4
            s = 10**red
            scaled = pi_scaled(red) * mult
        frac = scaled % s
        if variant.startswith("nearest"):
            frac = min(frac, s - frac)
        if frac < s // singular_tol or (variant.startswith("frac") and s - frac < s // singular_tol):
            raise SingularArgumentError(
                f"sine argument at n={n} is within tolerance of an integer"
            )
        return mp.sin(mp.mpf(frac) / s)

    if x >= 1 and not variant.endswith("_power"):
        # each term asks for pi at a larger scale than the last; computing the
        # last term's scale first lets every other term derive from it
        pi_scaled(eff + decimal_length(base**x) + 4)

    spec = SeriesSpec(family="flat_power" if "power" in variant else "flat_scaled",
                      u=a, v=b, flat_base=None if "power" in variant else base,
                      variant=variant, limit=x)
    return _run_sum(mp, range(1, x + 1), sine, spec)[0]


def convergence_report(spec: SeriesSpec, ctx: RealContext, measure=None) -> ConvergenceDiagnostics:
    """Convergence prediction plus observed plateau behaviour.

    The prediction is u - v > 0 for the Flint Hills family and
    u - (a-1) v > 0 for the alpha-pi family, a being the supplied
    irrationality measure of alpha.  The geometric bound on the lacunary part
    follows from p_n >= phi^n/sqrt5.  No limit is claimed: the report records
    the relative change between the partial sums at the limit and at half the
    limit, both read from one summation pass.
    """
    mp = ctx._mp
    if spec.family == "flint":
        sine = _flint_sine(spec.u, spec.v, spec.limit, ctx)
        exponent = mp.mpf(spec.u) - mp.mpf(spec.v)
    elif spec.family == "alpha_pi":
        sine = _alpha_pi_sine(spec.u, spec.v, spec.alpha, spec.limit, ctx)
        if measure is None:
            raise DomainError("alpha_pi convergence prediction needs the irrationality measure of alpha")
        exponent = mp.mpf(spec.u) - (mp.mpf(measure) - 1) * mp.mpf(spec.v)
    else:
        raise DomainError(f"convergence report supports flint and alpha_pi, not {spec.family!r}")
    half = max(1, spec.limit // 2)  # past the limit when the limit is 0
    _, running = _run_sum(mp, range(1, max(spec.limit, half) + 1), sine, spec, {half, spec.limit})
    at = dict(running)
    full, half_sum = at.get(spec.limit, mp.mpf(0)), at[half]
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
    for c in constant_convergents("pi", n_max)[:n_max]:
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


def _log_gamma_euler(z: float, terms: int, log_factorial: float, log_terms: float) -> tuple[int, float]:
    """(sign, log|Gamma(z)|) by the convergent product n! n^z / (z...(z+n)),
    argument-shifted into (0, 1); pure double-precision, independent of any
    library gamma."""
    k = math.floor(z)
    w = z - k
    if w == 0.0:
        raise DomainError("gamma pole")
    # product relating Gamma(z) to Gamma(w): Gamma(w + k) = Gamma(w) * prod
    sign = 1
    shift_log = 0.0
    if k > 0:
        for j in range(k):
            f = w + j
            shift_log += math.log(abs(f))
    elif k < 0:
        for j in range(-k):
            f = z + j
            if f < 0:
                sign = -sign
            shift_log -= math.log(abs(f))
    # Euler product for Gamma(w), w in (0,1): all factors positive
    n = terms
    gw = log_factorial + w * log_terms
    acc = 0.0
    for i in range(n + 1):
        acc += math.log(w + i)
    gw -= acc
    return sign, gw + shift_log


_EULER_TERMS = 400_000


@functools.cache
def _log_factorial(n: int) -> float:
    """log(n!) summed term by term in ascending order (double precision)."""
    total = 0.0
    for k in range(2, n + 1):
        total += math.log(k)
    return total


def _gamma_pair_euler(z: float) -> float:
    """Gamma(1-z) Gamma(z) by the convergent-product route (double precision)."""
    n = _EULER_TERMS
    log_factorial = _log_factorial(n)
    log_terms = math.log(n)
    s1, l1 = _log_gamma_euler(1 - z, n, log_factorial, log_terms)
    s2, l2 = _log_gamma_euler(z, n, log_factorial, log_terms)
    return s1 * s2 * math.exp(l1 + l2)


def gamma_reflection_table(n_max: int, ctx: RealContext, cross_check: bool = True) -> list[GammaReflectionRow]:
    """Rows (Gamma(1-p/pi) Gamma(p/pi), pi^2/(p sin p)) via the reflection identity.

    For the first three rows an independent low-precision evaluation of the
    gamma product (classical convergent-product formula, double floats) must
    agree to four digits; disagreement raises.
    """
    mp = ctx._mp
    pi_val = pi_const(ctx)
    rows = []
    for c in constant_convergents("pi", n_max)[:n_max]:
        s = sin_int(c.p, ctx)
        reflection = pi_val / s
        scaled_ratio = pi_val**2 / (c.p * s)
        if cross_check and c.index + 1 <= 3:
            independent = _gamma_pair_euler(c.p / math.pi)
            if abs(independent - float(reflection)) > 5e-4 * abs(float(reflection)):
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
