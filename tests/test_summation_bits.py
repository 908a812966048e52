"""Bit-identity guard for the raw-tuple summation loop.

``series.partial_sum`` runs its compensated sum on raw mpmath values.  It must
return exactly the bits that the same loop over mpf objects returns: the
value, the largest term (index and value), the compensation residual and
every checkpoint.  That loop, with its power helpers and the four sines
(exact reduction of an integer, alpha-pi, flat-power and flat-scaled) written
with mpf operators, is kept here as the reference.
"""

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flinthills as fh
from flinthills import mpreal, series
from flinthills.mpreal import decimal_length, pi_const, pi_scaled, reduction_digits, residue_mod_pi, to_scaled

EXACT_POWER_BITS = 1 << 20


@pytest.fixture(autouse=True, scope="module")
def own_pi_cache():
    """Sum from a pi cache of this module's own scales.  A much larger pi left
    by other tests makes every new flat-scaled scale a long division of it."""
    saved = dict(mpreal._pi_cache)
    mpreal._pi_cache.clear()
    yield
    mpreal._pi_cache.clear()
    mpreal._pi_cache.update(saved)


class ReferenceSum:
    """Neumaier-compensated accumulator over context floats."""

    def __init__(self, mp):
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


def reference_power(mp, n, u):
    e = mp.mpf(u)
    if e != int(e):
        return mp.power(mp.mpf(n), e)
    k = int(e)
    if k * n.bit_length() < EXACT_POWER_BITS:
        return mp.mpf(n**k)
    return mp.mpf(n) ** k


def reference_sin_power(mp, s, v):
    e = mp.mpf(v)
    if e == int(e):
        return s ** int(e)
    if s < 0:
        raise fh.DomainError("non-integer sine exponent with negative sine value")
    return mp.power(s, e)


def reference_run_sum(mp, indices, sine, spec, checkpoints):
    """(value, largest_term, residual, checkpoints) of the mpf-object loop."""
    u, v = spec.u, spec.v
    if not (mp.isfinite(u) and mp.isfinite(v)):
        raise fh.DomainError("series exponents u, v must be finite")
    acc = ReferenceSum(mp)
    largest = None
    running = []
    for n in indices:
        while len(running) < len(checkpoints) and checkpoints[len(running)] < n:
            running.append((checkpoints[len(running)], acc.value))
        s = sine(n)
        term = 1 / (reference_power(mp, n, u) * reference_sin_power(mp, s, v))
        acc.add(term)
        if largest is None or abs(term) > abs(largest[1]):
            largest = (n, term)
    running += [(c, acc.value) for c in checkpoints[len(running):]]
    return acc.value, largest, acc.residual, running


def reference_int_sine(ctx):
    """n -> sin n: exact residue r at 10**red, then mp.sin(mp.mpf(r) / mp.mpf(10**red))."""
    mp = ctx._mp

    def sine(n):
        red = reduction_digits(n, ctx)
        q, r = residue_mod_pi(0, 1, n, red)
        value = mp.sin(mp.mpf(r) / mp.mpf(10**red))
        return -value if q & 1 else value

    return sine


def reference_alpha_pi_sine(alpha, ctx):
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
            raise fh.PrecisionInsufficientError(
                f"sin(alpha pi n) below resolution at n={n}; raise precision"
            )
        return s

    return sine


def reference_pi_power_scaled(n, scale_digits):
    red = scale_digits + (n * 49715) // 100000 + 8
    s = 10**red
    p = pi_scaled(red)
    acc = p
    for _ in range(n - 1):
        acc = acc * p // s
    return acc, s


def reference_flat_sine(spec, end, ctx):
    power, nearest, base = spec.family == "flat_power", spec.variant == "nearest", spec.flat_base
    mp = ctx._mp
    eff = ctx.effective_digits
    singular_tol = 10 ** (ctx.decimal_digits // 2)

    def sine(n):
        if power:
            scaled, s = reference_pi_power_scaled(n, eff)
        else:
            mult = base**n
            red = eff + decimal_length(mult) + 4
            s = 10**red
            scaled = pi_scaled(red) * mult
        frac = scaled % s
        if nearest:
            frac = min(frac, s - frac)
        if frac < s // singular_tol or (not nearest and s - frac < s // singular_tol):
            raise fh.SingularArgumentError(
                f"sine argument at n={n} is within tolerance of an integer"
            )
        return mp.sin(mp.mpf(frac) / s)

    if end >= 1 and not power:
        pi_scaled(eff + decimal_length(base**end) + 4)
    return sine


def reference_partial_sum(spec, ctx, marks):
    end = max([spec.limit, *marks])
    indices, _ = series._terms(spec, ctx, end)
    if spec.family in ("flint", "lacunary"):
        sine = reference_int_sine(ctx)
    elif spec.family == "alpha_pi":
        sine = reference_alpha_pi_sine(spec.alpha, ctx)
    else:
        sine = reference_flat_sine(spec, end, ctx)
    return reference_run_sum(ctx._mp, indices, sine, spec, marks)


def outcome(run):
    """The raw bits of a run's result, or the type and message of its error."""
    try:
        value, largest, residual, checkpoints = run()
    except fh.FlintHillsError as exc:
        return type(exc).__name__, str(exc)
    return (
        value._mpf_,
        None if largest is None else (largest[0], largest[1]._mpf_),
        residual._mpf_,
        [(c, v._mpf_) for c, v in checkpoints],
    )


def assert_bit_identical(spec, ctx, checkpoints=()):
    marks = sorted(set(checkpoints))

    def new():
        r = fh.partial_sum(spec, ctx, marks)
        return r.value, r.largest_term, r.compensation_residual, r.checkpoints

    want = outcome(lambda: reference_partial_sum(spec, ctx, marks))
    got = outcome(new)
    assert got == want
    return got


integral = st.integers(min_value=1, max_value=6).flatmap(lambda k: st.sampled_from((k, float(k))))
fractional = st.sampled_from((1.01, 1.5, 2.5, 3.7, 0.75))
sine_exponents = st.one_of(st.integers(min_value=1, max_value=4), st.sampled_from((2.0, 0.5, 1.5, 2.25)))
flat_sine_exponents = st.one_of(sine_exponents, st.sampled_from((-1, -2.0, -1.5)))
digit_counts = st.integers(min_value=30, max_value=200)
limits = st.integers(min_value=0, max_value=300)


@st.composite
def specs(draw):
    family = draw(st.sampled_from(series.FAMILIES))
    u = draw(st.one_of(integral, fractional))
    if family == "lacunary":
        return fh.SeriesSpec(family=family, u=u, v=draw(sine_exponents),
                             limit=10 ** draw(st.integers(min_value=0, max_value=60)))
    if family == "alpha_pi":
        return fh.SeriesSpec(family=family, u=u, v=draw(sine_exponents),
                             alpha=draw(st.sampled_from(("sqrt2", "golden", "sqrt3"))), limit=draw(limits))
    if family == "flint":
        return fh.SeriesSpec(family=family, u=u, v=draw(sine_exponents), limit=draw(limits))
    return fh.SeriesSpec(family=family, u=draw(st.sampled_from((2, 2.0, 1.5, 3, 1.01))),
                         v=draw(flat_sine_exponents), variant=draw(st.sampled_from(series.FLAT_VARIANTS)),
                         flat_base=draw(st.integers(min_value=2, max_value=12)),
                         limit=draw(st.integers(min_value=0, max_value=120 if family == "flat_scaled" else 300)))


def with_alpha(spec, ctx):
    if spec.family != "alpha_pi":
        return spec
    return fh.SeriesSpec(family=spec.family, u=spec.u, v=spec.v,
                         alpha=fh.constant_value(spec.alpha, ctx), limit=spec.limit)


class TestRawLoopMatchesMpfLoop:
    @settings(max_examples=80, deadline=None)
    @given(spec=specs(), digits=digit_counts, data=st.data())
    def test_every_family(self, spec, digits, data):
        ctx = fh.make_context(digits)
        top = max(spec.limit, 1)
        marks = data.draw(st.lists(st.integers(min_value=1, max_value=top + 20), max_size=4))
        assert_bit_identical(with_alpha(spec, ctx), ctx, marks)

    @pytest.mark.parametrize("family,variant", [(f, "nearest") for f in series.FAMILIES]
                             + [("flat_power", "frac"), ("flat_scaled", "frac")])
    def test_every_family_and_variant_at_300(self, family, variant):
        ctx = fh.make_context(50)
        flat = family in ("flat_power", "flat_scaled")
        limit = 10**40 if family == "lacunary" else 120 if family == "flat_scaled" else 300
        spec = fh.SeriesSpec(family=family, u=2 if flat else 3, v=2, alpha=fh.constant_value("golden", ctx),
                             variant=variant, limit=limit)
        got = assert_bit_identical(spec, ctx, [1, 22, 355, limit])
        assert isinstance(got[0], tuple)  # a sum, not an error

    def test_residual_trap_at_1000(self, ctx50):
        # an exactly converted residue would print 5.73138e-90 here, not 9.39861e-90
        spec = fh.SeriesSpec(family="flint", u=3, v=2, limit=1000)
        assert_bit_identical(spec, ctx50)
        residual = fh.partial_sum(spec, ctx50).compensation_residual
        assert mpmath.nstr(residual, 6) == "9.39861e-90"

    def test_non_integer_sine_exponent_error(self, ctx50):
        spec = fh.SeriesSpec(family="flint", u=3, v=1.5, limit=10)
        assert assert_bit_identical(spec, ctx50) == (
            "DomainError", "non-integer sine exponent with negative sine value")
