import math
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

import flinthills as fh
from flinthills.mpreal import pi_scaled, sincos_pi_rational_plus_int


def bundled_pi_digits() -> str:
    return (
        resources.files("flinthills").joinpath("fixtures/pi_1000.txt").read_text("ascii").strip()
    )


class TestContext:
    def test_constructor_echo(self):
        ctx = fh.make_context(50)
        assert ctx.decimal_digits == 50
        assert ctx.guard_digits == 40
        assert ctx.effective_digits == 90

    def test_minimum_precision_rejected(self):
        with pytest.raises(fh.PrecisionError, match="precision too low"):
            fh.make_context(29)

    def test_large_precision_accepted(self):
        ctx = fh.make_context(10**6)
        assert ctx.decimal_digits == 10**6


class TestPi:
    def test_fifty_digit_value(self, ctx50):
        want = "3.14159265358979323846264338327950288419716939937511"
        got = fh.pi_const(ctx50)
        assert str(got)[: len(want) - 1] == want[:-1]

    def test_precision_monotonicity(self, ctx50):
        ctx30 = fh.make_context(30)
        a = fh.pi_const(ctx30)
        b = fh.pi_const(ctx50)
        assert abs(a - b) < fh.make_context(30)._mp.mpf(10) ** (-60)

    def test_thousand_digit_prefix_agrees(self, ctx50):
        big = fh.make_context(1000)
        assert str(fh.pi_const(big))[:50] == str(fh.pi_const(ctx50))[:50]

    def test_first_1000_digits_match_fixture(self):
        digits = bundled_pi_digits()
        assert len(digits) == 1000
        scaled = pi_scaled(1005)
        assert str(scaled)[:1000] == digits

    def test_scaled_cache_derivation_consistent(self):
        full = pi_scaled(500)
        small = pi_scaled(120)
        assert abs(full // 10**380 - small) <= 1

    def test_cache_keeps_only_the_largest_scale(self, monkeypatch):
        import flinthills.mpreal as mpreal

        monkeypatch.setattr(mpreal, "_pi_cache", {})
        big = pi_scaled(1200)
        small = pi_scaled(300)
        assert len(mpreal._pi_cache) == 1
        ref = bundled_pi_digits()
        assert str(big)[:1000] == ref
        assert str(small)[:300] == ref[:300]

    def test_machin_is_the_exact_floor_to_998_digits(self):
        from flinthills.mpreal import _pi_machin_scaled

        ref = bundled_pi_digits()
        for d in range(1, 999):
            assert _pi_machin_scaled(d) == int(ref[: d + 1]), d

    def test_derived_scales_are_the_exact_floor(self, monkeypatch):
        # flat-power computes pi once at its last term's scale (1242 digits for
        # --digits 200 --limit 2000) and derives every smaller scale from it
        import flinthills.mpreal as mpreal

        top = 1242
        monkeypatch.setattr(mpreal, "_pi_cache", {})
        pi_scaled(top)
        mp = MPContext()
        mp.dps = 2 * top
        for k in range(1, top + 1):
            assert pi_scaled(k) == int(mp.floor(mp.pi * mp.mpf(10) ** k)), k
        assert list(mpreal._pi_cache) == [top]

    @pytest.mark.parametrize("digits", [5000, 20000, 40000])
    def test_machin_is_the_exact_floor_deep(self, digits):
        from mpmath.ctx_mp import MPContext

        from flinthills.mpreal import _pi_machin_scaled

        mp = MPContext()
        mp.dps = digits + 50
        assert _pi_machin_scaled(digits) == int(mp.floor(mp.pi * mp.mpf(10) ** digits))

    @pytest.mark.parametrize("digits", [5000, 20000, 40000])
    def test_chudnovsky_within_one_deep(self, digits):
        from flinthills.mpreal import _pi_chudnovsky_scaled

        mp = MPContext()
        mp.dps = digits + 50
        assert abs(_pi_chudnovsky_scaled(digits) - int(mp.floor(mp.pi * mp.mpf(10) ** digits))) <= 1

    @pytest.mark.parametrize("digits", [5000, 20000, 40000])
    def test_chudnovsky_is_the_exact_floor_deep(self, digits):
        from flinthills.mpreal import _pi_chudnovsky_scaled

        mp = MPContext()
        mp.dps = digits + 50
        assert _pi_chudnovsky_scaled(digits) == int(mp.floor(mp.pi * mp.mpf(10) ** digits))

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 3000), before=st.one_of(st.none(), st.integers(1, 6000)))
    def test_scaled_is_the_exact_floor_whatever_was_cached(self, k, before):
        # the value at a scale does not depend on which scale, if any, the
        # cache held before: smaller, larger or none
        import flinthills.mpreal as mpreal

        mp = MPContext()
        mp.dps = 2 * k + 10
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mpreal, "_pi_cache", {})
            if before is not None:
                pi_scaled(before)
            assert pi_scaled(k) == int(mp.floor(mp.pi * mp.mpf(10) ** k))

    def test_ziv_floor_rejects_values_within_the_bound_of_a_boundary(self):
        from flinthills.mpreal import _PI_SERIES_ERROR, _ziv_floor

        unit = 10**6
        assert _ziv_floor(5 * unit + _PI_SERIES_ERROR, 6) == 5
        assert _ziv_floor(6 * unit - 1 - _PI_SERIES_ERROR, 6) == 5
        assert _ziv_floor(5 * unit + _PI_SERIES_ERROR - 1, 6) is None
        assert _ziv_floor(6 * unit - _PI_SERIES_ERROR, 6) is None

    @pytest.mark.parametrize("name", ["_pi_machin_scaled", "_pi_chudnovsky_scaled"])
    def test_ambiguous_first_try_reruns_once(self, name, monkeypatch):
        # pi * 10**761 = ....999999837...: the six nines of the Feynman point
        # put a first try at 6 guard digits within the error bound of a floor
        # boundary, and the rerun at 12 guard digits settles it
        import flinthills.mpreal as mpreal

        series, calls = getattr(mpreal, name), []
        monkeypatch.setattr(mpreal, name, lambda *a: calls.append(a) or series(*a))
        got = series(761, 6)
        assert calls == [(761, 12)]
        mp = MPContext()
        mp.dps = 800
        assert got == int(mp.floor(mp.pi * mp.mpf(10) ** 761))

    def test_series_disagreement_raises(self, monkeypatch):
        import flinthills.mpreal as mpreal

        monkeypatch.setattr(mpreal, "_pi_machin_scaled", lambda digits: 3 * 10**digits)
        monkeypatch.setattr(mpreal, "_pi_cache", {})
        with pytest.raises(fh.CrossCheckError, match="disagree"):
            pi_scaled(60)

    def test_reference_mismatch_raises(self, monkeypatch):
        import flinthills.mpreal as mpreal

        # both series poisoned identically: agreement holds, fixture check trips
        monkeypatch.setattr(mpreal, "_pi_machin_scaled", lambda digits: 31 * 10 ** (digits - 1))
        monkeypatch.setattr(mpreal, "_pi_chudnovsky_scaled", lambda digits: 31 * 10 ** (digits - 1))
        monkeypatch.setattr(mpreal, "_pi_cache", {})
        with pytest.raises(fh.CrossCheckError, match="reference"):
            pi_scaled(60)


class TestSinInt:
    def test_well_conditioned(self, ctx50):
        assert abs(float(fh.sin_int(3, ctx50)) - 0.1411200080598672) < 1e-15

    def test_published_row_355(self, ctx50):
        val = fh.sin_int(355, ctx50)
        assert abs(float(val) - (-3.014435335948845e-5)) < 1e-18
        assert abs(float(1 / val) - (-33173.7)) < 0.05

    def test_zero(self, ctx50):
        assert fh.sin_int(0, ctx50) == 0
        assert fh.cos_int(0, ctx50) == 1

    def test_pythagorean_identity_random_large(self, ctx50):
        rng = random.Random(20240811)
        tol = ctx50.mpf(10) ** (1 - ctx50.decimal_digits)
        for _ in range(100):
            m = rng.randint(-(10**13), 10**13)
            s = fh.sin_int(m, ctx50)
            c = fh.cos_int(m, ctx50)
            assert abs(s * s + c * c - 1) <= tol

    def test_precision_doubling_self_oracle(self):
        for m in (355, 104348, 8958937768937):
            lo = fh.make_context(50)
            hi = fh.make_context(100)
            a = fh.sin_int(m, lo)
            b = fh.sin_int(m, hi)
            assert abs(a - b) <= abs(b) * lo.mpf(10) ** (-(50 - 2))

    def test_relative_accuracy_at_deep_numerator(self):
        # p_150 has ~76 digits and sin(p_150) ~ 1/p_150; the reduction must
        # keep full relative accuracy anyway
        p150 = fh.constant_convergents("pi", 150)[-1].p
        ctx = fh.make_context(50)
        lo = fh.sin_int(p150, ctx)
        hi = fh.sin_int(p150, fh.make_context(160))
        assert abs((lo - hi) / hi) < ctx.mpf(10) ** (-48)
        assert abs(hi) < ctx.mpf(10) ** (-70)

    def test_convergent_residue_identity(self, ctx60):
        # sin(p) = (-1)^q sin(p - pi q) and |sin p| <= |p - pi q| + ulp
        convs = fh.constant_convergents("pi", 25)
        big = fh.make_context(120)
        pi = fh.pi_const(big)
        tol = big.mpf(10) ** (-60)
        for c in convs:
            residue = c.p - pi * c.q
            direct = fh.sin_int(c.p, big)
            via_residue = big._mp.sin(residue)
            if c.q % 2:
                via_residue = -via_residue
            assert abs(direct - via_residue) < tol
            assert abs(direct) <= abs(residue) + tol


_REFERENCE = MPContext()
_REFERENCE.dps = 2000
_PI_NUMERATORS = [c.p for c in fh.constant_convergents("pi", 880) if c.p.bit_length() <= 1500]


class TestSinCosDifferential:
    """sin_int and cos_int against mpmath at 2,000 digits.

    Exact rationals of up to 1,500 bits, pi's convergent numerators (where
    sin is as small as ~1/p) and fractions with decimal denominators, down
    to arguments far below one.
    """

    @staticmethod
    def check(m, digits):
        ctx = fh.make_context(digits)
        arg = _REFERENCE.mpf(m.numerator) / m.denominator if isinstance(m, Fraction) else _REFERENCE.mpf(m)
        tol = _REFERENCE.mpf(10) ** -digits
        for got, want in ((fh.sin_int(m, ctx), _REFERENCE.sin(arg)), (fh.cos_int(m, ctx), _REFERENCE.cos(arg))):
            assert abs(got - want) <= tol * abs(want), (m, digits)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(min_value=-(2**1500), max_value=2**1500), digits=st.integers(30, 120))
    def test_integers(self, m, digits):
        self.check(m, digits)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, len(_PI_NUMERATORS) - 1), digits=st.integers(30, 120))
    def test_convergent_numerators(self, k, digits):
        self.check(_PI_NUMERATORS[k], digits)

    @settings(max_examples=60, deadline=None)
    @given(
        num=st.integers(min_value=-(2**1500), max_value=2**1500).filter(lambda n: n != 0),
        places=st.integers(0, 600),
        digits=st.integers(30, 120),
    )
    def test_decimal_fractions(self, num, places, digits):
        self.check(Fraction(num, 10**places), digits)

    def test_integer_reduction_unchanged(self, ctx50):
        # an int and the equal Fraction reduce at the same scale, bit for bit
        for m in (3, 355, -104348, 2**200 + 1):
            assert fh.sin_int(m, ctx50) == fh.sin_int(Fraction(m), ctx50)
            assert fh.cos_int(m, ctx50) == fh.cos_int(Fraction(m), ctx50)


class TestShiftedArgumentReduction:
    def test_matches_small_case(self, ctx50):
        # sin(pi*3/2 + 1) = -cos(1)
        s, c = sincos_pi_rational_plus_int(3, 2, 1, ctx50)
        assert abs(float(s) + math.cos(1)) < 1e-15
        assert abs(float(c) - math.sin(1)) < 1e-15

    def test_huge_multiple(self, ctx50):
        # odd w => sin(pi w/2) = +-1, cos = 0; here w ~ 1.1e21
        w = 5 * 14885392687**2
        assert w % 2 == 1
        s, c = sincos_pi_rational_plus_int(w, 2, 0, ctx50)
        assert abs(abs(s) - 1) < ctx50.mpf(10) ** (-80)
        assert abs(c) < ctx50.mpf(10) ** (-80)
