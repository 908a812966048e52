import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

import flinthills as fh

from conftest import rel_err


class TestV2:
    @pytest.mark.parametrize("m,expected", [(3, 0), (22, 1), (104348, 2), (1, 0), (-24, 3)])
    def test_values(self, m, expected):
        assert fh.v2(m) == expected

    def test_zero_rejected(self):
        with pytest.raises(fh.DomainError):
            fh.v2(0)

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=50))
    @settings(max_examples=80, deadline=None)
    def test_construction(self, half_odd, e):
        odd = 2 * half_odd + 1
        assert fh.v2(odd * 2**e) == e


class TestShiftTerm:
    def test_p3(self, ctx50):
        t = fh.shift_term(3, ctx50)
        assert t.w == 45 and t.w % 2 == 1
        assert abs(float(t.x) - 11.7809724509617246) < 1e-12  # 15 pi / 4
        assert abs(abs(float(t.sin_at_shift)) - abs(math.cos(3))) < 1e-15
        assert abs(float(t.sin_residual)) < 1e-40

    def test_p22_w_exact(self, ctx50):
        t = fh.shift_term(22, ctx50)
        assert t.w == 17 * 121 == 2057

    def test_p1_smallest(self, ctx50):
        t = fh.shift_term(1, ctx50)
        assert t.w == 5
        assert rel_err(t.x, 5 * math.pi / 4) < 1e-12

    def test_w_odd_for_first_50(self, ctx50):
        for c in fh.constant_convergents("pi", 50):
            v = fh.v2(c.p)
            w = ((1 << (2 + 2 * v)) + 1) * (c.p >> v) ** 2
            assert fh.shift_term(c.p, ctx50).w == w
            assert w % 2 == 1

    def test_double_angle_unit_values(self, ctx50):
        tol = ctx50.mpf(10) ** (8 - ctx50.decimal_digits)
        for c in fh.constant_convergents("pi", 50):
            t = fh.shift_term(c.p, ctx50)
            assert abs(t.sin_double**2 - 1) <= tol
            assert abs(t.cos_double) <= tol


class TestDirichletKernel:
    def test_sum_and_closed_agree_x2_z1(self, ctx50):
        k = fh.dirichlet_kernel(2, ctx50.mpf(1), ctx50)
        oracle = 1 + 2 * math.cos(2) + 2 * math.cos(4)
        assert abs(float(k.closed_form) - oracle) < 1e-14
        assert abs(float(k.sum_form) - oracle) < 1e-14
        assert float(k.abs_bound) == 5

    def test_exact_at_half_pi(self, ctx50):
        k = fh.dirichlet_kernel(1, fh.pi_const(ctx50) / 2, ctx50)
        assert abs(k.closed_form + 1) < ctx50.mpf(10) ** (-70)

    def test_singular_at_pi(self, ctx50):
        with pytest.raises(fh.SingularArgumentError):
            fh.dirichlet_kernel(3, fh.pi_const(ctx50), ctx50)

    def test_real_order_closed_form_only(self, ctx50):
        k = fh.dirichlet_kernel(ctx50.mpf("2.5"), ctx50.mpf(1), ctx50)
        assert k.sum_form is None
        assert abs(float(k.closed_form) - math.sin(6) / math.sin(1)) < 1e-14

    def test_randomized_agreement(self, ctx50):
        ctx30 = fh.make_context(30)
        rng = random.Random(1234)
        for _ in range(50):
            x = rng.randint(0, 50)
            z = ctx30.mpf(rng.uniform(0.1, 3.0))
            k = fh.dirichlet_kernel(x, z, ctx30)  # raises on disagreement
            assert abs(k.closed_form) <= 2 * x + 1 + ctx30.mpf(10) ** (-20)


class TestFejerKernel:
    def test_x1_z1(self, ctx50):
        k = fh.fejer_kernel(1, ctx50.mpf(1), ctx50)
        oracle = 2 + 2 * math.cos(2)
        assert abs(float(k.sum_form) - oracle) < 1e-14
        assert abs(float(k.closed_form) - oracle) < 1e-14

    def test_unhalved_normalization(self, ctx50):
        # the double sum equals sin((x+1)z)^2/sin(z)^2 with no 1/2 factor
        k = fh.fejer_kernel(1, ctx50.mpf(1), ctx50)
        halved = (math.sin(2) ** 2 / math.sin(1) ** 2) / 2
        assert abs(float(k.sum_form) - halved) > 0.5

    def test_single_term(self, ctx50):
        assert fh.fejer_kernel(0, ctx50.mpf("0.7"), ctx50).sum_form == 1

    def test_exact_at_quarter_pi(self, ctx50):
        k = fh.fejer_kernel(1, fh.pi_const(ctx50) / 4, ctx50)
        assert abs(k.sum_form - 2) < ctx50.mpf(10) ** (-70)

    def test_quadratic_bound(self, ctx50):
        rng = random.Random(42)
        for _ in range(20):
            x = rng.randint(0, 12)
            k = fh.fejer_kernel(x, ctx50.mpf(rng.uniform(0.2, 2.9)), ctx50)
            assert abs(k.closed_form) <= float(k.abs_bound) + 1e-20
            assert float(k.abs_bound) == (x + 1) ** 2

    def test_telescoping_sum_of_dirichlet(self, ctx50):
        z = ctx50.mpf("0.83")
        for x in (5, 30):
            fj = fh.fejer_kernel(x, z, ctx50)
            total = sum(fh.dirichlet_kernel(n, z, ctx50).closed_form for n in range(x + 1))
            assert abs(fj.sum_form - total) < ctx50.mpf(10) ** (-60)

    def test_rejects_non_integer_order(self, ctx50):
        with pytest.raises(fh.DomainError):
            fh.fejer_kernel(1.5, ctx50.mpf(1), ctx50)


def decimals(max_exponent):
    """Decimal strings m*10^e with 1 <= m < 10^12 and m*10^e < 10^(max_exponent+12)."""
    return st.builds(
        lambda m, e: f"{m}e{e}",
        st.integers(1, 10**12 - 1),
        st.integers(-12, max_exponent),
    )


def reference(digits, *values):
    """An mpmath context precise enough that (2x+1)z is resolved to 2*digits.

    The largest argument has about log10|x| + log10|z| integer digits; mpmath
    needs those on top of twice the digits checked.
    """
    mp = MPContext()
    mp.dps = 2 * digits + 30 + sum(int(mp.log10(abs(mp.mpf(v)) + 1)) for v in values)
    return mp


class TestClosedFormDifferential:
    """Both closed forms at decimal x and z up to 10^500, against mpmath."""

    @settings(max_examples=40, deadline=None)
    @given(x=decimals(488), z=decimals(488), digits=st.integers(30, 80), sign=st.sampled_from((1, -1)))
    def test_dirichlet(self, x, z, digits, sign):
        z = z if sign > 0 else "-" + z
        got = fh.dirichlet_kernel(x, z, fh.make_context(digits))
        mp = reference(digits, x, z)
        xv, zv = mp.mpf(x), mp.mpf(z)
        want = mp.sin((2 * xv + 1) * zv) / mp.sin(zv)
        assert got.sum_form is None
        assert abs(got.closed_form - want) <= mp.mpf(10) ** -digits * abs(want)

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.one_of(st.integers(0, 200), st.integers(fh.SUM_FORM_MAX_ORDER + 1, 10**500)),
        z=decimals(488),
        digits=st.integers(30, 80),
    )
    def test_fejer(self, x, z, digits):
        got = fh.fejer_kernel(x, z, fh.make_context(digits))
        mp = reference(digits, x, z)
        zv = mp.mpf(z)
        want = mp.sin((x + 1) * zv) ** 2 / mp.sin(zv) ** 2
        assert abs(got.closed_form - want) <= mp.mpf(10) ** -digits * abs(want)
        assert (got.sum_form is None) == (x > fh.SUM_FORM_MAX_ORDER)


class TestExactArguments:
    def test_argument_types_agree(self, ctx50):
        # an mpf is taken at its exact binary value, so every spelling of the
        # same rational gives the same closed form
        z = ctx50.mpf("0.75")
        values = {fh.dirichlet_kernel(3, arg, ctx50).closed_form for arg in (z, Fraction(3, 4), "0.75", "3/4")}
        assert len(values) == 1

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    @pytest.mark.parametrize("kernel", [fh.dirichlet_kernel, fh.fejer_kernel])
    def test_spellings_keep_the_sign(self, ctx50, kernel, sign):
        # an mpf or a float is taken with its sign, as a string or a Fraction is
        def spellings(q):
            return (ctx50.mpf(q.numerator) / q.denominator, float(q), str(q), q)

        def fields(k):
            return (k.x_param, k.z, k.closed_form, k.sum_form)

        z = sign * Fraction(3, 2)
        evals = [fields(kernel(2, arg, ctx50)) for arg in spellings(z)]
        assert evals[0][1] == z and all(e == evals[0] for e in evals)
        if kernel is fh.dirichlet_kernel:
            x = sign * Fraction(5, 2)
            evals = [fields(kernel(arg, 1, ctx50)) for arg in spellings(x)]
            assert evals[0][0] == x and all(e == evals[0] for e in evals)
            assert rel_err(evals[0][2], math.sin(2 * x + 1) / math.sin(1)) < 1e-14

    def test_order_above_cap_has_no_sum_form(self, ctx50):
        x = fh.SUM_FORM_MAX_ORDER + 1
        for kernel, bound in ((fh.dirichlet_kernel, 2 * x + 1), (fh.fejer_kernel, (x + 1) ** 2)):
            k = kernel(x, 1, ctx50)
            assert k.sum_form is None and k.abs_bound == bound

    @pytest.mark.parametrize("tail, singular", [("e-60", True), ("e-30", True), ("e-20", False)])
    def test_singular_rule_on_the_reduced_residue(self, ctx50, tail, singular):
        # z = 7 pi + 10^-k; singular when the residue is below 10^-25
        mp = MPContext()
        mp.dps = 120
        z = Fraction(mp.nstr(7 * mp.pi, 110)) + Fraction("1" + tail)
        if singular:
            with pytest.raises(fh.SingularArgumentError):
                fh.dirichlet_kernel(2, z, ctx50)
        else:
            assert fh.dirichlet_kernel(2, z, ctx50).sum_form is not None

    def test_non_finite_rejected(self, ctx50):
        for z in (ctx50.mpf("inf"), "nan", float("inf")):
            with pytest.raises(fh.DomainError):
                fh.dirichlet_kernel(2, z, ctx50)
        with pytest.raises(fh.DomainError, match="^z must be a number, got 'abc'$"):
            fh.dirichlet_kernel(2, "abc", ctx50)

    @pytest.mark.parametrize("kernel", [fh.dirichlet_kernel, fh.fejer_kernel])
    @pytest.mark.parametrize("z", ["1e4301", "1e-4301", "1" * 4301], ids=["exponent", "negative-exponent", "long"])
    def test_decimal_past_the_cap_rejected(self, ctx50, kernel, z):
        # refused before Fraction builds 10**exponent; the longest accepted is 4300
        with pytest.raises(fh.DomainError, match=f"^z is too long or its exponent too large, got '{z}'$"):
            kernel(3, z, ctx50)


class TestRealTechnique:
    def test_report_rows(self, ctx50):
        rows = fh.recip_sin_bound_real_technique(25, ctx50)
        assert len(rows) == 25
        row1, row4 = rows[0], rows[3]
        assert abs(float(row1.ratio) - 7.086167395737187 / 3) < 1e-10
        assert abs(float(row4.ratio) - 33173.71 / 355) < 0.01
        assert float(max(r.shift_residual for r in rows)) < 1e-20

    def test_residuals_tiny_at_50_digits(self, ctx50):
        for row in fh.recip_sin_bound_real_technique(25, ctx50):
            # the larger of the sine and cosine residuals
            assert float(row.shift_residual) < 1e-20
            term = fh.shift_term(row.p, ctx50)
            assert row.shift_residual == max(term.sin_residual, term.cos_residual)


class TestIntegerTechnique:
    def test_table_computes_pi_a_logarithmic_number_of_times(self, monkeypatch):
        # each row asks for pi at a larger scale (648 computations when only
        # that scale was computed); the cache grows geometrically instead
        import io

        import flinthills.mpreal as mpreal
        from flinthills.cli import run

        calls = []
        machin = mpreal._pi_machin_scaled
        monkeypatch.setattr(mpreal, "_pi_machin_scaled", lambda *a: calls.append(a) or machin(*a))
        monkeypatch.setattr(mpreal, "_pi_cache", {})
        assert run(["shift", "--technique", "integer", "--n-max", "2000"], out=io.StringIO()) == 0
        assert 1 <= len(calls) <= 3

    def test_small_cases(self, ctx50):
        by_p = {r.p: r for r in fh.recip_sin_bound_integer_technique(2, ctx50)}
        assert by_p[3].floor_x == 11
        assert by_p[3].argument == 69
        assert abs(float(by_p[3].abs_sin) - abs(math.sin(69))) < 1e-14
        assert abs(float(by_p[22].abs_sin) - abs(math.sin(2 * by_p[22].floor_x * 22 + 22))) < 1e-11

    def test_p1_by_direct_construction(self, ctx50):
        t = fh.shift_term(1, ctx50)
        floor_x = int(float(t.x))
        assert floor_x == 3
        assert abs(float(fh.sin_int(2 * floor_x + 1, ctx50)) - math.sin(7)) < 1e-14

    def test_minimum_in_unit_interval(self, ctx50):
        rows = fh.recip_sin_bound_integer_technique(25, ctx50)
        m = float(min(r.abs_sin for r in rows))
        assert 0 < m <= 1

    def test_floor_just_above_an_integer(self):
        # convergent 154 of 5 pi/4; x_n = 5 pi p/4 lies so close above an
        # integer that pi's last unit at 30 digits hides the floor
        from flinthills.kernels import _floor_shift_parameter

        p = 209778178302716953202499675044541117505378617293751375857041861202198535439
        ref = MPContext()
        ref.dps = 300
        floor_x = int(ref.floor(5 * ref.pi * p / 4))
        with pytest.raises(fh.PrecisionInsufficientError):
            _floor_shift_parameter(p, fh.make_context(30))
        for digits in (60, 120):
            assert _floor_shift_parameter(p, fh.make_context(digits)) == floor_x


class TestCfTechnique:
    def test_below_threshold_rejected(self, ctx50):
        with pytest.raises(fh.DomainError, match="16 pi\\^4"):
            fh.cf_technique_check(1558, 5, ctx50)

    def test_d1559_distances(self, ctx50):
        rows = fh.cf_technique_check(1559, 10, ctx50)
        assert len(rows) == 10
        got = [round(float(r.distance), 6) for r in rows]
        assert got == [
            0.178383, 0.139063, 0.063845, 0.037938, 0.087398,
            0.068231, 0.079099, 0.051564, 0.046160, 0.109033,
        ]
        # the first convergent misses the 1/(2 pi) distance bound; the rest meet it
        assert [r.within_bound for r in rows] == [False] + [True] * 9
        assert sum(r.within_bound for r in rows) == 9

    def test_large_d_runs(self, ctx50):
        rows = fh.cf_technique_check(10**6, 5, ctx50)
        assert len(rows) == 5
        for r in rows:
            assert 0 <= float(r.distance) <= 0.5

    def test_sin_matches_distance(self, ctx50):
        # |sin(2 pi X)| = sin(2 pi * distance-to-nearest-integer)
        for r in fh.cf_technique_check(1559, 6, ctx50):
            expected = abs(math.sin(2 * math.pi * float(r.distance)))
            assert abs(float(r.abs_sin) - expected) < 1e-9
