import io
import itertools
import math
import time

import mpmath
import pytest

import flinthills as fh
from flinthills import cli
from flinthills.mpreal import sin_int

from conftest import rel_err

LACUNARY_UNDER_400 = [1, 3, 22, 333, 355]


def double_flint(u, v, x):
    return sum(1 / (n**u * math.sin(n) ** v) for n in range(1, x + 1))


def flint_spec(u, v, x):
    return fh.SeriesSpec(family="flint", u=u, v=v, limit=x)


def lacunary_spec(x):
    return fh.SeriesSpec(family="lacunary", u=3, v=2, limit=x)


def alpha_pi_spec(u, v, alpha, x):
    return fh.SeriesSpec(family="alpha_pi", u=u, v=v, alpha=alpha, limit=x)


def flat_spec(family, variant, a, b, x):
    return fh.SeriesSpec(family=family, u=a, v=b, variant=variant, limit=x)


class TestFlintPartialSum:
    def test_plot_coordinates(self, ctx50, flint_plot_reference):
        points = {int(r["x"]): float(r["P"]) for r in flint_plot_reference}
        pairs = fh.partial_sum(flint_spec(3, 2, max(points)), ctx50, sorted(points)).checkpoints
        for x, value in pairs:
            assert abs(float(value) - points[x]) < 1e-6

    def test_first_term(self, ctx50):
        r = fh.partial_sum(flint_spec(3, 2, 1), ctx50)
        assert abs(float(r.value) - 1 / math.sin(1) ** 2) < 1e-14

    def test_double_oracle_small_limits(self, ctx50):
        for x in (3, 22, 50):
            got = fh.partial_sum(flint_spec(3, 2, x), ctx50)
            assert rel_err(got.value, double_flint(3, 2, x)) < 1e-10

    def test_largest_term_at_355(self, ctx50):
        r = fh.partial_sum(flint_spec(3, 2, 500), ctx50)
        assert r.largest_term[0] == 355

    def test_monotone_for_even_v(self, ctx50):
        pairs = fh.partial_sum(flint_spec(3, 2, 500), ctx50, [10, 50, 100, 300, 500]).checkpoints
        values = [v for _, v in pairs]
        assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))

    def test_every_term_positive_for_even_v(self, ctx50):
        r = fh.partial_sum(flint_spec(3, 2, 200), ctx50)
        assert r.value > 0 and r.largest_term[1] > 0

    def test_precision_doubling(self):
        for u, v, x in ((3, 2, 355), (2, 1, 1000)):
            a = fh.partial_sum(flint_spec(u, v, x), fh.make_context(50)).value
            b = fh.partial_sum(flint_spec(u, v, x), fh.make_context(100)).value
            assert abs(a - b) <= abs(b) * fh.make_context(50).mpf(10) ** (-(50 - 8))

    def test_compensation_residual_small(self, ctx50):
        r = fh.partial_sum(flint_spec(3, 2, 500), ctx50)
        assert float(r.compensation_residual) < 1e-80

    def test_bad_exponents(self, ctx50):
        with pytest.raises(fh.DomainError):
            fh.partial_sum(flint_spec(0, 2, 5), ctx50)
        with pytest.raises(fh.DomainError):
            fh.partial_sum(flint_spec(3, 1.5, 4), ctx50)  # sin(4) < 0, non-integer power
        inf = float("inf")
        with pytest.raises(fh.DomainError, match="finite"):
            fh.partial_sum(flint_spec(inf, 2, 3), ctx50)
        with pytest.raises(fh.DomainError, match="finite"):
            fh.partial_sum(flint_spec(3, inf, 3), ctx50)
        with pytest.raises(fh.DomainError, match="finite"):
            fh.partial_sum(alpha_pi_spec(inf, 2, fh.constant_value("sqrt2", ctx50), 3), ctx50)
        with pytest.raises(fh.DomainError, match="finite"):
            fh.partial_sum(flat_spec("flat_power", "nearest", inf, 1, 3), ctx50)
        with pytest.raises(fh.DomainError, match="^series exponents u, v must be positive$"):
            fh.partial_sum(flint_spec(float("nan"), 2, 3), ctx50)
        # 10**400 has no float, yet sums: past n = 1 every term is below working precision
        first = 1 / ctx50._mp.sin(1) ** 2
        for spec in (flint_spec(10**400, 2, 3), fh.SeriesSpec(family="lacunary", u=10**400, v=2, limit=3)):
            assert fh.partial_sum(spec, ctx50).value == first
        assert fh.partial_sum(flint_spec(3, 10**400, 1), ctx50).value > 0
        assert fh.partial_sum(flat_spec("flat_power", "nearest", 10**400, 1, 3), ctx50).value > 0
        report = fh.convergence_report(flint_spec(10**400, 2, 4), ctx50)
        assert report.predicted_convergent and report.partial_sum == first

    def test_power_is_exact_below_the_bound(self, ctx50):
        # below the bound n**k is rounded once from the exact integer; above it
        # mpmath's rounded power agrees to working precision
        from flinthills.series import EXACT_POWER_BITS, _exponent, _power

        mp = ctx50._mp
        prec, rnd = mp._prec_rounding
        for n in (3, 355, 103993):
            below = (EXACT_POWER_BITS - 1) // n.bit_length()
            assert _power(n, _exponent(mp, float(below)), prec, rnd) == mp.mpf(n**below)._mpf_
            above = below + 1
            want = mp.mpf(n**above)
            got = mp.make_mpf(_power(n, _exponent(mp, above), prec, rnd))
            assert abs(got - want) <= abs(want) * mp.mpf(10) ** -48
        assert _power(2, _exponent(mp, 2.5), prec, rnd) == mp.power(2, 2.5)._mpf_

    def test_power_of_an_even_index_is_the_rounded_integer(self, ctx50):
        # an even n**k is rounded from the full integer without first
        # stripping its trailing zero bits, and still gives mpmath's value
        from flinthills.series import _power

        mp = ctx50._mp
        prec, rnd = mp._prec_rounding
        for n, k in ((2, 3), (4, 500), (10, 77), (355 * 2**5, 40), (4, 60000)):
            assert _power(n, k, prec, rnd) == mp.mpf(n**k)._mpf_

    def test_large_even_power_is_fast(self):
        # u = 300000 puts 2**u, 4**u and 6**u below EXACT_POWER_BITS
        out = io.StringIO()
        start = time.perf_counter()
        assert cli.run(["series", "flint", "--u", "300000", "--limit", "8"], out=out) == 0
        assert time.perf_counter() - start < 1.0
        assert out.getvalue()


class TestLacunaryPartialSum:
    def test_single_record_index(self, ctx50):
        r = fh.partial_sum(lacunary_spec(1), ctx50)
        assert abs(float(r.value) - 1.4122829) < 1e-6

    def test_two_record_indices(self, ctx50):
        r = fh.partial_sum(lacunary_spec(3), ctx50)
        oracle = 1 / math.sin(1) ** 2 + 1 / (27 * math.sin(3) ** 2)
        assert rel_err(r.value, oracle) < 1e-12
        assert abs(oracle - 3.2720521259710487) < 1e-12

    @pytest.mark.parametrize("checkpoints", [(), (1, 3)])
    def test_limit_below_one_raises(self, ctx50, checkpoints):
        # flint's rule: the index 1 is a record index of every limit >= 1
        for limit in (0, -5):
            with pytest.raises(fh.DomainError, match=r"^x must be >= 1$"):
                fh.partial_sum(lacunary_spec(limit), ctx50, checkpoints)

    def test_splitting_identity(self, ctx50):
        # P_x = (sum over non-record n) + Q_x, recomputed independently
        x = 400
        p_full = fh.partial_sum(flint_spec(3, 2, x), ctx50)
        q_lac = fh.partial_sum(lacunary_spec(x), ctx50)
        mp = ctx50._mp
        rest = mp.mpf(0)
        skip = set(LACUNARY_UNDER_400)
        for n in range(1, x + 1):
            if n not in skip:
                rest += 1 / (mp.mpf(n) ** 3 * sin_int(n, ctx50) ** 2)
        assert abs(p_full.value - (rest + q_lac.value)) < mp.mpf(10) ** (-40)

    def test_record_indices_are_the_numerators_up_to_x(self):
        from flinthills.series import _record_indices

        numerators = [c.p for c in fh.constant_convergents("pi", 500)]
        xs = [0, 1, 2, 3, 21, 22, 23] + [10**k for k in range(201)]
        xs += [numerators[n] + d for n in (0, 1, 2, 3, 10, 50, 100, 200, 380) for d in (-1, 0, 1)]
        assert max(xs) < numerators[-1]
        for x in xs:
            assert _record_indices(x) == [p for p in [1] + numerators if p <= x], x

    def test_expands_pi_once(self, ctx50, monkeypatch):
        from flinthills import contfrac

        calls = []
        expand_at = contfrac._expand_at
        monkeypatch.setattr(contfrac, "_expand_at", lambda *a: calls.append(a) or expand_at(*a))
        fh.partial_sum(lacunary_spec(10**60), ctx50)
        assert len(calls) == 1

    def test_binet_lower_bound(self, ctx60):
        mp = ctx60._mp
        phi = (1 + mp.sqrt(5)) / 2
        sqrt5 = mp.sqrt(5)
        for i, c in enumerate(fh.constant_convergents("pi", 200), start=1):
            assert c.p >= phi**i / sqrt5


class TestAlphaPiPartialSum:
    def test_single_term_sqrt2(self, ctx50):
        alpha = fh.constant_value("sqrt2", ctx50)
        r = fh.partial_sum(alpha_pi_spec(3, 2, alpha, 1), ctx50)
        oracle = 1 / math.sin(math.sqrt(2) * math.pi) ** 2
        assert rel_err(r.value, oracle) < 1e-12
        assert abs(oracle - 1.0763010329070786) < 1e-12

    def test_ten_terms_against_double_oracle(self, ctx50):
        alpha = fh.constant_value("sqrt2", ctx50)
        r = fh.partial_sum(alpha_pi_spec(3, 2, alpha, 10), ctx50)
        oracle = sum(
            1 / (n**3 * math.sin(math.pi * math.sqrt(2) * n) ** 2) for n in range(1, 11)
        )
        assert rel_err(r.value, oracle) < 1e-8

    def test_empty(self, ctx50):
        r = fh.partial_sum(alpha_pi_spec(1, 1, fh.constant_value("sqrt2", ctx50), 0), ctx50)
        assert r.value == 0

    def test_unresolvable_sine_raises(self, ctx50):
        # alpha = 1/2 puts sin(alpha pi n) exactly at zero for even n
        with pytest.raises(fh.PrecisionInsufficientError, match="n=2"):
            fh.partial_sum(alpha_pi_spec(3, 2, ctx50.mpf("0.5"), 4), ctx50)


class TestFlatHills:
    def test_scaled_nearest_first_term(self, ctx50):
        r = fh.partial_sum(flat_spec("flat_scaled", "nearest", 2, 1, 1), ctx50)
        oracle = 1 / math.sin(abs(10 * math.pi - 31))
        assert rel_err(r.value, oracle) < 1e-12
        assert abs(oracle - 2.475016898983283) < 1e-11

    def test_power_empty(self, ctx50):
        assert fh.partial_sum(flat_spec("flat_power", "nearest", 2, 1, 0), ctx50).value == 0

    def test_power_fractional_parts(self, ctx50):
        r = fh.partial_sum(flat_spec("flat_power", "frac", 2, 2, 2), ctx50)
        f1 = math.pi - 3
        f2 = math.pi**2 - 9
        oracle = 1 / math.sin(f1) ** 2 + 1 / (4 * math.sin(f2) ** 2)
        assert rel_err(r.value, oracle) < 1e-11

    def test_deep_power_argument_precision(self, ctx50):
        # ||pi^n|| needs ~n/2 extra digits; a 150th power must still resolve
        r = fh.partial_sum(flat_spec("flat_power", "nearest", 2, 2, 150), ctx50)
        assert r.value > 0

    @pytest.mark.parametrize("digits", (50, 120))
    def test_pi_power_chain_error_bound(self, digits):
        # the chain is within (2n + 1) pi^(n-1) units of pi^n 10^k, which is
        # below 10^-eff once divided by 10^k
        from flinthills.series import _pi_powers

        eff = fh.make_context(digits).effective_digits
        ref = mpmath.MPContext()
        for n, (acc, s) in zip(range(1, 401), _pi_powers(eff)):
            ref.dps = 2 * len(str(s))
            units = abs(acc - ref.pi**n * s)
            assert units < (2 * n + 1) * ref.pi ** (n - 1)
            assert units / s < ref.mpf(10) ** -eff

    def test_carried_chain_equals_the_chain_from_scratch(self, ctx50):
        from flinthills.series import _pi_powers
        from test_summation_bits import reference_pi_power_scaled

        eff = ctx50.effective_digits
        carried = list(itertools.islice(_pi_powers(eff), 300))
        assert carried == [reference_pi_power_scaled(n, eff) for n in range(1, 301)]

    def test_scaled_fractional_parts(self, ctx50):
        r = fh.partial_sum(flat_spec("flat_scaled", "frac", 2, 1, 2), ctx50)
        f1 = 10 * math.pi - 31
        f2 = 100 * math.pi - 314
        oracle = 1 / math.sin(f1) + 1 / (4 * math.sin(f2))
        assert rel_err(r.value, oracle) < 1e-11

    @pytest.mark.parametrize("family", ["flat_power", "flat_scaled"])
    def test_scaled_computes_pi_once(self, family, ctx50, monkeypatch):
        # every term asks for a larger scale; pi_scaled grows its cache
        # geometrically, so pi is computed a logarithmic number of times
        import flinthills.mpreal as mpreal
        import flinthills.series as series

        calls, asked = [], []
        machin, scaled = mpreal._pi_machin_scaled, mpreal.pi_scaled
        monkeypatch.setattr(mpreal, "_pi_machin_scaled", lambda d: calls.append(d) or machin(d))
        monkeypatch.setattr(series, "pi_scaled", lambda d: asked.append(d) or scaled(d))
        monkeypatch.setattr(mpreal, "_pi_cache", {})
        fh.partial_sum(flat_spec(family, "nearest", 2, 1, 200), ctx50)
        assert len(calls) <= 1 + math.ceil(math.log2(max(asked) / asked[0]))

    @pytest.mark.parametrize("family", ["flat_power", "flat_scaled"])
    def test_non_finite_exponent_rejected_before_pi(self, family, ctx50, monkeypatch):
        # pi at the last term's scale (0.5 to 1 million digits here) would take minutes
        import flinthills.mpreal as mpreal

        def machin(digits):
            raise AssertionError(f"pi computed at {digits} digits")

        monkeypatch.setattr(mpreal, "_pi_machin_scaled", machin)
        monkeypatch.setattr(mpreal, "_pi_cache", {})
        with pytest.raises(fh.DomainError, match="finite"):
            fh.partial_sum(flat_spec(family, "nearest", math.inf, 1, 10**6), ctx50)

    @pytest.mark.parametrize("family", ["flat_power", "flat_scaled"])
    def test_integer_argument_is_singular(self, family, ctx50, monkeypatch):
        # pi as exactly 3 puts every pi^n and pi b^n on an integer
        import flinthills.series as series

        monkeypatch.setattr(series, "pi_scaled", lambda k: 3 * 10**k)
        with pytest.raises(fh.SingularArgumentError, match="n=1 is within tolerance of an integer"):
            fh.partial_sum(flat_spec(family, "nearest", 2, 1, 3), ctx50)

    def test_validation(self, ctx50):
        with pytest.raises(fh.DomainError):
            fh.partial_sum(flat_spec("flat_power", "sideways", 2, 1, 3), ctx50)
        with pytest.raises(fh.DomainError):
            fh.partial_sum(flat_spec("flat_power", "frac", 1, 1, 3), ctx50)
        with pytest.raises(fh.DomainError):
            fh.partial_sum(flat_spec("flat_power", "frac", 2, 0, 3), ctx50)


class TestConvergenceReport:
    def test_flint_standard(self, ctx50):
        spec = fh.SeriesSpec(family="flint", u=3, v=2, limit=100)
        diag = fh.convergence_report(spec, ctx50)
        assert diag.predicted_convergent
        assert float(diag.exponent) == 1
        assert 0 < float(diag.lacunary_tail_bound) < 10
        assert float(diag.last_decade_relative_change) < 0.5

    def test_flint_epsilon(self, ctx50):
        spec = fh.SeriesSpec(family="flint", u=1.01, v=1, limit=40)
        diag = fh.convergence_report(spec, ctx50)
        assert diag.predicted_convergent
        assert 0 < float(diag.exponent) < 0.02

    def test_flint_divergent_flag(self, ctx50):
        spec = fh.SeriesSpec(family="flint", u=1, v=2, limit=30)
        diag = fh.convergence_report(spec, ctx50)
        assert not diag.predicted_convergent
        assert diag.lacunary_tail_bound == ctx50._mp.inf

    def test_alpha_pi_with_measure(self, ctx50):
        alpha = fh.constant_value("sqrt2", ctx50)
        spec = fh.SeriesSpec(family="alpha_pi", u=3, v=2, alpha=alpha, limit=30)
        diag = fh.convergence_report(spec, ctx50, measure=2)
        assert diag.predicted_convergent
        assert float(diag.exponent) == 1

    def test_alpha_pi_requires_measure(self, ctx50):
        alpha = fh.constant_value("sqrt2", ctx50)
        spec = fh.SeriesSpec(family="alpha_pi", u=3, v=2, alpha=alpha, limit=30)
        with pytest.raises(fh.DomainError, match="measure"):
            fh.convergence_report(spec, ctx50)

    def test_nan_measure_rejected(self, ctx50):
        alpha = fh.constant_value("sqrt2", ctx50)
        for spec in (fh.SeriesSpec(family="flint", u=3, v=2, limit=30),
                     fh.SeriesSpec(family="alpha_pi", u=3, v=2, alpha=alpha, limit=30)):
            with pytest.raises(fh.DomainError, match="NaN"):
                fh.convergence_report(spec, ctx50, measure=math.nan)
        # a Liouville alpha has measure inf: accepted, and predicted divergent
        diag = fh.convergence_report(fh.SeriesSpec(family="alpha_pi", u=3, v=2, alpha=alpha, limit=30),
                                     ctx50, measure=math.inf)
        assert not diag.predicted_convergent


class TestRecipSinTable:
    def test_first_row(self, ctx60):
        rows = fh.recip_sin_table(1, ctx60)
        r = rows[0]
        assert abs(float(r.recip_sin) - 7.086167395737187) < 1e-10
        assert abs(float(r.recip_inv_sin) - 3.0562843) < 1e-6
        assert abs(float(r.ratio) - math.sin(3) / math.sin(1 / 3)) < 1e-14
        assert abs(float(r.ratio) - 0.4313028586) < 1e-9

    def test_against_published(self, ctx60, recip_sin_reference, annotated):
        rows = fh.recip_sin_table(25, ctx60)
        for row, ref in zip(rows, recip_sin_reference):
            n = int(ref["n"])
            assert row.p == int(ref["p"])
            if ("recip_sin", n, "recip_sin") not in annotated:
                assert rel_err(row.recip_sin, float(ref["recip_sin"])) < 5e-6
            if ("recip_sin", n, "recip_inv_sin") not in annotated:
                assert rel_err(row.recip_inv_sin, float(ref["recip_inv_sin"])) < 5e-6
            if ("recip_sin", n, "ratio") not in annotated:
                assert rel_err(row.ratio, float(ref["ratio"])) < 5e-5


class TestGammaReflectionTable:
    def test_against_published(self, ctx60, gamma_reference, annotated):
        rows = fh.gamma_reflection_table(25, ctx60)
        for row, ref in zip(rows, gamma_reference):
            n = int(ref["n"])
            if ("gamma", n, "reflection") in annotated:
                assert rel_err(abs(row.reflection), abs(float(ref["reflection"]))) < 5e-6
            else:
                assert rel_err(row.reflection, float(ref["reflection"])) < 5e-6
            assert rel_err(row.scaled_ratio, float(ref["scaled_ratio"])) < 5e-6

    def test_internal_identity(self, ctx60):
        pi = fh.pi_const(ctx60)
        for row in fh.gamma_reflection_table(10, ctx60):
            lhs = row.scaled_ratio
            rhs = row.reflection * pi / row.p
            assert abs(lhs - rhs) <= abs(lhs) * ctx60.mpf(10) ** (-(60 - 2))

    def test_cross_check_runs(self, ctx60):
        rows = fh.gamma_reflection_table(3, ctx60)
        assert [r.index for r in rows] == [1, 2, 3]

    def test_wrong_reflection_fails_the_cross_check(self, ctx60, monkeypatch):
        import flinthills.series as series

        monkeypatch.setattr(series, "sin_int", lambda n, ctx: -sin_int(n, ctx))
        with pytest.raises(fh.CrossCheckError, match="p=3"):
            fh.gamma_reflection_table(3, ctx60)

    def test_cross_check_catches_a_relative_1e_6_error(self, ctx60, monkeypatch):
        import flinthills.series as series

        monkeypatch.setattr(series, "sin_int", lambda n, ctx: sin_int(n, ctx) * (1 + ctx.mpf("1e-6")))
        with pytest.raises(fh.CrossCheckError, match="p=3"):
            fh.gamma_reflection_table(3, ctx60)
