"""sine_run: the sines of a run of consecutive indices, bit for bit the per-index path.

A rotation recurrence supplies each sine, and its value is used only when
Ziv's rounding test shows that mpmath's sine rounds to the same bits.  These
tests compare the run with the per-index path (``sin_int`` for flint, the
alpha-pi formula written out below), force the fallback, replay mpmath's own
value before rounding against the bounds the run relies on, pin the fallback
rate and the version guard, and check the run's contract: it starts when first
advanced, yields each index once up to its end, and an index out of order
raises.  Fallbacks are counted as calls of ``mpreal.mpf_sin``, which only the
run's fallback makes.
"""

import random
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_cos_sin,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_sin,
)
from mpmath.libmp.libelefun import COS_SIN_CACHE_PREC, cos_sin_basecase, mod_pi2

import flinthills as fh
from flinthills import mpreal, series
from flinthills.mpreal import alpha_pi_residues, flint_residues, pi_const, sin_int, to_scaled

ALPHAS = (None, "sqrt2", "golden", "sqrt3", "cbrt2")


def alpha_scaled(alpha, ctx):
    return None if alpha is None else to_scaled(fh.constant_value(alpha, ctx), ctx.effective_digits)


def per_index_sine(ctx, scaled):
    """n -> the per-index raw sine: sin_int, or the alpha-pi formula."""
    if scaled is None:
        return lambda n: sin_int(n, ctx)._mpf_
    prec, rnd = ctx._mp._prec_rounding
    scale = 10**ctx.effective_digits
    pi_val = pi_const(ctx)._mpf_

    def sine(n):
        whole, frac = divmod(scaled * n, scale)
        x = mpf_mul(pi_val, mpf_div(from_int(frac, prec, rnd), from_int(scale), prec, rnd), prec, rnd)
        s = mpf_sin(x, prec, rnd)
        return mpf_neg(s, prec, rnd) if whole & 1 else s

    return sine


def outcome(run):
    """The result of run(), or the type and message of its error."""
    try:
        return run()
    except fh.FlintHillsError as exc:
        return type(exc).__name__, str(exc)


def sine_run(ctx, scaled, end, n=1):
    """The run of flint sines (scaled None) or of alpha-pi sines for alpha_scaled = scaled."""
    residues = partial(flint_residues, ctx) if scaled is None else partial(alpha_pi_residues, ctx, scaled)
    return mpreal.sine_run(ctx, end, residues, n)


def run_values(ctx, scaled, indices):
    """The sines of the whole run over the consecutive indices, checking the index of each."""
    pairs = list(sine_run(ctx, scaled, indices[-1], indices[0]))
    assert [n for n, _ in pairs] == list(indices)
    return [value for _, value in pairs]


@pytest.fixture
def mpf_sin_calls(monkeypatch):
    """A list that gets one entry per call of the run's fallback, mpreal.mpf_sin."""
    calls = []
    real = mpreal.mpf_sin
    monkeypatch.setattr(mpreal, "mpf_sin", lambda *args: calls.append(1) or real(*args))
    return calls


class TestMatchesPerIndexPath:
    @settings(max_examples=40, deadline=None)
    @given(digits=st.integers(min_value=30, max_value=250), start=st.integers(min_value=1, max_value=10**6),
           length=st.integers(min_value=1, max_value=2000), alpha=st.sampled_from(ALPHAS))
    @example(digits=50, start=2**19 - 1000, length=2000, alpha=None)  # a new reduction scale mid-run
    @example(digits=50, start=8191, length=3, alpha=None)  # a new reduction scale after the first index
    @example(digits=109, start=1, length=2000, alpha="cbrt2")  # re-anchored past 1024 steps
    @example(digits=50, start=10**6 - 1000, length=2000, alpha=None)  # across a power of ten
    @example(digits=50, start=1, length=2050, alpha=None)  # two anchors; new scales at 8, 64 and 512
    def test_run(self, digits, start, length, alpha):
        ctx = fh.make_context(digits)
        scaled = alpha_scaled(alpha, ctx)
        indices = range(start, start + length)
        got = run_values(ctx, scaled, indices)
        want = per_index_sine(ctx, scaled)
        assert got == [want(n) for n in indices]

    @settings(max_examples=15, deadline=None)
    @given(digits=st.integers(min_value=30, max_value=250), limit=st.integers(min_value=0, max_value=2000),
           u=st.sampled_from((1, 2, 3, 2.5)), v=st.sampled_from((1, 2, 3, 1.5)),
           alpha=st.sampled_from(ALPHAS))
    def test_partial_sum(self, digits, limit, u, v, alpha):
        """The whole sum: every field of the result, or its error, against the loop over per-index sines."""
        ctx = fh.make_context(digits)
        if alpha is None:
            spec = fh.SeriesSpec(family="flint", u=u, v=v, limit=max(limit, 1))
        else:
            spec = fh.SeriesSpec(family="alpha_pi", u=u, v=v, alpha=fh.constant_value(alpha, ctx), limit=limit)
        marks = sorted({1, spec.limit // 2 + 1, spec.limit + 3})
        sine = per_index_sine(ctx, alpha_scaled(alpha, ctx))
        want = outcome(lambda: series._run_sum(ctx._mp, range(1, max(marks) + 1), sine, spec, marks))
        assert outcome(lambda: fh.partial_sum(spec, ctx, marks)) == want

    @pytest.mark.parametrize("start", [10**4 - 50, 10**5 - 50, 2**14 - 50])
    def test_exact_decimal_length(self, monkeypatch, ctx50, start):
        """decimal_length may return the exact digit count: the run then reduces at a new
        scale from the power of ten on, as sin_int does."""
        monkeypatch.setattr(mpreal, "decimal_length", lambda n: len(str(abs(n))))
        indices = range(start, start + 100)
        got = run_values(ctx50, None, indices)
        assert got == [sin_int(n, ctx50)._mpf_ for n in indices]

    def test_sin_int_with_a_run(self, ctx50):
        run = sine_run(ctx50, None, 500)
        assert [sin_int(n, ctx50, run) for n in range(1, 501)] == [sin_int(n, ctx50) for n in range(1, 501)]

    @pytest.mark.parametrize("asked", [[1, 2, 4], [1, 1], [2], [1, 2, 3, 4, 5, 6]],
                             ids=["skip", "repeat", "late-start", "past-end"])
    def test_out_of_order_raises(self, ctx50, asked):
        """sin_int asks a run of 1..5 for its next index; any other index gets the error, not digits."""
        run = sine_run(ctx50, None, 5)
        for m in asked[:-1]:
            assert sin_int(m, ctx50, run) == sin_int(m, ctx50)
        with pytest.raises(fh.CrossCheckError, match=rf"sin\({asked[-1]}\)"):
            sin_int(asked[-1], ctx50, run)

    def test_alpha_pi_out_of_order_raises(self, ctx50):
        sine = series._alpha_pi_sine(mpmath.sqrt(2), ctx50, 10)
        sine(1)
        with pytest.raises(fh.CrossCheckError, match=r"sin\(3\)"):
            sine(3)


class TestContract:
    @pytest.mark.parametrize("alpha", [None, "golden"])
    @pytest.mark.parametrize("n, end", [(1, 1), (1, 40), (1020, 1030), (8191, 8200), (7, 6)])
    def test_yields_each_index_to_end(self, ctx50, alpha, n, end):
        """A run from n to end yields end - n + 1 pairs (n, sine), then stops."""
        pairs = list(sine_run(ctx50, alpha_scaled(alpha, ctx50), end, n))
        assert len(pairs) == max(0, end - n + 1)
        assert [m for m, _ in pairs] == list(range(n, end + 1))


class TestFallback:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_forced_ambiguity_takes_the_per_index_path(self, monkeypatch, mpf_sin_calls, alpha):
        """With mpmath's bound forced huge no value is certified, and the sums do not move."""
        ctx = fh.make_context(60)
        spec = (fh.SeriesSpec(family="flint", u=3, v=2, limit=1500) if alpha is None else
                fh.SeriesSpec(family="alpha_pi", u=3, v=2, alpha=fh.constant_value(alpha, ctx), limit=1500))
        normal = fh.partial_sum(spec, ctx, [700])
        real = mpreal._mpmath_sin_error
        monkeypatch.setattr(mpreal, "_mpmath_sin_error", lambda mag, prec: (1 << 600, real(mag, prec)[1]))
        mpf_sin_calls.clear()  # the fallbacks of the sum above
        run_values(ctx, alpha_scaled(alpha, ctx), range(1, 1501))
        assert len(mpf_sin_calls) == 1500
        assert fh.partial_sum(spec, ctx, [700]) == normal

    def test_version_guard(self, monkeypatch, ctx50, mpf_sin_calls):
        assert mpreal._mpmath_analysed("1.3.0") and mpreal._mpmath_analysed("1.3.1")
        for version in ("1.2.1", "1.4.0", "2.0.0", "0.19"):
            assert not mpreal._mpmath_analysed(version)
        monkeypatch.setattr(mpmath, "__version__", "1.4.0")
        got = run_values(ctx50, None, range(1, 301))
        assert len(mpf_sin_calls) == 300
        assert got == [sin_int(n, ctx50)._mpf_ for n in range(1, 301)]

    def test_fallback_rate_at_50_digits(self, ctx50, mpf_sin_calls):
        run_values(ctx50, None, range(1, 20001))
        assert len(mpf_sin_calls) < 0.3 * 20000

    @staticmethod
    def midpoint_distance(x, prec):
        """Distance, in units in the last place at prec bits, from sin x to the nearest rounding midpoint."""
        sign, man, exp, bc = mpf_sin(x, prec + 200)
        pos = Fraction(man) * Fraction(2) ** (prec - bc)
        return abs(pos - int(pos) - Fraction(1, 2))

    @pytest.mark.parametrize("n, certified", [(3006, False), (294, True)])
    def test_near_a_midpoint(self, ctx50, mpf_sin_calls, n, certified):
        """sin(x_3006) lies 1e-4 ulp from a rounding midpoint, inside mpmath's bound at |x| < 1,
        so it takes mpf_sin.  sin(x_294) lies 1e-6 ulp from one, outside the far smaller bound
        at |x| >= 1 (mpmath works 30 bits past prec there), and is certified."""
        prec, rnd = ctx50._mp._prec_rounding
        red = mpreal.reduction_digits(n, ctx50)
        _, r = mpreal.residue_mod_pi(0, 1, n, red)
        x = mpreal._residue_argument(r, red, prec, rnd)
        assert self.midpoint_distance(x, prec) < Fraction(1, 10**6 if certified else 10**4)
        run = sine_run(ctx50, None, n, n - 5)
        pairs = [next(run) for _ in range(5)]
        before = len(mpf_sin_calls)
        pairs.append(next(run))
        assert (len(mpf_sin_calls) == before) is certified
        assert pairs == [(m, sin_int(m, ctx50)._mpf_) for m in range(n - 5, n + 1)]


class TestPiOnce:
    @pytest.fixture
    def fresh_pi(self, monkeypatch):
        """An empty pi cache; the list records each computation (each reads the reference digits)."""
        calls = []
        reference = mpreal._reference_pi_digits
        monkeypatch.setattr(mpreal, "_pi_cache", {})
        monkeypatch.setattr(mpreal, "_pi_derived", (0, 0, 0))
        monkeypatch.setattr(mpreal, "_reference_pi_digits", lambda: calls.append(1) or reference())
        return calls

    @pytest.mark.parametrize("alpha", [None, mpmath.sqrt(2)], ids=["flint", "alpha_pi"])
    def test_one_pi_per_sum(self, fresh_pi, ctx50, alpha):
        """flint's run crosses five reduction scales, and alpha-pi's pi_const
        derives from the run's pi; the run asks for the largest pi first."""
        family = "flint" if alpha is None else "alpha_pi"
        fh.partial_sum(fh.SeriesSpec(family=family, u=3, v=2, alpha=alpha, limit=20000), ctx50)
        assert len(fresh_pi) == 1 and list(mpreal._pi_cache) == [117]

    @pytest.mark.parametrize("alpha", [None, "sqrt2"])
    def test_set_up_at_the_first_next(self, fresh_pi, ctx50, alpha):
        """Creating a run computes nothing; its first value computes pi once."""
        run = sine_run(ctx50, alpha_scaled(alpha, ctx50), 20000)
        assert fresh_pi == [] and mpreal._pi_cache == {}
        assert next(run)[0] == 1
        assert len(fresh_pi) == 1 and list(mpreal._pi_cache) == [117]

    def test_hostile_exponent_fails_before_set_up(self, fresh_pi, ctx50):
        for spec in (fh.SeriesSpec(family="flint", u=mpmath.inf, v=2, limit=3),
                     fh.SeriesSpec(family="alpha_pi", u=mpmath.inf, v=2, alpha=mpmath.sqrt(2), limit=3)):
            with pytest.raises(fh.DomainError, match="finite"):
                fh.partial_sum(spec, ctx50)
        assert fresh_pi == [] and mpreal._pi_cache == {}


def replay_mpf_sin(x, prec):
    """(S, wp): the fixed-point sine mpf_sin(x, prec) rounds, replayed from mpmath 1.3's steps."""
    sign, man, exp, bc = x
    t, n, wp = mod_pi2(man, exp, exp + bc, prec + 10)
    c, s = cos_sin_basecase(t, wp)
    s = (s, c, -s, -c)[n & 3]
    return (-s if sign else s), wp


def exact_sin(x, wp):
    """sin x * 2**wp, to far better than one unit."""
    return mpmath.mpf(mpf_sin(x, wp + 80)) * mpmath.mpf(2) ** wp


class TestMpmathBound:
    """mpmath's value before rounding stays inside the bound the run certifies against."""

    @pytest.mark.parametrize("path", ["basecase", "exponential_series"])
    def test_mpf_sin_before_rounding(self, path):
        rng = random.Random(f"mpf_sin-{path}")
        low, high = (60, COS_SIN_CACHE_PREC - 30) if path == "basecase" else (COS_SIN_CACHE_PREC + 1, 1700)
        worst = 0
        with mpmath.workprec(2000):
            for _ in range(3000):
                prec = rng.randint(low, high)
                mag = rng.choice(mpreal._MAGNITUDES)
                x = from_man_exp(rng.getrandbits(prec) | 1 << (prec - 1), mag - prec, prec)
                bound, wp = mpreal._mpmath_sin_error(mag, prec)
                s, wp_used = replay_mpf_sin(x, prec)
                assert wp_used >= wp
                err = abs(s - exact_sin(x, wp_used)) / 2 ** (wp_used - wp)
                assert err < bound
                worst = max(worst, err / bound)
        assert worst > 0.05  # the replay is not vacuous

    @pytest.mark.parametrize("path", ["basecase", "exponential_series"])
    def test_cos_sin_basecase(self, path):
        """Both values of the fixed-point routine the run also anchors with."""
        rng = random.Random(f"basecase-{path}")
        low, high = (60, COS_SIN_CACHE_PREC) if path == "basecase" else (COS_SIN_CACHE_PREC + 1, 1700)
        with mpmath.workprec(2000):
            for _ in range(3000):
                p = rng.randint(low, high)
                t = rng.randrange(1, 2 << p)
                c, s = cos_sin_basecase(t, p)
                cv, sv = mpf_cos_sin(from_man_exp(t, -p), p + 80)
                bound = mpreal._cos_sin_error(p)
                assert abs(c - mpmath.mpf(cv) * 2**p) < bound
                assert abs(s - mpmath.mpf(sv) * 2**p) < bound
