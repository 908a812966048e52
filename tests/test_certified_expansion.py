"""Differential guard for the batched certified expansion.

``expand`` must emit exactly the quotients, and stop exactly where, a plain
loop taking one exact Euclid step per quotient on the interval endpoints
would.  That loop is kept here as the reference.
"""

import dataclasses
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flinthills as fh
from flinthills import contfrac
from flinthills.mpreal import to_scaled


def reference_interval(lo_n, lo_d, hi_n, hi_d, max_terms, out):
    """Append the quotients both endpoints agree on; True if precision ran out."""
    while len(out) < max_terms:
        if lo_d <= 0 or hi_d <= 0:
            return True
        a = lo_n // lo_d
        if a != hi_n // hi_d:
            return True
        if out and a < 1:
            raise fh.CrossCheckError("non-positive partial quotient past a_0")
        out.append(a)
        lo_n, lo_d, hi_n, hi_d = hi_d, hi_n - a * hi_d, lo_d, lo_n - a * lo_d
    return False


def reference_expand(x, max_terms, ctx):
    """(terms, exhausted) of expand(x, max_terms, ctx), one step at a time."""
    digits = ctx.effective_digits
    scaled, eps, scale = to_scaled(x, digits), to_scaled(x, 0) + 3, 10**digits
    out = []
    exhausted = reference_interval(scaled - eps, scale, scaled + eps, scale, max_terms, out)
    return out, exhausted


def assert_matches_reference(x, max_terms, ctx):
    want, want_exhausted = reference_expand(x, max_terms, ctx)
    pq = fh.expand(x, max_terms, ctx)
    assert list(pq.terms) == want
    assert pq.exhausted == want_exhausted
    return pq


def assert_interval_matches(lo, hi, max_terms, prefix=()):
    """Helper and reference agree on quotients, exhaustion and errors."""
    ends = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    want, got = list(prefix), list(prefix)
    try:
        want_exhausted = reference_interval(*ends, max_terms, want)
    except fh.CrossCheckError:
        with pytest.raises(fh.CrossCheckError, match="non-positive"):
            contfrac._expand_interval(*ends, max_terms, got)
        assert got == want
        return
    assert contfrac._expand_interval(*ends, max_terms, got) == want_exhausted
    assert got == want


def fraction_of(quotients):
    acc = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        acc = a + 1 / acc
    return acc


digit_counts = st.integers(min_value=30, max_value=5000)
term_limits = st.one_of(st.integers(min_value=1, max_value=3000), st.just(10**6))


class TestExpandAgainstOneStepLoop:
    @settings(max_examples=25, deadline=None)
    @given(digits=digit_counts, radicand=st.integers(min_value=2, max_value=10**6),
           max_terms=term_limits)
    def test_irrational_intervals(self, digits, radicand, max_terms):
        ctx = fh.make_context(digits)
        assert_matches_reference(ctx._mp.sqrt(radicand) + ctx._mp.cbrt(3), max_terms, ctx)

    @settings(max_examples=25, deadline=None)
    @given(digits=digit_counts, data=st.data())
    def test_rationals_end_exhausted(self, digits, data):
        width = data.draw(st.integers(min_value=1, max_value=digits // 2))
        p = data.draw(st.integers(min_value=1, max_value=10**width))
        q = data.draw(st.integers(min_value=1, max_value=10**width))
        ctx = fh.make_context(digits)
        pq = assert_matches_reference(ctx.mpf(p) / q, 10**6, ctx)
        assert pq.exhausted

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), giant_digits=st.integers(min_value=50, max_value=1500))
    def test_single_giant_quotient(self, data, giant_digits):
        small = st.lists(st.integers(min_value=2, max_value=50), min_size=1, max_size=300)
        head, tail = data.draw(small), data.draw(small)  # tail keeps the giant off the end
        quotients = [3] + head + [10**giant_digits + 7] + tail
        x = fraction_of(quotients)
        ctx = fh.make_context(2 * len(str(x.denominator)) + 100)
        pq = assert_matches_reference(ctx.mpf(x.numerator) / x.denominator, 10**6, ctx)
        assert list(pq.terms[: len(head) + 2]) == quotients[: len(head) + 2]

    def test_named_constants_deep(self):
        ctx = fh.make_context(6000)
        for name in fh.contfrac.KNOWN_CONSTANTS:
            assert_matches_reference(fh.constant_value(name, ctx), 10**6, ctx)


class TestIntervalHelper:
    @settings(max_examples=40, deadline=None)
    @given(bits=st.integers(min_value=64, max_value=17000), data=st.data(),
           max_terms=term_limits)
    def test_unequal_denominators(self, bits, data, max_terms):
        lo_d = data.draw(st.integers(min_value=1 << (bits - 1), max_value=1 << bits))
        hi_d = data.draw(st.integers(min_value=1 << (bits - 1), max_value=1 << bits))
        lo_n = data.draw(st.integers(min_value=0, max_value=1 << (bits + 8)))
        width = data.draw(st.integers(min_value=1, max_value=1 << (bits // 2)))
        lo = Fraction(lo_n, lo_d)
        hi = Fraction(lo_n * hi_d // lo_d + width, hi_d)
        assert_interval_matches(lo, hi, max_terms)

    @settings(max_examples=25, deadline=None)
    @given(digits=digit_counts, data=st.data())
    def test_exact_rational_endpoint(self, digits, data):
        # lo is exactly p/q, so its denominator reaches zero at p/q's last quotient
        width = data.draw(st.integers(min_value=1, max_value=digits // 2))
        p = data.draw(st.integers(min_value=1, max_value=10**width))
        q = data.draw(st.integers(min_value=1, max_value=10**width))
        lo = Fraction(p, q)
        assert_interval_matches(lo, lo + Fraction(1, 10**digits), 10**6)

    @settings(max_examples=25, deadline=None)
    @given(digits=digit_counts, data=st.data())
    def test_non_positive_quotient_raises(self, digits, data):
        scale = 10**digits
        centre = data.draw(st.integers(min_value=-3 * scale, max_value=scale - 2))
        lo, hi = Fraction(centre - 1, scale), Fraction(centre + 1, scale)
        assert_interval_matches(lo, hi, 10**6, prefix=(3, 7))

    def test_first_quotient_may_be_zero_or_negative(self):
        lo, hi = Fraction(-7, 3), Fraction(-7, 3) + Fraction(1, 10**4000)
        assert_interval_matches(lo, hi, 10**6)
        assert_interval_matches(Fraction(1, 7), Fraction(1, 7) + Fraction(1, 10**4000), 10**6)


# sha256 of the space-joined terms, recorded with the one-step loop at the
# precision digits_for_terms(50000) gives (pi exhausts just short there)
PINS_50K = {
    "pi": (49978, True, "a912027ca20d61fba8a766fdfb5165dffd5a144d888067e4638ea1de5b155bfe"),
    "sqrt2": (50000, False, "e44402847a45db02f40246e8baec4cac69897c541ef2f5f32b6939173728b79c"),
    "golden": (50000, False, "5661b0072c154da1d208fd8a51354f0a7d3afda27fdd01fe97d65c6a3aa074d3"),
}


@pytest.mark.parametrize("constant", sorted(PINS_50K))
def test_50k_term_expansion_pinned(constant):
    pq = fh.expand_constant(constant, 50000, digits=fh.digits_for_terms(50000))
    digest = hashlib.sha256(" ".join(map(str, pq.terms)).encode("ascii")).hexdigest()
    assert (len(pq.terms), pq.exhausted, digest) == PINS_50K[constant]


def _top_level_starts(monkeypatch):
    """The number of quotients already in ``out`` at each outermost ``_expand_interval`` call."""
    starts, depth, inner = [], [0], contfrac._expand_interval

    def spy(*args):
        if not depth[0]:
            starts.append(len(args[5]))
        depth[0] += 1
        try:
            return inner(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(contfrac, "_expand_interval", spy)
    return starts


def _retry_from_scratch(constant, max_terms):
    """(first try, the retry expanded from nothing at the digits ``expand_constant`` picks for it)."""
    digits = fh.digits_for_terms(max_terms)
    first = contfrac._expand_at(constant, max_terms, digits)
    assert len(first.terms) < max_terms  # the size retries
    retry_digits = math.ceil(digits * max_terms / len(first.terms)) + contfrac.DIGITS_MARGIN
    return first, contfrac._expand_at(constant, max_terms, retry_digits)


def _outcome(pq):
    return pq.terms, pq.exhausted, pq.source_precision


class TestResumedRetry:
    """The auto-sized retry resumes after the first try's quotients and returns what a fresh retry returns."""

    @pytest.mark.parametrize("constant, max_terms", [("sqrt5", n) for n in (500, 777, 1000, 1500, 2000)]
                             + [("cbrt2", 32000)])
    def test_same_as_a_fresh_retry(self, constant, max_terms, monkeypatch):
        first, fresh = _retry_from_scratch(constant, max_terms)
        starts = _top_level_starts(monkeypatch)
        assert _outcome(fh.expand_constant(constant, max_terms)) == _outcome(fresh)
        assert starts == [0, len(first.terms)]  # the retry began after the first try's quotients

    @pytest.mark.parametrize("spoil", ["last-term", "other-constant"])
    def test_prefix_that_does_not_fit_is_expanded_afresh(self, spoil, monkeypatch):
        first, fresh = _retry_from_scratch("sqrt5", 1000)
        if spoil == "last-term":
            spoiled = first.terms[:-1] + (first.terms[-1] + 1,)
        else:
            spoiled = fh.expand_constant("sqrt3", len(first.terms)).terms
        expand_at = contfrac._expand_at

        def spoiled_first_try(constant_id, max_terms, digits, prefix=()):
            pq = expand_at(constant_id, max_terms, digits, prefix)
            return pq if prefix else dataclasses.replace(pq, terms=spoiled)

        monkeypatch.setattr(contfrac, "_expand_at", spoiled_first_try)
        starts = _top_level_starts(monkeypatch)
        assert _outcome(fh.expand_constant("sqrt5", 1000)) == _outcome(fresh)
        assert starts == [0, 0]

    @given(radicand=st.integers(2, 10**6).filter(lambda r: math.isqrt(r) ** 2 != r),
           digits=st.integers(60, 400), more=st.integers(0, 200), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_prefix_of_a_coarser_expansion(self, radicand, digits, more, data):
        coarse = fh.make_context(digits)
        prefix = fh.expand(coarse._mp.sqrt(radicand), 10**6, coarse).terms
        prefix = prefix[:data.draw(st.integers(1, len(prefix)))]
        if data.draw(st.booleans()):  # a prefix whose interval the finer one does not lie in
            prefix = prefix[:-1] + (prefix[-1] + data.draw(st.sampled_from((-1, 1, 5))),)
        ctx = fh.make_context(digits + more)
        x = ctx._mp.sqrt(radicand)
        resumed = contfrac.expand(x, len(prefix) + 50, ctx, _prefix=prefix)
        assert resumed == fh.expand(x, len(prefix) + 50, ctx)
        assert (list(resumed.terms), resumed.exhausted) == reference_expand(x, len(prefix) + 50, ctx)


def test_cbrt2_32k_terms_pinned():
    """sha256 of cbrt2's 32,000 auto-sized terms, recorded when the retry still started from nothing."""
    pq = fh.expand_constant("cbrt2", 32000)
    digest = hashlib.sha256(" ".join(map(str, pq.terms)).encode("ascii")).hexdigest()
    assert (len(pq.terms), pq.exhausted, pq.source_precision, digest) == (
        32000, False, 33206, "5cd1b2f146517779afd5e39d9bc5c30bf19cd65296674cc38bfaf087bf20a62d")
