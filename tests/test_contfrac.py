from decimal import Decimal
from fractions import Fraction

import decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flinthills as fh
from flinthills import contfrac
from flinthills.contfrac import decimal_convergents

from conftest import unlimited_int_str

PI_FIRST_30 = [3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1, 2, 2, 2, 2,
               1, 84, 2, 1, 1, 15, 3, 13, 1, 4]


class TestExpand:
    def test_pi_first_30_terms(self):
        pq = fh.expand_constant("pi", 30)
        assert list(pq.terms) == PI_FIRST_30
        assert not pq.exhausted

    def test_golden_ratio_all_ones(self):
        pq = fh.expand_constant("golden", 40)
        assert pq.terms[0] == 1
        assert all(a == 1 for a in pq.terms[1:])

    def test_sqrt2_periodic(self):
        pq = fh.expand_constant("sqrt2", 40)
        assert pq.terms[0] == 1
        assert all(a == 2 for a in pq.terms[1:])

    def test_exhaustion_yields_certified_prefix(self):
        ctx = fh.make_context(30)
        pq = fh.expand(fh.pi_const(ctx), 500, ctx, constant_id="pi")
        assert pq.exhausted
        assert 0 < len(pq.terms) < 500
        assert list(pq.terms) == PI_FIRST_30[: len(pq.terms)] or len(pq.terms) > 30

    def test_survey_depth_and_outlier(self, pi_survey):
        pq, _ = pi_survey
        assert list(pq.terms[:30]) == PI_FIRST_30
        assert len(pq.terms) >= 10000
        window = pq.terms[: 10000 + 1]
        assert max(window) == 20776
        assert window.index(20776) == 431  # position 432 counting the lead term as 1
        assert max(window) <= 21000

    def test_bad_inputs(self, ctx50):
        with pytest.raises(fh.DomainError):
            fh.expand(fh.pi_const(ctx50), 0, ctx50)
        with pytest.raises(fh.DomainError):
            fh.expand(ctx50.mpf(0), 5, ctx50)


class TestConvergents:
    def test_pi_first_five(self):
        convs = fh.constant_convergents("pi", 5)
        assert [(c.p, c.q) for c in convs] == [
            (3, 1), (22, 7), (333, 106), (355, 113), (103993, 33102)
        ]

    def test_fibonacci_ratios(self):
        pq = fh.PartialQuotients("unit", (1, 1, 1, 1, 1), 30)
        convs = fh.convergents(pq, 5)
        assert [(c.p, c.q) for c in convs] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]

    def test_single_seed(self):
        pq = fh.PartialQuotients("three", (3,), 30)
        assert [(c.p, c.q) for c in fh.convergents(pq, 1)] == [(3, 1)]

    def test_count_exceeds_terms(self):
        pq = fh.PartialQuotients("three", (3, 7), 30)
        with pytest.raises(fh.InsufficientTermsError, match="2 terms"):
            fh.convergents(pq, 5)
        with pytest.raises(fh.InsufficientTermsError, match="2 terms"):
            decimal_convergents(pq, 5)  # raised at the call, before any pair is taken

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_must_be_positive(self, count):
        pq = fh.PartialQuotients("three", (3, 7), 30)
        with pytest.raises(fh.DomainError, match="count must be positive"):
            fh.convergents(pq, count)
        with pytest.raises(fh.DomainError, match="count must be positive"):
            decimal_convergents(pq, count)

    def test_determinant_identity(self):
        convs = fh.constant_convergents("pi", 60)
        for k in range(1, 60):
            a, b = convs[k], convs[k - 1]
            assert a.p * b.q - b.p * a.q == (-1) ** (k - 1)

    def test_denominators_strictly_increase(self):
        convs = fh.constant_convergents("pi", 40)
        for k in range(2, 40):
            assert convs[k].q > convs[k - 1].q

    def test_error_signs_alternate(self, ctx60):
        pi = fh.pi_const(ctx60)
        signs = [1 if pi * c.q - c.p > 0 else -1 for c in fh.constant_convergents("pi", 20)]
        assert all(signs[i] != signs[i + 1] for i in range(len(signs) - 1))

    def test_reconstruction_close(self, ctx60):
        pq = fh.expand_constant("pi", 20)
        convs = fh.convergents(pq, 20)
        folded = fh.reconstruct(pq)
        pi = fh.pi_const(ctx60)
        q_last = convs[-1].q
        assert abs(pi - ctx60.mpf(folded.numerator) / folded.denominator) < ctx60.mpf(1) / q_last**2

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_last_convergent_equals_folded_fraction(self, quotients):
        pq = fh.PartialQuotients("random", tuple(quotients), 30)
        convs = fh.convergents(pq, len(quotients))
        assert Fraction(convs[-1].p, convs[-1].q) == fh.reconstruct(pq)

    @given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=2, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_determinant_identity_random(self, quotients):
        convs = fh.convergents(fh.PartialQuotients("r", tuple(quotients), 30), len(quotients))
        for k in range(1, len(convs)):
            assert convs[k].p * convs[k - 1].q - convs[k - 1].p * convs[k].q == (-1) ** (k - 1)


    @pytest.mark.parametrize("bad", [15.0, Fraction(15), Decimal(15), True])
    def test_non_int_quotient_raises(self, bad):
        pq = fh.PartialQuotients("x", (3, 7, bad, 1), 30)
        with pytest.raises(fh.CrossCheckError, match="partial quotient 2"):
            fh.convergents(pq, 4)
        with pytest.raises(fh.CrossCheckError, match="partial quotient 2"):
            decimal_convergents(pq, 4)
        assert [(c.p, c.q) for c in fh.convergents(pq, 2)] == [(3, 1), (22, 7)]


def _as_strings(pairs):
    return [(str(p), str(q)) for p, q in pairs]


class TestDecimalConvergents:
    """The exact-Decimal recurrence prints the same digits as the int one."""

    @given(st.lists(st.integers(min_value=1, max_value=10**1500 - 1), min_size=1, max_size=8),
           st.integers(min_value=-5, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_int_recurrence(self, quotients, a0):
        pq = fh.PartialQuotients("random", (a0, *quotients), 30)
        ints = fh.convergents(pq, len(pq.terms))
        decimals = list(decimal_convergents(pq, len(pq.terms)))
        assert all(type(p) is Decimal and type(q) is Decimal for p, q in decimals)
        assert decimals == list(contfrac.convergent_pairs(pq, len(pq.terms)))  # Decimal == int is exact
        with unlimited_int_str():
            assert _as_strings(decimals) == [(str(c.p), str(c.q)) for c in ints]

    def test_full_pass_leaves_the_caller_context_alone(self):
        pq = fh.PartialQuotients("random", (3, *range(10**30, 10**30 + 200)), 30)
        with decimal.localcontext() as context:
            context.prec = 5
            context.clear_flags()
            traps = dict(context.traps)
            last = list(decimal_convergents(pq, len(pq.terms)))[-1]
            assert context.prec == 5
            assert not any(context.flags.values())
            assert context.traps == traps
        final = fh.convergents(pq, len(pq.terms))[-1]
        assert last == (final.p, final.q)

    def test_pairs_are_folded_only_as_they_are_taken(self, monkeypatch):
        steps = []

        class _CountingContext(decimal.Context):
            def fma(self, a, b, c):
                steps.append(a)
                return super().fma(a, b, c)

        exact = contfrac._EXACT_DECIMAL
        monkeypatch.setattr(contfrac, "_EXACT_DECIMAL", _CountingContext(
            prec=exact.prec, Emax=exact.Emax, traps=[s for s, on in exact.traps.items() if on]))
        pairs = decimal_convergents(fh.PartialQuotients("pi", tuple(PI_FIRST_30), 30), 30)
        assert steps == []
        assert next(pairs) == (Decimal(3), Decimal(1))
        assert steps == [3, 3]  # one fma for p_0, one for q_0, none for the 29 pairs not taken
        assert next(pairs) == (Decimal(22), Decimal(7))
        assert steps == [3, 3, 7, 7]

    def test_caller_context_is_untouched_between_pairs(self):
        default = decimal.Context()
        pq = fh.PartialQuotients("pi", tuple(PI_FIRST_30), 30)
        pairs = decimal_convergents(pq, 30)
        next(pairs)
        next(pairs)
        context = decimal.getcontext()
        assert context.prec == default.prec == 28
        assert context.traps == default.traps
        assert Decimal(1) / 3 == Decimal("0.3333333333333333333333333333")  # rounds, no Inexact trap
        last = fh.convergents(pq, 30)[-1]
        assert list(pairs)[-1] == (Decimal(last.p), Decimal(last.q))

    def test_pi_first_9200_rows(self):
        pq = fh.expand_constant("pi", 9200)
        ints = fh.convergents(pq, 9200)
        decimals = list(decimal_convergents(pq, 9200))
        assert len(str(decimals[-1][0])) > 4300  # past Python's int -> str limit
        with unlimited_int_str():
            assert _as_strings(decimals) == [(str(c.p), str(c.q)) for c in ints]


class TestFixtureVerification:
    def test_numerators_match_bundled(self):
        convs = fh.constant_convergents("pi", 40)
        from flinthills.cli import _resolve_fixture

        fixture = _resolve_fixture(None, "A002485.txt")
        report = fh.verify_fixture([c.p for c in convs], fixture, index_offset=2)
        assert report.passed and report.compared == 40

    def test_denominators_match_bundled(self):
        convs = fh.constant_convergents("pi", 40)
        from flinthills.cli import _resolve_fixture

        fixture = _resolve_fixture(None, "A002486.txt")
        report = fh.verify_fixture([c.q for c in convs], fixture, index_offset=2)
        assert report.passed and report.compared == 40

    def test_corrupted_fixture_reports_index(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n2 3\n3 23\n")
        report = fh.verify_fixture([1, 3, 22], bad, index_offset=1)
        assert not report.passed
        assert report.mismatches == ((3, 23, 22),)

    def test_values_past_4300_digits_parse(self, tmp_path):
        value = "7" * 5000
        fixture = tmp_path / "long.txt"
        fixture.write_text(f"1 3\n2 {value}\n")
        assert fh.contfrac.parse_bfile(fixture) == {1: 3, 2: Decimal(value)}
        assert fh.verify_fixture([3, Decimal(value)], fixture, index_offset=1).passed

    @pytest.mark.parametrize("field", ["1.5", "1e3", "NaN", "Infinity", "0x10", "three"])
    def test_non_integer_value_rejected(self, field, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"1 1\n2 {field}\n")
        with pytest.raises(fh.FixtureFormatError, match=":2: non-integer field"):
            fh.contfrac.parse_bfile(bad)

    def test_malformed_fixture_line_number(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\nnot a line\n")
        with pytest.raises(fh.FixtureFormatError, match=":2"):
            fh.verify_fixture([1], bad)

    def test_unreadable_fixture(self, tmp_path):
        with pytest.raises(fh.FixtureFormatError, match="not a readable ASCII b-file"):
            fh.verify_fixture([1], tmp_path)
