import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flinthills as fh
from flinthills.stats import HISTOGRAM_OVERFLOW


class TestGaussKuzmin:
    def test_k1(self):
        assert abs(float(fh.gauss_kuzmin_p(1)) - math.log2(4 / 3)) < 1e-15

    def test_large_k_published_value(self):
        got = float(fh.gauss_kuzmin_p(10**6))
        assert abs(got - 1.44e-12) / 1.44e-12 < 0.01

    def test_rejects_zero(self):
        with pytest.raises(fh.DomainError):
            fh.gauss_kuzmin_p(0)

    def test_strictly_decreasing(self):
        vals = [float(fh.gauss_kuzmin_p(k)) for k in range(1, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_inverse_square_asymptotics(self):
        for k in (10**3, 10**6):
            ratio = float(fh.gauss_kuzmin_p(k)) * k**2 / math.log2(math.e)
            assert abs(ratio - 1) < 0.01

    def test_total_probability(self):
        # telescoped partial sum; the tail past 10^7 is log2(1 + 1/(K+1)) ~ 1.44e-7
        total = float(fh.gauss_kuzmin_partial_sum(10**7))
        assert 1 - 2e-7 < total < 1
        assert abs((1 - total) - 1.4427e-7) < 1e-10


class TestGeometricMean:
    def test_published_exercise_values(self, pi_survey):
        pq, _ = pi_survey
        gm10 = float(fh.running_geometric_mean(pq, 10))
        gm20 = float(fh.running_geometric_mean(pq, 20))
        assert abs(gm10 - 3.361) < 5e-3
        assert abs(gm20 - 2.628) < 5e-3

    def test_proper_quotient_convention(self, pi_survey):
        pq, _ = pi_survey
        # over a_1..a_n the single-term mean is a_1 = 7
        assert abs(fh.running_geometric_mean(pq, 1, include_leading=False) - 7) < 1e-25
        assert abs(fh.running_geometric_mean(pq, 1) - 3) < 1e-25

    def test_khinchin_band_at_10000(self, pi_survey):
        pq, _ = pi_survey
        gm = float(fh.running_geometric_mean(pq, 10000))
        assert 2.3 < gm < 3.0

    def test_insufficient_terms(self):
        pq = fh.PartialQuotients("x", (3, 7, 15), 30)
        with pytest.raises(fh.InsufficientTermsError):
            fh.running_geometric_mean(pq, 10)


class TestHistogram:
    def test_golden_ratio_all_ones(self):
        pq = fh.expand_constant("golden", 200)
        stats = fh.quotient_histogram(pq, 150)
        assert stats.histogram == {1: 150}
        assert stats.max_term[1] == 1

    def test_pi_survey_statistics(self, pi_survey):
        pq, _ = pi_survey
        stats = fh.quotient_histogram(pq, 10000)
        assert sum(stats.histogram.values()) == 10000
        assert stats.max_term == (432, 20776)
        low = float(stats.freq_low)
        assert abs(low - 0.5897) < 0.03
        assert abs(low - 0.585) < 0.03
        expected_low = float(fh.gauss_kuzmin_p(1) + fh.gauss_kuzmin_p(2))
        assert abs(low - expected_low) < 0.03

    def test_overflow_bucket(self, pi_survey):
        pq, _ = pi_survey
        stats = fh.quotient_histogram(pq, 10000)
        assert stats.histogram.get(-1, 0) >= 1  # 20776 exceeds the display cap
        assert stats.max_term[1] == 20776

    def test_geometric_mean_matches_running(self, pi_survey):
        pq, _ = pi_survey
        stats = fh.quotient_histogram(pq, 500)
        direct = fh.running_geometric_mean(pq, 500, include_leading=False)
        assert abs(stats.geometric_mean - direct) < 1e-20


class TestLogSumReference:
    """Each distinct quotient's log is computed once; the bits match a per-term loop."""

    @staticmethod
    def _reference_geometric_mean(terms):
        mp = fh.make_context(30)._mp
        log_sum = mp.mpf(0)
        for a in terms:
            log_sum += mp.log(a)
        return mp.exp(log_sum / len(terms))

    def test_running_geometric_mean_bits(self, pi_survey):
        pq, _ = pi_survey
        for n, leading in ((1, True), (20, True), (5000, True), (5000, False)):
            terms = pq.terms[:n] if leading else pq.terms[1:n + 1]
            got = fh.running_geometric_mean(pq, n, include_leading=leading)
            assert got._mpf_ == self._reference_geometric_mean(terms)._mpf_

    def test_histogram_geometric_mean_bits(self, pi_survey):
        pq, _ = pi_survey
        stats = fh.quotient_histogram(pq, 10000)
        assert stats.geometric_mean._mpf_ == self._reference_geometric_mean(pq.terms[1:10001])._mpf_


class TestLoopReference:
    """The histogram, extreme term and means match the per-term loops they replace, bit for bit."""

    @staticmethod
    def _reference(terms, n):
        mp = fh.make_context(30)._mp
        histogram = {}
        max_pos, max_val = 1, terms[1]
        for i in range(1, n + 1):
            a = terms[i]
            bucket = a if a <= HISTOGRAM_OVERFLOW else -1
            histogram[bucket] = histogram.get(bucket, 0) + 1
            if a > max_val:
                max_val = a
                max_pos = i

        def mean(run):
            logs = {}
            total = mp.mpf(0)
            for a in run:
                if a not in logs:
                    logs[a] = mp.log(a)
                total += logs[a]
            return mp.exp(total / len(run))

        return histogram, (max_pos + 1, max_val), mean(terms[1 : n + 1]), mean(terms[:n])

    # small values tie for the maximum; the rest straddle the overflow bucket
    _QUOTIENTS = st.one_of(st.integers(1, 4), st.integers(HISTOGRAM_OVERFLOW - 1, HISTOGRAM_OVERFLOW + 2),
                           st.integers(1, 10**30))

    @given(st.lists(_QUOTIENTS, min_size=1, max_size=40), st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_loops(self, quotients, a0, data):
        terms = (a0, *quotients)
        n = data.draw(st.integers(1, len(quotients)), label="n")
        pq = fh.PartialQuotients("random", terms, 30)
        histogram, max_term, proper_mean, leading_mean = self._reference(terms, n)
        stats = fh.quotient_histogram(pq, n)
        assert list(stats.histogram.items()) == list(histogram.items())
        assert stats.max_term == max_term
        assert stats.geometric_mean._mpf_ == proper_mean._mpf_
        assert fh.running_geometric_mean(pq, n, include_leading=False)._mpf_ == proper_mean._mpf_
        assert fh.running_geometric_mean(pq, n)._mpf_ == leading_mean._mpf_
