import math
from fractions import Fraction

import pytest

import flinthills as fh
from flinthills.mpreal import pi_scaled

from conftest import rel_err


def fixture_pi_fraction() -> Fraction:
    """pi as an exact rational from the scaled-integer table, 400 digits."""
    return Fraction(pi_scaled(400), 10**400)


def oracle_measure(p: int, q: int) -> float:
    """Double-precision oracle: logs of the exact rational error |pi - p/q|."""
    err = abs(fixture_pi_fraction() - Fraction(p, q))
    return -(math.log(err.numerator) - math.log(err.denominator)) / math.log(q)


class TestApproximationError:
    def test_examples(self, ctx50):
        pi = fh.pi_const(ctx50)
        assert abs(float(fh.approximation_error(pi, 22, 7, ctx50)) - abs(math.pi - 22 / 7)) < 1e-15
        got = fh.approximation_error(pi, 355, 113, ctx50)
        assert rel_err(got, 2.667641891e-7) < 1e-9
        assert abs(float(fh.approximation_error(pi, 3, 1, ctx50)) - (math.pi - 3)) < 1e-15

    def test_zero_denominator(self, ctx50):
        with pytest.raises(fh.DomainError):
            fh.approximation_error(fh.pi_const(ctx50), 3, 0, ctx50)


class TestEmpiricalMeasure:
    def test_published_values(self, ctx50):
        pi = fh.pi_const(ctx50)
        assert abs(float(fh.empirical_measure(pi, 22, 7, ctx50)) - 3.429288) < 1e-4
        assert abs(float(fh.empirical_measure(pi, 333, 106, ctx50)) - 2.014399) < 1e-4

    def test_undefined_at_unit_denominator(self, ctx50):
        with pytest.raises(fh.UndefinedMeasureError):
            fh.empirical_measure(fh.pi_const(ctx50), 3, 1, ctx50)

    def test_exact_approximation_has_no_measure(self, ctx50):
        with pytest.raises(fh.DomainError, match="equals alpha"):
            fh.empirical_measure(ctx50.mpf(0.75), 3, 4, ctx50)

    def test_precision_invariance(self):
        a = fh.empirical_measure(fh.pi_const(fh.make_context(50)), 355, 113, fh.make_context(50))
        b = fh.empirical_measure(fh.pi_const(fh.make_context(100)), 355, 113, fh.make_context(100))
        assert rel_err(a, b) < 1e-10


class TestMeasureTable:
    def test_row_shapes(self):
        rows = fh.measure_table("pi", 4)
        assert rows[0].mu_hat is None
        assert (rows[3].p, rows[3].q) == (355, 113)
        assert abs(float(rows[3].mu_hat) - 3.201958) < 1e-4

    def test_single_row(self):
        rows = fh.measure_table("pi", 1)
        assert len(rows) == 1 and rows[0].mu_hat is None

    def test_against_published_with_annotations(self, measure_reference, annotated):
        rows = fh.measure_table("pi", 25)
        for row, ref in zip(rows, measure_reference):
            n = int(ref["n"])
            assert row.p == int(ref["p"])
            if ("measure", n, "q") not in annotated:
                assert row.q == int(ref["q"])
            if ref["mu"] and ("measure", n, "mu_hat") not in annotated:
                assert abs(float(row.mu_hat) - float(ref["mu"])) < 1e-4

    def test_row_five_value(self):
        rows = fh.measure_table("pi", 5)
        assert abs(float(rows[4].mu_hat) - 2.043905) < 1e-4

    def test_against_double_oracle(self):
        rows = fh.measure_table("pi", 25)
        for row in rows[1:]:
            assert rel_err(row.mu_hat, oracle_measure(row.p, row.q)) < 1e-8

    def test_trend_toward_two(self):
        rows = fh.measure_table("pi", 25)
        assert max(float(r.mu_hat) for r in rows[17:25]) < 2.25

    def test_value_argument_matches_constant_id(self, ctx60):
        by_id = fh.measure_table("pi", 8)
        by_value = fh.measure_table(fh.pi_const(ctx60), 8, ctx60)
        for a, b in zip(by_id, by_value):
            assert (a.p, a.q) == (b.p, b.q)
            if a.mu_hat is not None:
                assert rel_err(a.mu_hat, float(b.mu_hat)) < 1e-12


class TestInequalityAudit:
    def test_pi_bounds_hold(self):
        report = fh.inequality_audit("pi", 25)
        assert report.all_dirichlet_ok
        assert report.all_shifted_ok
        assert 0 < report.hurwitz_count <= 25

    def test_golden_tightness_factor_three(self):
        report = fh.inequality_audit("golden", 20)
        assert report.all_dirichlet_ok
        for r in report.rows:
            err = float(r.error)
            assert err / float(r.dirichlet_lower) < 3
            assert float(r.dirichlet_upper) / err < 3

    def test_row_range_subset(self):
        report = fh.inequality_audit("pi", (5, 10))
        assert [r.index for r in report.rows] == [5, 6, 7, 8, 9, 10]

    def test_bad_range(self):
        with pytest.raises(fh.DomainError):
            fh.inequality_audit("pi", (3, 2))

    @pytest.mark.parametrize("table", [fh.inequality_audit, fh.measure_table])
    def test_named_constant_computes_pi_once(self, table, monkeypatch):
        # the work value is computed first, so the expansion's smaller pi is
        # derived from it rather than computed again
        import flinthills.mpreal as mpreal

        calls = []
        machin = mpreal._pi_machin_scaled
        monkeypatch.setattr(mpreal, "_pi_machin_scaled", lambda *a: calls.append(a) or machin(*a))
        monkeypatch.setattr(mpreal, "_pi_cache", {})
        table("pi", 300)
        assert len(calls) == 1

    @pytest.mark.parametrize("table", [fh.inequality_audit, fh.measure_table])
    def test_value_with_too_few_convergents(self, table):
        # 30 digits certify 69 quotients of pi, short of 100 rows
        ctx = fh.make_context(30)
        with pytest.raises(fh.DomainError, match=r"^only 69 convergents available for n_max=10[01]$"):
            table(fh.pi_const(ctx), 100, ctx)


class TestBestApproximation:
    def test_exhaustive_scan_to_1e4(self):
        # nearest-integer distance |pi*q - round(pi*q)| is minimized over
        # q <= q_n exactly at the convergent denominators
        scale = 10**40
        pi_int = pi_scaled(40)
        convs = [c for c in fh.constant_convergents("pi", 10) if c.q <= 10**4]
        dists = {}
        for q in range(1, 10**4 + 1):
            r = (pi_int * q) % scale
            dists[q] = min(r, scale - r)
        for c in convs:
            best = min(dists[q] for q in range(1, c.q + 1))
            assert best == dists[c.q]


class TestAnnotations:
    def test_known_cells_present(self, annotated):
        assert ("measure", 20, "q") in annotated
        assert ("measure", 14, "mu_hat") in annotated
        assert ("gamma", 25, "reflection") in annotated

    def test_loader_notes(self):
        notes = {(a.table, a.row, a.column): a.note for a in fh.load_table_annotations()}
        assert "473816765" in notes[("measure", 20, "q")]
