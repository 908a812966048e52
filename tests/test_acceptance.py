"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one PASS/FAIL line (run with -s or check the captured
output).  The published reference tables live under tests/data; cells listed
in the vendored annotation file defer to the recurrence/OEIS oracle.
"""

import io
import math
import random
import time
from fractions import Fraction

import flinthills as fh
from flinthills.cli import _resolve_fixture, run
from flinthills.mpreal import pi_scaled

from conftest import rel_err


def report(number: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:2d} {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({label}) failed"


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def test_criterion_1_convergents_match_table(measure_reference, annotated):
    t0 = time.perf_counter()
    code, out = run_cli(["convergents", "--terms", "25", "--format", "csv"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    ok = True
    fixture_q = fh.contfrac.parse_bfile(_resolve_fixture(None, "A002486.txt"))
    fixture_p = fh.contfrac.parse_bfile(_resolve_fixture(None, "A002485.txt"))
    for (n_str, p_str, q_str), ref in zip(rows, measure_reference):
        n = int(n_str)
        ok &= int(p_str) == int(ref["p"])
        if ("measure", n, "q") in annotated:
            # misprinted cell: must match the OEIS fixture instead
            ok &= int(q_str) == fixture_q[n + 1]
            ok &= int(p_str) == fixture_p[n + 1]
        else:
            ok &= int(q_str) == int(ref["q"])
    ok &= elapsed < 1.0
    report(1, "convergents vs published table + OEIS fixtures", ok, elapsed)


def test_criterion_2_empirical_measure(measure_reference, annotated):
    t0 = time.perf_counter()
    ctx = fh.make_context(60)
    rows = fh.measure_table("pi", 25, ctx)
    elapsed = time.perf_counter() - t0

    matches = 0
    defined = 0
    off_rows = []
    for row, ref in zip(rows, measure_reference):
        if not ref["mu"]:
            continue
        defined += 1
        if abs(float(row.mu_hat) - float(ref["mu"])) < 1e-4:
            matches += 1
        else:
            off_rows.append(row.index)
    ok = defined == 24 and matches >= 22
    ok &= all(("measure", n, "mu_hat") in annotated for n in off_rows)

    # independent double-precision oracle: exact rational error from the
    # bundled 400-digit value, logs taken in doubles
    pi_frac = Fraction(pi_scaled(400), 10**400)
    for row in rows[1:]:
        err = abs(pi_frac - Fraction(row.p, row.q))
        oracle = -(math.log(err.numerator) - math.log(err.denominator)) / math.log(row.q)
        ok &= rel_err(row.mu_hat, oracle) < 1e-8
    ok &= elapsed < 5.0
    report(2, "empirical measure vs table and double oracle", ok, elapsed)


def test_criterion_3_reciprocal_sine_table(recip_sin_reference, annotated):
    t0 = time.perf_counter()
    ctx = fh.make_context(60)
    rows = fh.recip_sin_table(25, ctx)
    elapsed = time.perf_counter() - t0
    ok = len(rows) == 25
    for row, ref in zip(rows, recip_sin_reference):
        n = int(ref["n"])
        if ("recip_sin", n, "recip_sin") not in annotated:
            ok &= rel_err(row.recip_sin, float(ref["recip_sin"])) < 5e-6
        if ("recip_sin", n, "ratio") not in annotated:
            ok &= rel_err(row.ratio, float(ref["ratio"])) < 5e-5
    ok &= elapsed < 10.0
    report(3, "1/sin p_n table to 6 figures, ratios to 5", ok, elapsed)


def test_criterion_4_flint_hills_partial_sums():
    targets = {1: 1.41228293, 3: 3.42323343, 22: 4.754112, 355: 29.405625, 500: 29.405964}
    t0 = time.perf_counter()
    ctx = fh.make_context(50)
    spec = fh.SeriesSpec(family="flint", u=3, v=2, limit=max(targets))
    pairs = fh.partial_sum(spec, ctx, targets).checkpoints
    elapsed = time.perf_counter() - t0
    ok = all(abs(float(value) - targets[x]) < 1e-6 for x, value in pairs)
    ok &= elapsed < 10.0
    report(4, "Flint Hills partial sums at plot coordinates", ok, elapsed)


def test_criterion_5_gamma_reflection(gamma_reference, annotated):
    ctx = fh.make_context(60)
    rows = fh.gamma_reflection_table(25, ctx)  # cross-check on rows 1-3 included
    ok = len(rows) == 25
    pi = fh.pi_const(ctx)
    for row, ref in zip(rows, gamma_reference):
        n = int(ref["n"])
        want = float(ref["reflection"])
        if ("gamma", n, "reflection") in annotated:
            ok &= rel_err(abs(row.reflection), abs(want)) < 5e-6
        else:
            ok &= rel_err(row.reflection, want) < 5e-6
        ok &= rel_err(row.scaled_ratio, float(ref["scaled_ratio"])) < 5e-6
        identity_gap = abs(row.scaled_ratio - row.reflection * pi / row.p)
        ok &= identity_gap <= abs(row.scaled_ratio) * ctx.mpf(10) ** (-(60 - 2))
    report(5, "gamma reflection table and internal identity", ok)


def test_criterion_6_statistics(pi_survey):
    pq, expand_seconds = pi_survey
    t0 = time.perf_counter()
    ok = pq.source_precision >= 20000
    ok &= len(pq.terms) >= 10000
    stats = fh.quotient_histogram(pq, 10000)
    ok &= stats.max_term == (432, 20776)
    ok &= abs(float(fh.running_geometric_mean(pq, 10)) - 3.361) < 5e-3
    ok &= abs(float(fh.running_geometric_mean(pq, 20)) - 2.628) < 5e-3
    elapsed = expand_seconds + (time.perf_counter() - t0)
    ok &= elapsed < 60.0
    report(6, "10000-term survey: outlier 20776 at 432, means 3.361/2.628", ok, elapsed)


def test_criterion_7_kernel_properties():
    t0 = time.perf_counter()
    ctx30 = fh.make_context(30)
    rng = random.Random(713)
    ok = True
    checked = 0
    while checked < 200:
        x = rng.randint(0, 50)
        z = ctx30.mpf(rng.uniform(0.1, 3.0))
        k = fh.dirichlet_kernel(x, z, ctx30)
        ok &= abs(k.closed_form - k.sum_form) <= abs(k.closed_form) * ctx30.mpf(10) ** (-12)
        checked += 1

    for c in fh.constant_convergents("pi", 200):
        v = fh.v2(c.p)
        w = ((1 << (2 + 2 * v)) + 1) * (c.p >> v) ** 2
        ok &= w % 2 == 1

    ctx50 = fh.make_context(50)
    for c in fh.constant_convergents("pi", 25):
        term = fh.shift_term(c.p, ctx50, index=c.index + 1)
        ok &= float(term.sin_residual) < 1e-20
    elapsed = time.perf_counter() - t0
    report(7, "200 kernel identities, w_n odd to 200, shift residuals < 1e-20", ok, elapsed)


def test_criterion_8_inequality_audit():
    t0 = time.perf_counter()
    dirichlet = fh.inequality_audit("pi", 1000)
    ok = dirichlet.all_dirichlet_ok
    shifted = fh.inequality_audit("pi", 100)
    ok &= shifted.all_shifted_ok
    elapsed = time.perf_counter() - t0
    report(8, "Dirichlet bounds n<=1000, shifted bounds n<=100", ok, elapsed)


def test_criterion_9_gauss_kuzmin(pi_survey):
    pq, _ = pi_survey
    got = float(fh.gauss_kuzmin_p(10**6))
    ok = abs(got - 1.44e-12) / 1.44e-12 < 0.01
    stats = fh.quotient_histogram(pq, 10000)
    ok &= abs(float(stats.freq_low) - 0.585) < 0.03
    report(9, "Gauss-Kuzmin p(10^6) and low-quotient frequency", ok)


def test_criterion_10_deterministic_output():
    commands = [
        ["measure", "--terms", "25", "--digits", "60", "--format", "csv"],
        ["series", "flint", "--u", "3", "--v", "2", "--limit", "355", "--format", "csv"],
        ["convergents", "--terms", "25", "--format", "csv"],
    ]
    ok = True
    for argv in commands:
        first = run_cli(argv)
        second = run_cli(argv)
        ok &= first == second and first[0] == 0
    report(10, "byte-identical CSV across consecutive runs", ok)
