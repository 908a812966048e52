import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

import flinthills
from flinthills import mpreal
from flinthills.cli import run

from conftest import unlimited_int_str


def run_cli(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def cold_env():
    """The environment of a fresh process that imports this checkout's package."""
    src = str(Path(flinthills.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def cold_cli(argv, **popen_args):
    return subprocess.Popen([sys.executable, "-m", "flinthills.cli", *argv], env=cold_env(), **popen_args)


class TestExitCodes:
    def test_usage_error_unknown_command(self):
        code, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_usage_error_bad_flag(self):
        code, _ = run_cli(["measure", "--no-such-flag"])
        assert code == 2

    def test_domain_error(self):
        # cf technique requires d > 16 pi^4 ~ 1558.5
        code, _ = run_cli(["kernel", "--type", "cf", "--d", "1558"])
        assert code == 1

    def test_precision_below_minimum(self, capsys):
        code, _ = run_cli(["expand", "--terms", "5", "--digits", "10"])
        assert code == 1
        assert "precision too low" in capsys.readouterr().err

    def test_success(self):
        code, out = run_cli(["convergents", "--terms", "3", "--format", "csv"])
        assert code == 0
        assert out.splitlines() == ["n,p,q", "1,3,1", "2,22,7", "3,333,106"]


class TestHostileInputs:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["series", "flint", "--u", "inf", "--v", "2", "--limit", "3"], "finite"),
            (["series", "flint", "--v", "inf", "--limit", "3"], "finite"),
            (["series", "alpha-pi", "--u", "inf", "--limit", "3"], "finite"),
            (["series", "flat-power", "--u", "inf", "--limit", "3"], "finite"),
            (["series", "flint", "--u", "0", "--limit", "3"], "series exponents u, v must be positive"),
            (["kernel", "--type", "dirichlet", "--x", "abc", "--z", "1"], "--x"),
            (["kernel", "--type", "dirichlet", "--x", "2", "--z", "abc"], "--z"),
            (["kernel", "--type", "fejer", "--x", "2.5x", "--z", "1"], "--x"),
            (["kernel", "--type", "dirichlet", "--x", "2", "--z", "inf"], "--z must be a number, got 'inf'"),
            (["kernel", "--type", "dirichlet", "--x", "1e999999", "--z", "1"], "--x is too long or its exponent"),
            (["kernel", "--type", "dirichlet", "--x", "1" * 5000, "--z", "1"], "--x is too long"),
            (["series", "lacunary", "--limit", "0"], "x must be >= 1"),
            (["series", "lacunary", "--limit", "-5"], "x must be >= 1"),
            (["kernel", "--type", "fejer", "--x", "1.5", "--z", "1"], "Fejer kernel requires an integer order x >= 0"),
            (["series", "flint", "--limit", "5", "--points", "abc"],
             "--points must be comma-separated integers, got 'abc'"),
            (["series", "flint", "--limit", "5", "--points", "1e3"],
             "--points must be comma-separated integers, got '1e3'"),
            (["kernel", "--type", "dirichlet", "--x", "3", "--z", "1", "--digits", "0", "--full"],
             "precision too low: 0 digits requested, minimum is 30"),
            (["recip-sin", "--n-max", "3", "--digits", "0"], "precision too low"),
            (["series", "flint", "--limit", "3", "--digits", "0"], "precision too low"),
            (["audit", "--n-max", "3", "--digits", "0"], "precision too low"),
            (["measure", "--terms", "5", "--digits", "10"], "precision too low"),
            (["series", "alpha-pi", "--limit", "50", "--report", "--measure", "nan"], "measure must not be NaN"),
        ],
    )
    def test_one_error_line(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "content",
        ["2 3\n3 22\n".encode("utf-16"), "2 3 # π\n".encode(), bytes(range(256))],
        ids=["utf-16", "utf-8", "binary"],
    )
    def test_non_ascii_fixture(self, content, tmp_path, capsys):
        fixture = tmp_path / "A002485.txt"
        fixture.write_bytes(content)
        code, out = run_cli(["verify", "--sequence", "numerators", "--fixture", str(fixture)])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith(f"error: {fixture}: ")


def _kernel_tokens():
    number = st.one_of(
        st.integers(0, 10**4).map(str),
        st.integers(10**6 + 1, 10**4000).map(str),
        st.builds(lambda m, e: f"{m}e{e}", st.integers(-(10**6), 10**6), st.integers(-5000, 5000)),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["inf", "-inf", "nan", "1/0", "3/7", "+-5", "1e", "0", "-3", "", " 2 "]),
        st.text(max_size=8),
    )
    return number


class TestKernelFuzz:
    """Hostile kernel tokens end in an answer or one error line, never a traceback."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["dirichlet", "fejer"]),
        x=_kernel_tokens(),
        z=_kernel_tokens(),
        digits=st.one_of(st.none(), st.integers(-5, 80).map(str), st.sampled_from(["abc", "1e3", ""])),
    )
    def test_exit_codes(self, kind, x, z, digits):
        argv = ["kernel", "--type", kind, f"--x={x}", f"--z={z}"]
        if digits is not None:
            argv.append(f"--digits={digits}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _ = run_cli(argv)
        text = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in text
        if code == 2:  # argparse: usage, then one error line
            assert text.splitlines()[-1].startswith("flinthills kernel: error:")
        else:
            assert text.count("\n") == (code == 1)


_INT_TOKENS = [str(i) for i in range(-3, 41)] + ["1e3", "abc", ""]
_INT = st.sampled_from(_INT_TOKENS)
_REAL = st.one_of(st.sampled_from(["inf", "nan", "0", "-1", "1e18", "1e400"]), _INT)
_SWITCH = st.none()  # a flag that takes no value
_CONSTANT = st.sampled_from(["pi", "sqrt2", "golden", "cbrt2"])
_COMMON = {"--digits": _INT, "--format": st.sampled_from(["plain", "csv", "json"]), "--full": _SWITCH}


def _series_flags(family):
    flags = {"--u": _REAL, "--v": _REAL, "--points": st.lists(_INT, max_size=3).map(",".join),
             "--report": _SWITCH, **_COMMON}
    if family == "alpha-pi":
        flags |= {"--alpha": _CONSTANT, "--measure": _REAL}
    if family.startswith("flat"):
        flags |= {"--arg": st.sampled_from(["nearest", "frac"]), "--flat-base": _INT}
    return ["series", family], {"--limit": _INT}, flags


# subcommand -> (leading argv, flags always given, flags sometimes given)
_FUZZ = {
    "expand": (["expand"], {"--terms": _INT}, {"--constant": _CONSTANT, "--cache-write": _SWITCH, **_COMMON}),
    "convergents": (["convergents"], {"--terms": _INT},
                    {"--constant": _CONSTANT, "--cache-read": _SWITCH, **_COMMON}),
    "measure": (["measure"], {}, {"--constant": _CONSTANT, "--terms": _INT, **_COMMON}),
    "audit": (["audit"], {}, {"--constant": _CONSTANT, "--n-max": _INT, "--start": _INT, **_COMMON}),
    "shift": (["shift"], {}, {"--n-max": _INT, "--technique": st.sampled_from(["real", "integer"]), **_COMMON}),
    "recip-sin": (["recip-sin"], {}, {"--n-max": _INT, **_COMMON}),
    "gamma-reflect": (["gamma-reflect"], {}, {"--n-max": _INT, **_COMMON}),
    **{f"series-{f}": _series_flags(f) for f in ("flint", "lacunary", "alpha-pi", "flat-power", "flat-scaled")},
    "stats": (["stats"], {}, {"--constant": _CONSTANT, "--terms": _INT, "--histogram": _SWITCH, **_COMMON}),
    "verify": (["verify"], {"--sequence": st.sampled_from(["numerators", "denominators", "lacunary"])},
               {"--terms": _INT, "--fixture": st.sampled_from(["/nonexistent/A002485.txt", ""]), **_COMMON}),
}


class TestCommandFuzz:
    """Small hostile flag values on every other subcommand: an answer or one error line."""

    @pytest.mark.parametrize("command", list(_FUZZ))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_exit_codes(self, command, data, tmp_path_factory):
        lead, required, optional = _FUZZ[command]
        flags = data.draw(st.fixed_dictionaries(required, optional=optional))
        argv = lead + [k if v is None else f"{k}={v}" for k, v in flags.items()]
        err = io.StringIO()
        cache = {"FLINTHILLS_CACHE_DIR": str(tmp_path_factory.getbasetemp() / "fuzz-cache")}
        with mock.patch.dict(os.environ, cache), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli(argv)
        text = err.getvalue()
        assert code in (0, 1, 2) and not caught
        assert "Traceback" not in text
        if code == 2:  # argparse: usage, then one error line
            assert text.splitlines()[-1].startswith(f"flinthills {lead[0]}: error:")
        elif code == 1:
            assert text.count("\n") == 1 and text.startswith("error: ")


class TestFormats:
    def test_csv_json_numeric_identity(self):
        _, csv_text = run_cli(["measure", "--terms", "6", "--format", "csv"])
        _, json_text = run_cli(["measure", "--terms", "6", "--format", "json"])
        csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
        json_rows = [json.loads(line) for line in json_text.splitlines()]
        assert len(csv_rows) == len(json_rows) == 6
        for c, j in zip(csv_rows, json_rows):
            for key, cval in c.items():
                jval = j[key]
                if cval == "":
                    assert jval is None
                else:
                    assert cval == (str(jval) if not isinstance(jval, str) else jval) or \
                        float(cval) == float(jval)

    def test_plain_has_header(self):
        _, out = run_cli(["convergents", "--terms", "2"])
        assert out.splitlines()[0].split() == ["n", "p", "q"]

    def test_full_precision_flag(self):
        _, brief = run_cli(["measure", "--terms", "2", "--format", "csv"])
        _, full = run_cli(["measure", "--terms", "2", "--format", "csv", "--full"])
        assert len(full) > len(brief)

    def test_measure_blank_first_row(self):
        _, out = run_cli(["measure", "--terms", "2", "--format", "csv"])
        assert out.splitlines()[1].endswith(",")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--terms", "12", "--digits", "60", "--format", "csv"],
            ["series", "flint", "--u", "3", "--v", "2", "--limit", "60", "--format", "csv"],
            ["recip-sin", "--n-max", "8", "--format", "csv"],
        ],
    )
    def test_byte_identical_runs(self, argv):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second


class TestSeriesCommand:
    def test_flint_value_at_355(self):
        code, out = run_cli(["series", "flint", "--u", "3", "--v", "2",
                             "--limit", "355", "--format", "json"])
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert abs(row["value"] - 29.405625) < 1e-4  # 6 significant digits printed
        assert row["largest_term_index"] == 355

    def test_points_match_plot(self, flint_plot_reference):
        points = ",".join(r["x"] for r in flint_plot_reference)
        code, out = run_cli(["series", "flint", "--u", "3", "--v", "2", "--limit", "500",
                             "--points", points, "--format", "json", "--full"])
        assert code == 0
        got = {json.loads(l)["x"]: json.loads(l)["partial_sum"] for l in out.splitlines()}
        for ref in flint_plot_reference:
            assert abs(got[int(ref["x"])] - float(ref["P"])) < 1e-6

    def test_lacunary_and_alpha_pi(self):
        code, out = run_cli(["series", "lacunary", "--u", "3", "--v", "2",
                             "--limit", "3", "--format", "json", "--full"])
        assert code == 0
        assert abs(json.loads(out)["value"] - 3.2720521259710487) < 1e-12
        code, out = run_cli(["series", "alpha-pi", "--alpha", "sqrt2", "--u", "3",
                             "--v", "2", "--limit", "1", "--format", "json", "--full"])
        assert code == 0
        assert abs(json.loads(out)["value"] - 1.0763010329070786) < 1e-12

    def test_flat_family(self):
        code, out = run_cli(["series", "flat-scaled", "--u", "2", "--v", "1",
                             "--limit", "1", "--format", "json", "--full"])
        assert code == 0
        assert abs(json.loads(out)["value"] - 2.475016898983283) < 1e-11

    def test_points_for_a_sparse_family(self):
        code, out = run_cli(["series", "lacunary", "--limit", "1000",
                             "--points", "10,400,1000", "--format", "csv"])
        assert code == 0
        assert [row["x"] for row in csv.DictReader(io.StringIO(out))] == ["10", "400", "1000"]

    def test_huge_integral_exponent_is_bounded(self):
        # n**u is built exactly only while it is small; a cold process capped
        # at 2 GB of address space must answer within 5 s
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "flinthills.cli", "series", "flint", "--u", "1e18", "--limit", "2",
             "--format", "json"],
            capture_output=True, text=True, timeout=5, env=cold_env(), preexec_fn=cap,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        row = json.loads(proc.stdout)
        assert row["largest_term_index"] == 1 and abs(row["value"] - 1.41228) < 1e-5

    def test_convergence_report(self):
        code, out = run_cli(["series", "flint", "--u", "3", "--v", "2",
                             "--limit", "50", "--report", "--format", "json"])
        assert code == 0
        row = json.loads(out)
        assert row["predicted_convergent"] is True
        assert row["exponent"] == 1.0


class TestKernelAndShiftCommands:
    def test_dirichlet_row(self):
        code, out = run_cli(["kernel", "--type", "dirichlet", "--x", "2", "--z", "1",
                             "--format", "json", "--full"])
        assert code == 0
        row = json.loads(out)
        assert abs(row["closed_form"] - (-1.1395809148215086)) < 1e-12
        assert abs(row["closed_form"] - row["sum_form"]) < 1e-12

    @pytest.mark.parametrize(
        "x, z, digits, closed, summed",
        [
            # mpmath at 600 digits; the argument (2x+1)z is reduced exactly
            ("1e60", "0.3", "30", "0.960760180103725681858736349914", ""),
            ("1e400", "0.3", "30", "3.26346679945761066950321006594", ""),
            ("2", "1e500", "30", "3.21498", "3.21498"),
        ],
    )
    def test_dirichlet_large_arguments(self, x, z, digits, closed, summed):
        full = ["--full"] if len(closed) > 7 else []
        code, out = run_cli(["kernel", "--type", "dirichlet", "--x", x, "--z", z, "--digits", digits,
                             "--format", "csv", *full])
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["closed_form"], row["sum_form"]) == (closed, summed)

    def test_value_past_the_int_str_limit(self):
        # z at 4400 digits carries a mantissa that mpmath's nstr prints through an int past 4300 digits
        code, out = run_cli(["kernel", "--type", "dirichlet", "--x", "3", "--z", "1e-1100", "--digits", "4400",
                             "--format", "csv"])
        assert (code, out.splitlines()[1]) == (0, "dirichlet,3,1.0e-1100,7.0,7.0,7.0")

    def test_huge_integer_order_is_bounded(self):
        # above the sum-form cap only the closed form runs
        x = 10**21
        start = time.perf_counter()
        code, out = run_cli(["kernel", "--type", "dirichlet", "--x", str(x), "--z", "1",
                             "--format", "csv", "--full"])
        assert time.perf_counter() - start < 5
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        mp = MPContext()
        mp.dps = 150
        want = mp.sin(2 * x + 1) / mp.sin(1)
        assert row["sum_form"] == "" and mp.mpf(row["abs_bound"]) == 2 * x + 1
        assert abs(mp.mpf(row["closed_form"]) - want) <= mp.mpf(10) ** -48 * abs(want)

    def test_cf_audit(self):
        code, out = run_cli(["kernel", "--type", "cf", "--d", "1559", "--m-max", "3",
                             "--format", "json"])
        assert code == 0
        rows = [json.loads(l) for l in out.splitlines()]
        assert [r["within_bound"] for r in rows] == [False, True, True]

    def test_shift_report_columns(self):
        code, out = run_cli(["shift", "--n-max", "3", "--format", "csv"])
        assert code == 0
        header = out.splitlines()[0]
        assert header == "n,p,v2,w_odd,shift_residual,recip_sin,ratio"
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["w_odd"] == "true" for r in rows)

    def test_shift_integer_technique(self):
        code, out = run_cli(["shift", "--n-max", "2", "--technique", "integer",
                             "--format", "json"])
        assert code == 0
        rows = [json.loads(l) for l in out.splitlines()]
        assert rows[0]["floor_x"] == 11 and rows[0]["argument"] == 69


class TestAuditCommand:
    def test_full_digits_follow_digits(self):
        code, out = run_cli(["audit", "--n-max", "3", "--digits", "200", "--full", "--format", "csv"])
        assert code == 0
        row = list(csv.DictReader(io.StringIO(out)))[1]
        mp = MPContext()
        mp.dps = 400
        assert row["error"] == mp.nstr(abs(mp.pi - mp.mpf(22) / 7), 200)


class TestStatsCommand:
    def test_summary_rows(self):
        code, out = run_cli(["stats", "--terms", "50", "--format", "json"])
        assert code == 0
        rows = {json.loads(l)["statistic"]: json.loads(l)["value"] for l in out.splitlines()}
        assert rows["terms"] == 50
        assert abs(rows["geometric_mean_10"] - 3.36103) < 1e-4

    def test_histogram_rows(self):
        code, out = run_cli(["stats", "--terms", "100", "--histogram", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        total = sum(int(r["count"]) for r in rows)
        assert total == 100


class TestVerifyCommand:
    @pytest.mark.parametrize("sequence", ["numerators", "denominators", "lacunary"])
    def test_bundled_fixtures_pass(self, sequence):
        code, out = run_cli(["verify", "--sequence", sequence, "--terms", "25",
                             "--format", "json"])
        assert code == 0
        assert json.loads(out.splitlines()[0])["passed"] is True

    def test_corrupted_fixture_fails_with_index(self, tmp_path):
        bad = tmp_path / "A002485.txt"
        bad.write_text("2 3\n3 22\n4 334\n")
        code, out = run_cli(["verify", "--sequence", "numerators", "--terms", "5",
                             "--fixture", str(bad), "--format", "json"])
        assert code == 1
        rows = [json.loads(l) for l in out.splitlines()]
        assert rows[0]["passed"] is False
        assert rows[1]["fixture"] == "index 4"

    def test_mismatch_past_4300_digits_is_a_row(self, tmp_path):
        # p_8999 has about 8,700 digits: the mismatch row prints it, no int -> str limit
        bad = tmp_path / "A002485.txt"
        bad.write_text("2 3\n3 22\n9001 5\n")
        code, out = run_cli(["verify", "--sequence", "numerators", "--terms", "9000",
                             "--fixture", str(bad), "--format", "csv"])
        assert code == 1
        lines = out.splitlines()
        assert lines[1].endswith(",3,1,false")
        pq = flinthills.expand_constant("pi", 9000)
        p_last = str(list(flinthills.contfrac.decimal_convergents(pq, 9000))[-1][0])
        assert len(p_last) > 4300
        assert lines[2:] == [f"index 9001,5,{p_last},false"]

    # an explicit path is never swapped for the bundled file of the same name
    @pytest.mark.parametrize("path", ["/nonexistent/path.txt", "/nonexistent/A002485.txt", ""])
    def test_missing_fixture_is_domain_error(self, path, capsys):
        code, out = run_cli(["verify", "--sequence", "numerators", "--fixture", path])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: fixture not found: {path}\n"


class TestExpandAndCache:
    def test_auto_digits_retry_past_lochs_budget(self):
        # cbrt2 certifies only 31898 terms at digits_for_terms(32000)
        code, out = run_cli(["expand", "--constant", "cbrt2", "--terms", "32000",
                             "--format", "csv"])
        assert code == 0
        assert len(out.splitlines()) == 32001

    def test_explicit_digits_are_not_retried(self, capsys):
        code, _ = run_cli(["expand", "--constant", "cbrt2", "--terms", "32000",
                           "--digits", "33010"])
        assert code == 1
        assert "certified only 31898 of 32000" in capsys.readouterr().err

    def test_expand_lists_quotients(self):
        code, out = run_cli(["expand", "--terms", "5", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[1:] == ["0,3", "1,7", "2,15", "3,1", "4,292"]

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLINTHILLS_CACHE_DIR", str(tmp_path))
        cold_code, cold = run_cli(["convergents", "--terms", "20", "--format", "csv"])
        code, _ = run_cli(["expand", "--terms", "40", "--cache-write", "--format", "csv"])
        assert code == 0
        assert (tmp_path / "pi.cfcache").exists()
        warm_code, warm = run_cli(["convergents", "--terms", "20", "--cache-read",
                                   "--format", "csv"])
        assert (cold_code, cold) == (warm_code, warm)

    def test_stale_cache_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLINTHILLS_CACHE_DIR", str(tmp_path))
        run_cli(["expand", "--terms", "10", "--cache-write"])
        code, out = run_cli(["convergents", "--terms", "30", "--cache-read",
                             "--format", "csv"])
        assert code == 0
        assert len(out.splitlines()) == 31  # recomputed past the cached depth

    def test_interrupted_write_keeps_previous_entry(self, tmp_path, monkeypatch):
        import pathlib

        from flinthills import cache
        from flinthills.contfrac import expand_constant

        monkeypatch.setenv("FLINTHILLS_CACHE_DIR", str(tmp_path))
        run_cli(["expand", "--terms", "10", "--cache-write"])
        before = cache.read_entry("pi")

        def torn_write(self, text, encoding=None):
            with open(self, "w", encoding=encoding) as f:
                f.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(pathlib.Path, "write_text", torn_write)
        with pytest.raises(OSError, match="disk full"):
            cache.write_entry(expand_constant("pi", 20))
        monkeypatch.undo()  # also unsets the cache directory
        monkeypatch.setenv("FLINTHILLS_CACHE_DIR", str(tmp_path))
        assert cache.read_entry("pi") == before
        assert [p.name for p in tmp_path.iterdir()] == ["pi.cfcache"]

    @pytest.mark.parametrize("old, new, reason", [
        (" 292", " 293", "checksum mismatch"),
        ("terms: 10", "terms: ten", "malformed header or payload"),
        (" 292", " 29x", "malformed header or payload"),
        ("constant: pi", "constant: sqrt2", "constant mismatch"),
        ("terms: 10", "terms: 11", "term count 10 != declared 11"),
    ], ids=["checksum", "header", "payload", "constant", "term-count"])
    def test_checksum_failure_detected(self, old, new, reason, tmp_path, monkeypatch, capsys):
        # a corrupt entry is a miss: one warning line, then the uncached answer
        monkeypatch.setenv("FLINTHILLS_CACHE_DIR", str(tmp_path))
        uncached = run_cli(["convergents", "--terms", "5"])
        run_cli(["expand", "--terms", "10", "--cache-write"])
        path = tmp_path / "pi.cfcache"
        path.write_text(path.read_text().replace(old, new))
        capsys.readouterr()
        assert run_cli(["convergents", "--terms", "5", "--cache-read"]) == uncached
        assert capsys.readouterr().err == f"warning: ignoring cache entry {path}: {reason}\n"

    def test_non_ascii_entry_is_a_miss(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FLINTHILLS_CACHE_DIR", str(tmp_path))
        uncached = run_cli(["convergents", "--terms", "5"])
        path = tmp_path / "pi.cfcache"
        path.write_bytes(b"\xff\xfe garbage")
        capsys.readouterr()
        assert run_cli(["convergents", "--terms", "5", "--cache-read"]) == uncached
        assert capsys.readouterr().err == f"warning: ignoring cache entry {path}: not a cache file\n"


    @given(st.lists(st.integers(0, 10**30), max_size=40), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_digest_is_hashlib_sha256(self, terms, forced_fallback):
        import hashlib

        from flinthills import cache

        payload = cache._payload(terms)
        with mock.patch.dict(sys.modules, {"_sha2": None, "_sha256": None} if forced_fallback else {}):
            assert cache._digest(payload) == hashlib.sha256(payload.encode("ascii")).hexdigest()

    def test_cache_round_trip_loads_no_hashlib(self, tmp_path):
        import importlib.util

        if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
            pytest.skip("this interpreter has no built-in SHA-256 module")
        code = (
            "import sys\n"
            "from flinthills.cli import run\n"
            "run(['expand', '--terms', '30', '--cache-write'])\n"
            "run(['convergents', '--terms', '20', '--cache-read'])\n"
            "print('hashlib' in sys.modules, file=sys.stderr)\n"
        )
        env = {**cold_env(), "FLINTHILLS_CACHE_DIR": str(tmp_path)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "False\n")
        assert (tmp_path / "pi.cfcache").exists()


# Runs the CLI on argv[2:] and, at exit, writes its own peak RSS in kB (VmHWM) to argv[1]
# where /proc is there.  ru_maxrss would not do: Linux folds the parent's high-water mark
# into a child's at exec, and the pytest process may be past the bound itself.
_CLI_RECORDING_PEAK = """
import atexit, runpy, sys
path = sys.argv.pop(1)

def record():
    try:
        with open("/proc/self/status") as status:
            peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return
    with open(path, "w") as out:
        out.write(peak)

atexit.register(record)
runpy.run_module("flinthills.cli", run_name="__main__")
"""


class TestStreamedConvergents:
    """Cold processes: the convergents table past Python's 4300-digit int -> str limit."""

    @pytest.fixture(scope="class")
    def last_row(self):
        last = flinthills.constant_convergents("pi", 9200)[-1]
        with unlimited_int_str():
            return str(last.p), str(last.q)

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_9200_rows_in_bounded_memory(self, fmt, last_row, tmp_path):
        peak = tmp_path / "peak_kb"
        proc = subprocess.Popen([sys.executable, "-c", _CLI_RECORDING_PEAK, str(peak),
                                 "convergents", "--terms", "9200", "--format", fmt],
                                env=cold_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        tail = b""
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            tail = (tail + chunk)[-(1 << 16):]
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        assert (proc.returncode, stderr) == (0, b"")
        if peak.exists():
            max_rss_mb = int(peak.read_text()) / (1 << 10)
        else:
            max_rss_mb = usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
        assert max_rss_mb < 100
        p, q = last_row
        assert len(p) > 4300
        expected = {"plain": f"9200  {p}  {q}", "csv": f"9200,{p},{q}",
                    "json": f'{{"n": 9200, "p": {p}, "q": {q}}}'}[fmt]
        assert tail.decode().splitlines()[-1] == expected

    @pytest.mark.parametrize("argv, stderr", [
        (["convergents", "--terms", "3000", "--format", "csv"], b""),
        (["audit", "--n-max", "1000"], b"dirichlet_ok=True shifted_ok=True hurwitz_count=650/1000\n"),
    ], ids=["convergents", "audit"])
    def test_reader_closing_early(self, argv, stderr):
        # like `| head -c 100`: the table is cut short, the command still succeeds
        proc = cold_cli(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert (len(head), err) == (100, stderr)


class TestTableMemory:
    """The expand, convergents and verify tables are never held: traced peaks stay near one row's size.

    Each bound is at least twice the measured peak; the commands that held
    their tables peaked at 10.8-11.9 MB (convergents), 4.7-8.2 MB (expand) and
    9.5 MB (verify).
    """

    @pytest.fixture(scope="class")
    def devnull(self):
        with open(os.devnull, "w") as out:
            assert run(["expand", "--terms", "20000"], out=out) == 0  # pi at the largest scale, cached
            yield out

    @pytest.mark.parametrize("argv, bound_mb", [
        (["convergents", "--terms", "6000", "--format", "plain"], 4),
        (["convergents", "--terms", "6000", "--format", "csv"], 4),
        (["convergents", "--terms", "6000", "--format", "json"], 4),
        (["expand", "--terms", "20000", "--format", "plain"], 2.5),
        (["expand", "--terms", "20000", "--format", "json"], 2.5),
        (["verify", "--sequence", "numerators", "--terms", "6000"], 3),
    ], ids=["convergents-plain", "convergents-csv", "convergents-json", "expand-plain", "expand-json", "verify"])
    def test_traced_peak(self, argv, bound_mb, devnull):
        tracemalloc.start()
        try:
            assert run(argv, out=devnull) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6


_LAYERS = ("mpreal", "contfrac", "diophantine", "kernels", "series", "stats", "cache", "output", "cli")


class TestColdImports:
    def test_plain_kernel_loads_no_hashlib_csv_or_json(self):
        """Those three are imported where they are used, and the layers a kernel does not call never run.

        Every layer is still in sys.modules, registered unrun: the bench
        tracer reads all nine from there.  A layer whose code has not run
        still has the package's lazy module class, which reading its type
        does not change.
        """
        code = (
            "import sys, types\n"
            "from flinthills.cli import run\n"
            "run(['kernel', '--type', 'dirichlet', '--x', '10', '--z', '1', '--format', 'plain'])\n"
            f"layers = {_LAYERS!r}\n"
            "print([m for m in ('hashlib', 'csv', 'json') if m in sys.modules],\n"
            "      all(f'flinthills.{m}' in sys.modules for m in layers),\n"
            "      [m for m in layers if type(sys.modules[f'flinthills.{m}']) is not types.ModuleType],\n"
            "      file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=cold_env(), capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "[] True ['diophantine', 'series', 'stats', 'cache']\n")

    def test_import_package_runs_no_layer(self):
        code = (
            "import sys, types\n"
            "import flinthills\n"
            f"layers = {tuple(m for m in _LAYERS if m != 'cli')!r}\n"
            "print('mpmath' in sys.modules, 'flinthills.cli' in sys.modules,\n"
            "      [m for m in layers if type(sys.modules[f'flinthills.{m}']) is types.ModuleType], file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=cold_env(), capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "False False []\n")

    @pytest.mark.parametrize("command", ["expand", "convergents", "measure", "audit", "kernel", "shift",
                                         "recip-sin", "gamma-reflect", "series", "stats", "verify"])
    def test_every_subcommand_gets_its_arguments(self, command):
        proc = cold_cli([command, "--help"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, "")
        assert out.startswith(f"usage: flinthills {command} ") and "--format {plain,csv,json}" in out

    def test_bundled_fixture_without_importlib_resources(self):
        """The fixtures are read by path: under -S, with site-packages on PYTHONPATH, no resource loader loads."""
        import sysconfig

        code = (
            "import sys\n"
            "from flinthills.cli import run\n"
            "assert run(['verify', '--sequence', 'numerators']) == 0\n"
            "print([m for m in ('importlib.resources', 'tempfile', 'zipfile') if m in sys.modules], file=sys.stderr)\n"
        )
        env = cold_env()
        env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"], sysconfig.get_paths()["purelib"]])
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "[]\n")


# Runs the CLI on each argv of argv[2], a repr'd list, and prints each stdout.  With argv[1] ==
# "python_bitcount" it first binds mpmath's own python_bitcount back into every name that mpreal
# bound to its C-backed count.  Its first line of stderr names the count libmpf normalizes with.
_CLI_OUTPUTS = """
import ast, io, sys
import mpmath
from flinthills import mpreal
from flinthills.cli import run
if sys.argv[1] == "python_bitcount":
    slow = mpmath.libmp.libintmath.python_bitcount
    for name, module in list(sys.modules.items()):
        if name == "mpmath" or name.startswith("mpmath."):
            for attr, value in list(vars(module).items()):
                if value is mpreal._bitcount:
                    setattr(module, attr, slow)
print(mpmath.libmp.libmpf.bitcount.__name__, file=sys.stderr)
for argv in ast.literal_eval(sys.argv[2]):
    out = io.StringIO()
    assert run(argv, out=out) == 0, argv
    print(out.getvalue())
"""


@pytest.mark.skipif(mpmath.libmp.BACKEND != "python" or not mpreal._mpmath_analysed(mpmath.__version__),
                    reason="the bit count is rebound only on mpmath 1.3's Python backend")
def test_rebound_bitcount_prints_the_same_bits():
    argvs = [
        ["series", "flint", "--limit", "3000", "--points", "1,355,3000", "--full"],
        ["series", "alpha-pi", "--alpha", "golden", "--limit", "2000", "--full"],
        ["series", "flat-power", "--u", "2", "--v", "1", "--limit", "300", "--full"],
        ["kernel", "--type", "dirichlet", "--x", "3000", "--z", "1.3", "--digits", "120", "--full"],
        ["gamma-reflect", "--n-max", "20", "--full"],
        ["audit", "--n-max", "300", "--full"],
    ]
    procs = {count: subprocess.Popen([sys.executable, "-c", _CLI_OUTPUTS, count, repr(argvs)], env=cold_env(),
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for count in ("_bitcount", "python_bitcount")}
    stdout = {}
    for count, proc in procs.items():
        stdout[count], err = proc.communicate(timeout=120)
        assert (proc.returncode, err.splitlines()[0]) == (0, count)
    assert stdout["_bitcount"] == stdout["python_bitcount"]
