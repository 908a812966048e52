"""Output oracle: checks each request's exit code and stdout against references
that share no code with flinthills.

References come from mpmath's own pi and elementary functions at twice the
request's digits or more, from exact integer arithmetic written here (the
Euclidean continued-fraction expansion of an enclosing interval, the
convergent recurrence, an integer cube root) and from the OEIS b-files
bundled with the package.  Real-valued cells are compared after rendering the
reference with ``mpmath.nstr`` at the CLI's 6 significant digits.

Cells whose value is an artefact of flinthills' own rounding (the Neumaier
``compensation_residual`` and the shift identities' ``shift_residual``) are
not checked; every other cell of every row is.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

import mpmath
from mpmath.libmp import pi_fixed

SIG = 6
DEFAULT_DIGITS = 50
UNCHECKED = {"compensation_residual", "shift_residual"}


class Failed(Exception):
    """The request did not end the way it should (wrong exit code, traceback)."""


class Mismatch(Failed):
    """The request exited 0 but its output disagrees with the reference."""


# ---------------------------------------------------------------------------
# output parsing (plain, csv, json)
# ---------------------------------------------------------------------------


def parse_table(text: str, fmt: str) -> list[dict]:
    """Rows of cell strings; an empty plain/csv cell and a JSON null both read as ''."""
    if not text:
        return []
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        keys = rows[0]
        return [dict(zip(keys, r, strict=True)) for r in rows[1:]]
    if fmt == "json":
        out = []
        for line in text.splitlines():
            obj = json.loads(line, parse_int=str, parse_float=str)
            out.append({k: "" if v is None else ("true" if v is True else "false" if v is False else v)
                        for k, v in obj.items()})
        return out
    lines = text.splitlines()
    starts = [m.start() for m in re.finditer(r"\S+", lines[0])]
    keys = lines[0].split()
    bounds = list(zip(starts, starts[1:] + [None]))
    return [{k: line[a:b].strip() for k, (a, b) in zip(keys, bounds)} for line in lines[1:]]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return mpmath.nstr(value, SIG)


def compare_rows(got: list[dict], expected: list[dict]) -> None:
    if len(got) != len(expected):
        raise Mismatch(f"{len(got)} rows, expected {len(expected)}")
    for i, (g, e) in enumerate(zip(got, expected)):
        if list(g) != list(e):
            raise Mismatch(f"row {i}: columns {list(g)}, expected {list(e)}")
        for k, v in e.items():
            if k in UNCHECKED:
                continue
            if isinstance(v, _FixturePath):
                if not g[k].endswith(f"fixtures/{v}"):
                    raise Mismatch(f"row {i} {k}: {g[k]!r} is not the bundled {v}")
                continue
            want = _cell(v)
            if g[k] != want:
                raise Mismatch(f"row {i} {k}: {g[k][:60]!r} != {want[:60]!r}")


# ---------------------------------------------------------------------------
# continued fractions from enclosing intervals
# ---------------------------------------------------------------------------


def cf_common_prefix(n1: int, d1: int, n2: int, d2: int, limit: int) -> list[int]:
    """Partial quotients shared by n1/d1 and n2/d2; every real in between has them."""
    out: list[int] = []
    while len(out) < limit and d1 and d2:
        q1, r1 = divmod(n1, d1)
        q2, r2 = divmod(n2, d2)
        if q1 != q2:
            break
        out.append(q1)
        n1, d1, n2, d2 = d1, r1, d2, r2
    return out


def _icbrt(x: int) -> int:
    r = 1 << ((x.bit_length() + 2) // 3)
    while True:
        y = (2 * r + x // (r * r)) // 3
        if y >= r:
            break
        r = y
    while r**3 > x:
        r -= 1
    while (r + 1) ** 3 <= x:
        r += 1
    return r


def _scaled_interval(constant: str, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= constant * 2**bits <= hi."""
    one = 1 << bits
    if constant == "pi":
        v = pi_fixed(bits)  # mpmath's own pi, within a few units of the last bit
        return v - 8, v + 8
    if constant in ("sqrt2", "sqrt3", "sqrt5"):
        r = math.isqrt(int(constant[-1]) * one * one)
        return r, r + 1
    if constant == "golden":
        r = math.isqrt(5 * one * one)
        return (one + r) // 2, (one + r + 1) // 2 + 1
    if constant == "cbrt2":
        r = _icbrt(2 * one**3)
        return r, r + 1
    raise ValueError(constant)


def _quotients(constant: str, n: int) -> tuple[int, ...]:
    bits = int((n * 1.1 + 64) * 3.33) + 64
    while True:
        lo, hi = _scaled_interval(constant, bits)
        terms = cf_common_prefix(lo, 1 << bits, hi, 1 << bits, n)
        if len(terms) >= n:
            return tuple(terms)
        bits = bits * 5 // 4


def _convergents(quotients) -> list[tuple[int, int]]:
    out = []
    p0, p1, q0, q1 = 0, 1, 1, 0
    for a in quotients:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        out.append((p1, q1))
    return out


class QuotientSource:
    """Reference partial quotients per constant, expanded once to the largest
    count reserved for the run."""

    def __init__(self):
        self._have: dict[str, tuple[int, ...]] = {}
        self._reserved: dict[str, int] = {}

    def reserve(self, constant: str, n: int) -> None:
        self._reserved[constant] = max(n, self._reserved.get(constant, 0))

    def get(self, constant: str, n: int) -> tuple[int, ...]:
        have = self._have.get(constant, ())
        if len(have) < n:
            have = _quotients(constant, max(n, self._reserved.get(constant, 0)))
            self._have[constant] = have
        return have[:n]

    def convergents(self, constant: str, n: int) -> list[tuple[int, int]]:
        return _convergents(self.get(constant, n))


def bfile(name: str, root: Path) -> dict[int, int]:
    out = {}
    for line in (root / "src" / "flinthills" / "fixtures" / name).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            i, v = line.split()
            out[int(i)] = int(v)
    return out


# ---------------------------------------------------------------------------
# argv handling
# ---------------------------------------------------------------------------


def _opt(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _flag(argv, name) -> bool:
    return name in argv


def _mp(digits: int):
    ctx = mpmath.MPContext()
    ctx.dps = 2 * digits + 40
    return ctx


class Oracle:
    """Expected rows for each subcommand.

    ``check`` raises Failed when a request ends wrongly and Mismatch (a Failed)
    when it exits 0 with output that disagrees with the reference.
    """

    def __init__(self, root: Path):
        self.root = root
        self.q = QuotientSource()
        self._series_cache: dict = {}

    # -- outcome --------------------------------------------------------

    def prepare(self, requests) -> None:
        """Reserve the largest quotient count any request needs, so each
        constant is expanded once per run."""
        for req in requests:
            argv = req["argv"]
            n = _opt(argv, "--terms")
            if n is not None and argv[0] in ("expand", "convergents", "stats"):
                self.q.reserve(_opt(argv, "--constant", "pi"), int(n) + 1)

    def check(self, req: dict, exit_code: int, stdout: str, stderr: str) -> None:
        if req["expect"] == "error":
            return check_clean_error(exit_code, stdout, stderr)
        if exit_code != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            kind = "traceback" if "Traceback" in stderr else f"exit {exit_code}"
            raise Failed(f"{kind}: {last[0][:120]}")
        argv = req["argv"]
        fmt = _opt(argv, "--format", "plain")
        got = parse_table(stdout, fmt)
        compare_rows(got, self.expected(argv))

    def expected(self, argv: list[str]) -> list[dict]:
        cmd = argv[0].replace("-", "_")
        return getattr(self, f"_{cmd}")(argv)

    # -- integer tables ---------------------------------------------------

    def _expand(self, argv):
        terms = self.q.get(_opt(argv, "--constant", "pi"), int(_opt(argv, "--terms")))
        return [{"k": i, "a": a} for i, a in enumerate(terms)]

    def _convergents(self, argv):
        n = int(_opt(argv, "--terms"))
        convs = self.q.convergents(_opt(argv, "--constant", "pi"), n)
        if _opt(argv, "--constant", "pi") == "pi":
            for table, col in (("A002485.txt", 0), ("A002486.txt", 1)):
                for i, v in bfile(table, self.root).items():
                    if 2 <= i < n + 2 and convs[i - 2][col] != v:
                        raise Mismatch(f"reference disagrees with {table} at {i}")
        return [{"n": i + 1, "p": p, "q": q} for i, (p, q) in enumerate(convs)]

    def _stats(self, argv):
        n = int(_opt(argv, "--terms", "10000"))
        terms = self.q.get(_opt(argv, "--constant", "pi"), n + 1)
        mp = _mp(50)
        logs = [mp.log(a) for a in terms]

        def gm(k, start=0):
            return mp.exp(mp.fsum(logs[start:start + k]) / k)

        proper = terms[1:n + 1]
        top = max(proper)
        low = sum(1 for a in proper if a <= 2)

        def gk(k):
            return -mp.log(1 - mp.mpf(1) / (k + 1) ** 2) / mp.log(2)

        rows = [
            ("terms", n),
            ("geometric_mean_10", gm(min(10, n))),
            ("geometric_mean_20", gm(min(20, n))),
            (f"geometric_mean_{n}", gm(n)),
            ("geometric_mean_proper", gm(n, 1)),
            ("max_term_position", proper.index(top) + 2),
            ("max_term_value", top),
            ("freq_1_plus_2", mp.mpf(low) / n),
            ("gk_1_plus_2", gk(1) + gk(2)),
        ]
        return [{"statistic": s, "value": v} for s, v in rows]

    def _verify(self, argv):
        seq_name = _opt(argv, "--sequence")
        n = int(_opt(argv, "--terms", "25"))
        name, offset = {"numerators": ("A002485.txt", 2), "denominators": ("A002486.txt", 2),
                        "lacunary": ("A046947.txt", 1)}[seq_name]
        convs = self.q.convergents("pi", n)
        seq = ([q for _, q in convs] if seq_name == "denominators" else [p for p, _ in convs])
        if seq_name == "lacunary":
            seq = [1] + seq
        fixture = bfile(name, self.root)
        pairs = [(i + offset, v) for i, v in enumerate(seq) if i + offset in fixture]
        bad = [(fi, fixture[fi], v) for fi, v in pairs if fixture[fi] != v]
        return [{"fixture": _FixturePath(name), "compared": len(pairs), "mismatches": len(bad),
                 "passed": bool(pairs) and not bad}] + [
            {"fixture": f"index {fi}", "compared": e, "mismatches": g, "passed": False} for fi, e, g in bad
        ]

    # -- real-valued tables -----------------------------------------------

    def _digits(self, argv):
        return int(_opt(argv, "--digits", DEFAULT_DIGITS))

    def _pi_rows(self, n):
        return [(i + 1, p, q) for i, (p, q) in enumerate(self.q.convergents("pi", n))]

    def _measure(self, argv):
        n = int(_opt(argv, "--terms", "25"))
        mp = _mp(max(self._digits(argv), 100))
        pi = +mp.pi
        rows = []
        for i, p, q in self._pi_rows(n):
            err = abs(pi * q - p) / q
            rows.append({"n": i, "p": p, "q": q, "error": err,
                         "mu_hat": -mp.ln(err) / mp.ln(q) if q >= 2 else None})
        return rows

    def _audit(self, argv):
        n_max = int(_opt(argv, "--n-max", "25"))
        start = int(_opt(argv, "--start", "1"))
        convs = self.q.convergents("pi", n_max + 2)
        mp = _mp(2 * len(str(convs[-1][1])) + 60)
        pi = +mp.pi
        rows = []
        for n in range(start, n_max + 1):
            (p, q), (p1, q1) = convs[n - 1], convs[n]
            err = abs(pi * q - p) / q
            lower, upper = 1 / (2 * mp.mpf(q1) * q), 1 / mp.mpf(q) ** 2
            s_val = abs(mp.mpf(p1) - pi * q1 - mp.mpf(1) / q)
            s_lo, s_hi = 1 / (2 * mp.mpf(q)), 2 / mp.mpf(q)
            rows.append({
                "n": n, "p": p, "q": q, "error": err,
                "dirichlet_lower": lower, "dirichlet_upper": upper,
                "dirichlet_ok": bool(lower <= err <= upper),
                "hurwitz_ok": bool(err < 1 / (mp.sqrt(5) * mp.mpf(q) ** 2)),
                "shifted_value": s_val, "shifted_lower": s_lo, "shifted_upper": s_hi,
                "shifted_ok": bool(s_lo <= s_val <= s_hi),
            })
        return rows

    def _sin(self, m: int, digits: int):
        """sin(m) for an integer m, with enough working digits for the reduction."""
        mp = _mp(digits + len(str(abs(m))) * 2)
        return mp.sin(m)

    def _recip_sin(self, argv):
        d = self._digits(argv)
        rows = []
        for i, p, _ in self._pi_rows(int(_opt(argv, "--n-max", "25"))):
            mp = _mp(d + 2 * len(str(p)))
            s, s_inv = self._sin(p, d), mp.sin(mp.mpf(1) / p)
            rows.append({"n": i, "p": p, "recip_sin": 1 / s, "recip_inv_sin": 1 / s_inv, "ratio": s / s_inv})
        return rows

    def _gamma_reflect(self, argv):
        d = self._digits(argv)
        rows = []
        for i, p, _ in self._pi_rows(int(_opt(argv, "--n-max", "25"))):
            mp = _mp(d + 2 * len(str(p)))
            s = self._sin(p, d)
            rows.append({"n": i, "p": p, "reflection": +mp.pi / s, "scaled_ratio": mp.pi**2 / (p * s)})
        return rows

    def _shift(self, argv):
        d = self._digits(argv)
        integer = _opt(argv, "--technique", "real") == "integer"
        rows = []
        for i, p, _ in self._pi_rows(int(_opt(argv, "--n-max", "25"))):
            v = (p & -p).bit_length() - 1
            a = 2 + 2 * v
            if integer:
                mp = _mp(d + 4 * len(str(p)))
                fx = int(mp.floor(mp.mpf((1 << a) + 1) / (1 << a) * mp.pi * p))
                arg = (2 * fx + 1) * p
                rows.append({"n": i, "p": p, "floor_x": fx, "argument": arg, "abs_sin": abs(self._sin(arg, d))})
            else:
                w = ((1 << a) + 1) * (p >> v) ** 2
                recip = 1 / self._sin(p, d)
                rows.append({"n": i, "p": p, "v2": v, "w_odd": w % 2 == 1, "shift_residual": None,
                             "recip_sin": recip, "ratio": abs(recip) / p})
        return rows

    def _kernel(self, argv):
        d = self._digits(argv)
        kind = _opt(argv, "--type")
        mp = _mp(d)
        if kind == "cf":
            return self._kernel_cf(int(_opt(argv, "--d")), int(_opt(argv, "--m-max", "10")), d)
        x = int(_opt(argv, "--x"))
        z = mp.mpf(_opt(argv, "--z"))
        if kind == "dirichlet":
            closed = mp.sin((2 * x + 1) * z) / mp.sin(z)
            total = 1 + 2 * mp.fsum(mp.cos(2 * n * z) for n in range(1, x + 1))
            bound = mp.mpf(2 * x + 1)
        else:
            closed = mp.sin((x + 1) * z) ** 2 / mp.sin(z) ** 2
            # sum_{k=0..x} D_k with D_k = 1 + 2 sum_{n<=k} cos(2nz)
            total = (x + 1) + 2 * mp.fsum((x + 1 - n) * mp.cos(2 * n * z) for n in range(1, x + 1))
            bound = mp.mpf((x + 1) ** 2)
        return [{"kernel": kind, "x": x, "z": z, "closed_form": closed, "sum_form": total, "abs_bound": bound}]

    def _kernel_cf(self, d, m_max, digits):
        mp = _mp(max(digits, m_max * 3 + 60))
        one = 1 << (int(mp.prec) + 64)
        # d^(1/4) * one lies in [r4, r4 + 1), so sqrt(alpha) = 1/(2 d^(1/4)) is
        # enclosed by one/(2 (r4 + 1)) and one/(2 r4)
        r4 = math.isqrt(math.isqrt(d * one**4))
        quotients = cf_common_prefix(one, 2 * (r4 + 1), one, 2 * r4, m_max + 2)
        convs = _convergents(quotients)
        sqrt_alpha = 1 / (2 * mp.root(d, 4))
        alpha = sqrt_alpha**2
        inv_two_pi = 1 / (2 * mp.pi)
        rows = []
        for m in range(1, m_max + 1):
            u, v = convs[m]
            value = alpha * v * v - u * u + v * inv_two_pi
            distance = abs(value - mp.nint(value))
            rows.append({"m": m, "u": u, "v": v, "value": value, "distance": distance,
                         "within_bound": bool(distance < inv_two_pi),
                         "abs_sin": abs(mp.sin(2 * mp.pi * value))})
        return rows

    # -- series -----------------------------------------------------------

    def _series(self, argv):
        family = argv[1].replace("-", "_")
        d = self._digits(argv)
        u, v = float(_opt(argv, "--u", "3.0")), float(_opt(argv, "--v", "2.0"))
        limit = int(_opt(argv, "--limit"))
        mp = _mp(d)
        if family == "lacunary":
            convs = self.q.convergents("pi", 40)
            while convs[-1][0] <= limit:
                convs = self.q.convergents("pi", len(convs) + 40)
            indices = [1] + [p for p, _ in convs if p <= limit]
            terms = [(p, 1 / (mp.mpf(p) ** u * self._sin(p, d) ** v)) for p in indices]
            sums = _prefix_sums(mp, terms, {limit})
            return [_sum_row(family, u, v, limit, *sums[limit])]
        points = _opt(argv, "--points")
        want = {limit}
        if points is not None:
            marks = sorted({int(t) for t in points.split(",") if t.strip()})
            want = set(marks)
        elif _flag(argv, "--report"):
            want = {limit, max(1, limit // 2)}
        alpha = _opt(argv, "--alpha", "sqrt2")
        sums = self._series_sums(family, alpha, u, v, d, want)
        if points is not None:
            return [{"x": x, "partial_sum": sums[x][0]} for x in marks]
        if _flag(argv, "--report"):
            full, half = sums[limit][0], sums[max(1, limit // 2)][0]
            exponent = mp.mpf(u) - mp.mpf(v)
            phi = (1 + mp.sqrt(5)) / 2
            r = phi ** (-exponent)
            tail = mp.mpf(5) ** (exponent / 2) * r / (1 - r) if exponent > 0 else mp.inf
            return [{"family": family, "u": u, "v": v, "measure": None, "exponent": exponent,
                     "predicted_convergent": bool(exponent > 0), "lacunary_tail_bound": tail,
                     "partial_sum": full, "half_sum": half,
                     "relative_change": abs(full - half) / abs(full)}]
        return [_sum_row(family, u, v, limit, *sums[limit])]

    def _series_sums(self, family, alpha, u, v, digits, want):
        """Prefix sums at the points in ``want``; one pass per (family, alpha, u, v, digits)."""
        key = (family, alpha if family == "alpha_pi" else None, u, v, digits)
        have = self._series_cache.get(key)
        if have is None or max(want) > have[0]:
            top = max(want) * 11 // 10 + 1  # jittered sizes of later rounds usually fit
            have = (top, self._series_terms(family, alpha, u, v, digits, top))
            self._series_cache[key] = have
        return _prefix_sums(_mp(digits), have[1], want)

    def _series_terms(self, family, alpha, u, v, digits, top):
        mp = _mp(digits)
        if family == "flint":
            return [(n, 1 / (mp.mpf(n) ** u * mp.sin(n) ** v)) for n in range(1, top + 1)]
        if family == "alpha_pi":
            a = {"sqrt2": mp.sqrt(2), "sqrt3": mp.sqrt(3), "sqrt5": mp.sqrt(5),
                 "golden": (1 + mp.sqrt(5)) / 2, "cbrt2": mp.cbrt(2), "pi": +mp.pi}[alpha]
            return [(n, 1 / (mp.mpf(n) ** u * mp.sinpi(a * n) ** v)) for n in range(1, top + 1)]
        # flat families: ||pi^n|| or ||pi 10^n||, from pi at enough digits that
        # the fractional part keeps 2x the request's digits
        wide = _mp(digits + top + 20)
        pi = +wide.pi
        out = []
        acc = wide.mpf(1)
        for n in range(1, top + 1):
            if family == "flat_power":
                acc = acc * pi
                val = acc
            else:
                val = pi * wide.mpf(10) ** n
            frac = val - wide.floor(val)
            dist = min(frac, 1 - frac)
            out.append((n, 1 / (mp.mpf(n) ** u * mp.sin(mp.mpf(dist)) ** v)))
        return out


class _FixturePath(str):
    """The verify table's fixture cell: an absolute path ending in the b-file name."""


def _prefix_sums(mp, terms, want):
    out = {}
    total = mp.mpf(0)
    largest = None
    for n, t in terms:
        total += t
        if largest is None or abs(t) > abs(largest[1]):
            largest = (n, t)
        if n in want:
            out[n] = (total, largest)
    for w in want:
        out.setdefault(w, (total, largest))
    return out


def _sum_row(family, u, v, limit, value, largest):
    return {"family": family, "u": u, "v": v, "limit": limit, "value": value,
            "largest_term_index": largest[0], "largest_term": largest[1],
            "compensation_residual": None}


def check_clean_error(exit_code: int, stdout: str, stderr: str) -> None:
    """Hostile input must end in exit 1 or 2 with a single ``error:`` line."""
    if "Traceback" in stderr:
        raise Failed("traceback: " + stderr.strip().splitlines()[-1][:120])
    if exit_code not in (1, 2):
        raise Failed(f"exit {exit_code}, expected a usage or domain error")
    lines = [ln for ln in stderr.splitlines() if ln.strip() and not ln.startswith("usage:")
             and not ln.startswith(" ")]
    if len(lines) != 1 or "error:" not in lines[0]:
        raise Failed(f"stderr is not one error line: {stderr.strip()[:120]!r}")
    if stdout:
        raise Failed("output on stdout alongside an error")
