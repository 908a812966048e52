"""Seeded request lists for the three benchmark workloads.

A workload is a stream of rounds; each round is a list of requests that one
client sends in order, each as a cold ``flinthills`` process.  A request is a
dict with the CLI argv, a class label (used to group failures in the report)
and the outcome the oracle expects: ``"ok"`` (exit 0 with correct output) or
``"error"`` (a clean usage/domain error for hostile input).

The heavy workloads (expand-deep, series-sums) place their sizes on a fixed
grid across each range and let the seed jitter every size by +-2 % and pick
the alpha, the digits and the lacunary limit.  Run time is
quadratic in most sizes, so drawing them uniformly from the whole range would
make the work of a 30-second run depend on the seed far more than on the code
under test.  tables-mix sends more than 100 short requests per run, so its
parameters are drawn uniformly from their full ranges.
"""

from __future__ import annotations

import random

FORMATS = ("plain", "csv", "json")
JITTER = 0.02


def _rng(seed: int, round_index: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _jitter(rng: random.Random, center: int) -> int:
    return max(1, round(center * (1 + JITTER * (2 * rng.random() - 1))))


def _request(cls: str, argv: list[str], expect: str = "ok") -> dict:
    return {"cls": cls, "argv": argv, "expect": expect}


def _with_formats(requests: list[dict], offset: int) -> list[dict]:
    """Cycle --format through plain, csv and json across the list."""
    for i, req in enumerate(requests):
        req["argv"] = req["argv"] + ["--format", FORMATS[(i + offset) % 3]]
    return requests


def _slots(requests: list[dict]) -> list[dict]:
    """Number the template positions, so a request can be matched with its
    counterparts in other rounds."""
    for i, req in enumerate(requests):
        req["slot"] = i
    return requests


def expand_deep(seed: int, round_index: int) -> list[dict]:
    """Certified expansion, convergents, the on-disk cache and huge-integer output.

    The round shares one cache directory.  The first convergents request runs
    before any expansion was cached (a miss); the later ones read the entry the
    pi expansions wrote (hits).  The last convergents request lies past the
    ~8,350-row line where pi's p_n exceeds Python's 4300-digit int->str limit,
    and cbrt2 at ~32,000 terms lies past the ~30,000 terms that the CLI's
    auto-sized precision certifies for it.  The other expansion, stats, cbrt2
    and the middle convergents request cost about the same, so the median
    latency falls inside that cluster.
    """
    rng = _rng(seed, round_index, "expand-deep")
    other = ("sqrt2", "golden")[round_index % 2]  # they differ in cost; a run has both
    reqs = [
        _request("convergents", ["convergents", "--terms", str(_jitter(rng, 3000)), "--cache-read"]),
        _request("expand-pi", ["expand", "--constant", "pi", "--terms", str(_jitter(rng, 12000)), "--cache-write"]),
        _request(f"expand-{other}", ["expand", "--constant", other, "--terms", str(_jitter(rng, 28000))]),
        _request("expand-cbrt2-past-budget", ["expand", "--constant", "cbrt2", "--terms", str(_jitter(rng, 32000))]),
        _request("convergents", ["convergents", "--terms", str(_jitter(rng, 6000)), "--cache-read"]),
        _request("expand-pi", ["expand", "--constant", "pi", "--terms", str(_jitter(rng, 34000)), "--cache-write"]),
        _request("convergents-past-4300-digits",
                 ["convergents", "--terms", str(_jitter(rng, 9200)), "--cache-read"]),
        _request("stats", ["stats", "--terms", str(_jitter(rng, 23000))]),
    ]
    return _with_formats(_slots(reqs), round_index)


def series_sums(seed: int, round_index: int) -> list[dict]:
    """Flint Hills family sums: exact reduction mod pi and the summation drivers.

    flint at ~8k, alpha-pi at ~9k and flat-power at ~560 cost about the same,
    so the median latency falls in a cluster of three request classes.
    """
    rng = _rng(seed, round_index, "series-sums")
    limit = _jitter(rng, 20000)
    points = sorted({_jitter(rng, c) for c in (10, 355, 2000, 9000)} | {limit})
    report_digits = rng.randint(100, 200)
    reqs = [
        _request("flint", ["series", "flint", "--limit", str(_jitter(rng, 8000))]),
        _request("flint-points", ["series", "flint", "--limit", str(limit),
                                  "--points", ",".join(map(str, points))]),
        _request("flint-report", ["series", "flint", "--limit", str(_jitter(rng, 5000)),
                                  "--report", "--digits", str(report_digits)]),
        _request("alpha-pi", ["series", "alpha-pi", "--alpha", rng.choice(("sqrt2", "golden", "sqrt3")),
                              "--limit", str(_jitter(rng, 9000))]),
        _request("lacunary", ["series", "lacunary", "--limit", str(10 ** rng.randint(3, 60))]),
        _request("flat-power", ["series", "flat-power", "--limit", str(_jitter(rng, 560))]),
        _request("flat-scaled", ["series", "flat-scaled", "--limit", str(_jitter(rng, 1200))]),
    ]
    return _with_formats(_slots(reqs), round_index)


# hostile inputs from the robustness backlog; each should end in a one-line
# usage or domain error (the unbounded `kernel --x 1e8` is left out)
HOSTILE = (
    ("hostile-kernel-x", ["kernel", "--type", "dirichlet", "--x", "abc", "--z", "1"]),
    ("hostile-series-u-inf", ["series", "flint", "--u", "inf", "--v", "2", "--limit", "3"]),
    ("hostile-lacunary-limit-0", ["series", "lacunary", "--limit", "0"]),
)

_FOURTH_POWERS = {k**4 for k in range(1, 10)}


def _z(rng: random.Random) -> str:
    return f"{rng.uniform(0.1, 3.0):.3f}"


def tables_mix(seed: int, round_index: int) -> list[dict]:
    """Short table requests: process set-up, small-precision pi, kernels, output.

    20 requests per round.  gamma-reflect is 3 of them (15 %), so the p90
    latency falls inside the gamma cross-check cluster rather than on its edge.
    One request per round is hostile input.  Of the two audits, one stays at
    800-1000 rows: the largest output of the round, which sets the peak RSS.
    """
    rng = _rng(seed, round_index, "tables-mix")

    def digits():
        return ["--digits", str(rng.randint(50, 120))]

    def d_param():
        d = rng.randint(1559, 5000)
        return d + 1 if d in _FOURTH_POWERS else d

    kinds = [
        lambda: _request("measure", ["measure", "--terms", str(rng.randint(10, 40))] + digits()),
        lambda: _request("audit", ["audit", "--n-max", str(rng.randint(50, 800))]),
        lambda: _request("shift-real", ["shift", "--n-max", str(rng.randint(10, 25))] + digits()),
        lambda: _request("shift-integer", ["shift", "--technique", "integer",
                                           "--n-max", str(rng.randint(10, 25))] + digits()),
        lambda: _request("recip-sin", ["recip-sin", "--n-max", str(rng.randint(10, 40))] + digits()),
        lambda: _request("gamma-reflect", ["gamma-reflect", "--n-max", str(rng.randint(5, 40))] + digits()),
        lambda: _request("gamma-reflect", ["gamma-reflect", "--n-max", str(rng.randint(5, 40))] + digits()),
        lambda: _request("gamma-reflect", ["gamma-reflect", "--n-max", str(rng.randint(5, 40))] + digits()),
        lambda: _request("kernel-dirichlet", ["kernel", "--type", "dirichlet", "--x", str(rng.randint(0, 2000)),
                                              "--z", _z(rng)] + digits()),
        lambda: _request("kernel-fejer", ["kernel", "--type", "fejer", "--x", str(rng.randint(0, 2000)),
                                          "--z", _z(rng)] + digits()),
        lambda: _request("kernel-cf", ["kernel", "--type", "cf", "--d", str(d_param()),
                                       "--m-max", str(rng.randint(5, 12))] + digits()),
        lambda: _request("verify", ["verify", "--sequence", rng.choice(("numerators", "denominators", "lacunary")),
                                    "--terms", str(rng.randint(10, 40))]),
        lambda: _request("convergents-small", ["convergents", "--terms", str(rng.randint(5, 60))]),
        lambda: _request("stats-small", ["stats", "--terms", str(rng.randint(100, 2000))]),
        lambda: _request("measure", ["measure", "--terms", str(rng.randint(10, 40))] + digits()),
        lambda: _request("recip-sin", ["recip-sin", "--n-max", str(rng.randint(10, 40))] + digits()),
        lambda: _request("kernel-dirichlet", ["kernel", "--type", "dirichlet", "--x", str(rng.randint(0, 2000)),
                                              "--z", _z(rng)] + digits()),
        lambda: _request("convergents-small", ["convergents", "--terms", str(rng.randint(5, 60))]),
        lambda: _request("audit", ["audit", "--n-max", str(rng.randint(800, 1000))]),
    ]
    reqs = [make() for make in kinds]
    cls, argv = rng.choice(HOSTILE)
    reqs.append(_request(cls, list(argv), expect="error"))
    _slots(reqs)
    rng.shuffle(reqs)
    return _with_formats(reqs, rng.randrange(3))


WORKLOADS = {
    "expand-deep": expand_deep,
    "series-sums": series_sums,
    "tables-mix": tables_mix,
}
