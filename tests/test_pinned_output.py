"""Byte-for-byte pins of CLI output for the series and shift commands.

`data/pinned_stdout.json` maps each command line below to the stdout it
produced when recorded; the summation and reduction code may be restructured,
but these bytes may not change.  The library checks pin exact (==) equality
between single-pass and separately computed partial sums.
"""

import io
import json
from pathlib import Path

import pytest

import flinthills as fh
from flinthills.cli import run

COMMANDS = [
    "series flint --u 3 --v 2 --limit 400",
    "series flint --u 3 --v 2 --limit 500 --points 1,3,22,355,500",
    "series flint --u 3 --v 2 --limit 300 --report",
    "series flint --u 1.5 --v 1 --limit 120 --report --digits 80",
    "series alpha-pi --alpha sqrt2 --u 3 --v 2 --limit 60",
    "series alpha-pi --alpha golden --u 3 --v 2 --limit 61 --report --measure 2",
    "series alpha-pi --u 3 --v 2 --limit 0 --report --measure 2",
    "series lacunary --u 3 --v 2 --limit 1000000000000000000000000000000",
    "series flat-power --u 2 --v 1 --limit 15 --arg nearest",
    "series flat-power --u 2 --v 2 --limit 15 --arg frac",
    "series flat-scaled --u 2 --v 1 --limit 15 --arg nearest",
    "series flat-scaled --u 2 --v 1 --limit 15 --arg frac --flat-base 7",
    "shift --n-max 12 --technique real",
    "shift --n-max 12 --technique integer",
]

VARIANTS = [["--format", "plain"], ["--format", "csv"], ["--format", "json"], ["--format", "json", "--full"]]


def command_lines():
    return [" ".join([cmd, *extra]) for cmd in COMMANDS for extra in VARIANTS]


@pytest.fixture(scope="module")
def pinned():
    return json.loads((Path(__file__).parent / "data" / "pinned_stdout.json").read_text())


@pytest.mark.parametrize("line", command_lines())
def test_stdout_matches_pin(line, pinned):
    buf = io.StringIO()
    assert run(line.split(), out=buf) == 0
    assert buf.getvalue() == pinned[line]


def test_report_half_sum_is_the_half_limit_sum(ctx50):
    spec = fh.SeriesSpec(family="flint", u=3, v=2, limit=301)
    diag = fh.convergence_report(spec, ctx50)
    assert diag.half_sum == fh.flint_partial_sum(3, 2, 150, ctx50).value
    assert diag.partial_sum == fh.flint_partial_sum(3, 2, 301, ctx50).value


def test_last_checkpoint_is_the_partial_sum(ctx50):
    pairs = fh.flint_partial_sum_checkpoints(3, 2, [7, 100, 355], ctx50)
    assert pairs[-1] == (355, fh.flint_partial_sum(3, 2, 355, ctx50).value)
