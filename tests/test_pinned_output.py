"""Byte-for-byte pins of CLI output, covering every subcommand.

`data/pinned_stdout.json` maps each command line below to the stdout it
produced when recorded; the library and the CLI may be restructured, but these
bytes may not change.  `verify` prints the absolute path of the bundled
fixture, so its pins hold a placeholder in place of the fixtures directory.
The library checks pin exact (==) equality between single-pass and separately
computed partial sums.
"""

import io
import json
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

import flinthills as fh
from flinthills.cli import _COMMANDS, run

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
    "measure --terms 20 --digits 70",
    "audit --n-max 40",
    "kernel --type dirichlet --x 17 --z 0.7",
    "kernel --type dirichlet --x 2.5 --z 1.3",
    "kernel --type fejer --x 9 --z 2",
    "kernel --type cf --d 1559 --m-max 10",
    "recip-sin --n-max 20",
    "gamma-reflect --n-max 12",
    "stats --terms 1500",
    "stats --terms 1500 --histogram",
    "convergents --terms 40",
    "expand --constant sqrt2 --terms 50",
    "verify --sequence numerators --terms 30",
]

FIXTURES_PLACEHOLDER = "<fixtures>"

VARIANTS = [["--format", "plain"], ["--format", "csv"], ["--format", "json"], ["--format", "json", "--full"]]


def command_lines():
    return [" ".join([cmd, *extra]) for cmd in COMMANDS for extra in VARIANTS]


def portable(stdout: str) -> str:
    """Replace the bundled-fixtures directory with a placeholder.

    The plain table pads its first column to the path's width, so the header
    loses the padding the placeholder no longer needs.
    """
    fixtures = str(resources.files("flinthills").joinpath("fixtures"))
    stdout = stdout.replace(fixtures, FIXTURES_PLACEHOLDER)
    shift = len(fixtures) - len(FIXTURES_PLACEHOLDER)
    if stdout.startswith("fixture "):
        stdout = stdout.replace("fixture" + " " * shift, "fixture", 1)
    return stdout


@pytest.fixture(scope="module")
def pinned():
    return json.loads((Path(__file__).parent / "data" / "pinned_stdout.json").read_text())


@pytest.mark.parametrize("line", command_lines())
def test_stdout_matches_pin(line, pinned):
    buf = io.StringIO()
    assert run(line.split(), out=buf) == 0
    assert portable(buf.getvalue()) == pinned[line]


def test_every_subcommand_is_pinned():
    assert set(_COMMANDS) <= {cmd.split()[0] for cmd in COMMANDS}


def test_report_half_sum_is_the_half_limit_sum(ctx50):
    spec = fh.SeriesSpec(family="flint", u=3, v=2, limit=301)
    diag = fh.convergence_report(spec, ctx50)
    assert diag.half_sum == fh.partial_sum(replace(spec, limit=150), ctx50).value
    assert diag.partial_sum == fh.partial_sum(spec, ctx50).value


@pytest.mark.parametrize(
    "spec, checkpoints",
    [
        (fh.SeriesSpec(family="flint", u=3, v=2), [7, 100, 355]),
        # 10 and 400 fall between the record indices 3, 22, 333, 355, 103993
        (fh.SeriesSpec(family="lacunary", u=3, v=2), [10, 355, 400, 1000]),
        (fh.SeriesSpec(family="alpha_pi", u=3, v=2), [1, 9, 40]),
        (fh.SeriesSpec(family="flat_power", u=2, v=1, variant="nearest"), [1, 6, 15]),
        (fh.SeriesSpec(family="flat_scaled", u=2, v=1, variant="frac", flat_base=7), [2, 9, 15]),
    ],
    ids=["flint", "lacunary", "alpha_pi", "flat_power", "flat_scaled"],
)
def test_last_checkpoint_is_the_partial_sum(spec, checkpoints, ctx50):
    if spec.family == "alpha_pi":
        spec = replace(spec, alpha=fh.constant_value("sqrt2", ctx50))
    result = fh.partial_sum(replace(spec, limit=checkpoints[-1]), ctx50, checkpoints)
    assert [c for c, _ in result.checkpoints] == checkpoints
    for c, value in result.checkpoints:
        assert value == fh.partial_sum(replace(spec, limit=c), ctx50).value
    assert result.checkpoints[-1] == (checkpoints[-1], result.value)
