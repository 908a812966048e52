"""Self-tests of the benchmark harness: the oracle, the workload generator and
the span arithmetic.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracle import Failed, Mismatch, Oracle, parse_table  # noqa: E402
from tracing import layer_metrics, per_layer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "flinthills.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=120, cwd=ROOT / "bench")


def _corrupt_one_digit(text: str, row: int) -> str:
    """Change the last digit on the given line (counting the header as line 0)."""
    lines = text.split("\n")
    line = lines[row]
    i = max(i for i, ch in enumerate(line) if ch.isdigit())
    lines[row] = line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def oracle():
    return Oracle(ROOT)


@pytest.mark.parametrize("argv", [
    ["expand", "--constant", "pi", "--terms", "60", "--format", "csv"],
    ["convergents", "--terms", "30", "--format", "plain"],
    ["measure", "--terms", "12", "--format", "json"],
    ["series", "flint", "--limit", "400", "--points", "10,355,400", "--format", "plain"],
])
def test_oracle_accepts_real_output_and_rejects_one_digit_corruption(oracle, argv):
    run = _cli(*argv)
    req = {"argv": argv, "expect": "ok"}
    oracle.check(req, run.returncode, run.stdout, run.stderr)
    with pytest.raises(Mismatch):
        oracle.check(req, 0, _corrupt_one_digit(run.stdout, 1), run.stderr)


def test_oracle_rejects_traceback(oracle):
    stderr = 'Traceback (most recent call last):\n  File "x", line 1\nValueError: boom\n'
    with pytest.raises(Failed, match="traceback"):
        oracle.check({"argv": ["convergents", "--terms", "5"], "expect": "ok"}, 1, "", stderr)
    with pytest.raises(Failed, match="traceback"):
        oracle.check({"argv": ["kernel"], "expect": "error"}, 1, "", stderr)


def test_oracle_accepts_clean_error_for_hostile_input(oracle):
    oracle.check({"argv": ["kernel"], "expect": "error"}, 1, "", "error: --x must be a number\n")
    usage = "usage: flinthills series ...\nflinthills series: error: argument --limit: bad\n"
    oracle.check({"argv": ["series"], "expect": "error"}, 2, "", usage)
    with pytest.raises(Failed):
        oracle.check({"argv": ["series"], "expect": "error"}, 0, "family\nlacunary\n", "UserWarning: x\n")


def test_parse_plain_keeps_empty_cells():
    text = "n  p    mu_hat\n1  3\n2  22   1.5\n"
    assert parse_table(text, "plain") == [{"n": "1", "p": "3", "mu_hat": ""}, {"n": "2", "p": "22", "mu_hat": "1.5"}]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_argv(name):
    make = WORKLOADS[name]
    first = [[r["argv"] for r in make(7, k)] for k in range(3)]
    assert first == [[r["argv"] for r in make(7, k)] for k in range(3)]
    assert first != [[r["argv"] for r in make(8, k)] for k in range(3)]


def test_self_time_arithmetic_on_synthetic_tree():
    # root [0, 10] has children A [1, 4] and B [5, 9]; B has child C [6, 7]
    spans = [
        [0, None, "cli.run", 0.0, 10.0, None],
        [1, 0, "contfrac.expand", 1.0, 4.0, {"requested": 10, "emitted": 8}],
        [2, 0, "series._run_sum", 5.0, 9.0, {"terms": 100}],
        [3, 2, "mpreal.sin_int", 6.0, 7.0, None],
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    assert sum(own.values()) == 10.0
    totals = layer_metrics([spans, spans])
    layers = per_layer(totals, rounds=2)
    assert layers["cli.self_s"] == 3.0
    assert layers["series.sum.self_s"] == 3.0
    assert layers["mpreal.reduce.self_s"] == 1.0
    assert layers["contfrac.expand.yield"] == 0.8
    assert sum(layers[f"{m}.self_s"] for m in ("cli", "contfrac", "series", "mpreal")) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        [0, None, "cli.run", 0.0, 10.0, None],
        [1, 0, "output.emit_rows", 2.0, 6.0, None],
        [2, 0, "output.emit_rows", 4.0, 8.0, None],
    ]
    assert self_times(spans)[0] == 4.0


def test_traced_child_sees_rebound_names_and_keeps_stdout(tmp_path):
    argv = ["series", "flint", "--limit", "30", "--format", "csv"]
    plain = _cli(*argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    span_file = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(HERE / "tracing.py"), str(span_file), "r0", "--", *argv],
                            env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    spans = json.loads(span_file.read_text())["spans"]
    names = {s[0]: s[2] for s in spans}
    # sin_int is called through the name series imported from mpreal
    assert any(s[2] == "mpreal.sin_int" and names[s[1]] == "series._run_sum" for s in spans)
