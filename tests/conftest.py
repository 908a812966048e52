import contextlib
import csv
import sys
import time
from pathlib import Path

import pytest

import flinthills as fh

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def ctx50():
    return fh.make_context(50)


@pytest.fixture(scope="session")
def ctx60():
    return fh.make_context(60)


@pytest.fixture(scope="session")
def pi_survey():
    """Expansion of pi at 20000 working digits, exhausted; (quotients, seconds)."""
    t0 = time.perf_counter()
    ctx = fh.make_context(20000)
    pq = fh.expand(fh.pi_const(ctx), 50000, ctx, constant_id="pi")
    return pq, time.perf_counter() - t0


@pytest.fixture(scope="session")
def annotated():
    """(table, row, column) cells of the published tables known to be misprints."""
    return {(a.table, a.row, a.column) for a in fh.load_table_annotations()}


def load_table(name: str) -> list[dict]:
    with open(DATA_DIR / name, newline="") as fh_:
        return list(csv.DictReader(fh_))


@pytest.fixture(scope="session")
def measure_reference():
    return load_table("measure_table.csv")


@pytest.fixture(scope="session")
def recip_sin_reference():
    return load_table("recip_sin_table.csv")


@pytest.fixture(scope="session")
def gamma_reference():
    return load_table("gamma_table.csv")


@pytest.fixture(scope="session")
def flint_plot_reference():
    return load_table("flint_plot.csv")


def rel_err(got, expected) -> float:
    return abs(float(got) - float(expected)) / abs(float(expected))


@contextlib.contextmanager
def unlimited_int_str():
    """Lift Python's 4300-digit int <-> str limit, where the interpreter has one."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)
