"""Row emission: streamed writes, lazy tables, and plain widths measured without rendering integers."""

import csv
import io
import json
import sys
import threading
import time
from decimal import Decimal

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

from flinthills.cli import _table
from flinthills.output import LazyTable, _integer_width, _render, _unlimited, emit_rows

from conftest import unlimited_int_str


def _lazy(rows):
    """A LazyTable of fresh copies of ``rows``, which counts its passes."""

    keys = list(rows[0]) if rows else []

    def make_rows():
        table.passes += 1
        return (tuple(map(row.get, keys)) for row in rows)

    table = LazyTable(keys, len(rows), make_rows)
    table.passes = 0
    return table


def _listed(rows):
    """The CLI's table over a list of tuples: the same rows, made into tuples once and replayed each pass."""
    keys = list(rows[0]) if rows else []
    return _table(keys, [tuple(map(row.get, keys)) for row in rows])


_TABLES = pytest.mark.parametrize("make_table", [_listed, _lazy], ids=["list", "lazy"])


def _emitted(rows, kind, significant=6):
    out = io.StringIO()
    emit_rows(rows, kind, significant, out)
    return out.getvalue()


def _plain_reference(rows, significant):
    """The plain table built by rendering every cell first, then padding."""
    keys = list(rows[0])
    cells = [[_render(row.get(k), significant, json_mode=False) for k in keys] for row in rows]
    widths = [max(len(keys[i]), max(len(r[i]) for r in cells)) for i in range(len(keys))]
    lines = ["  ".join(k.ljust(widths[i]) for i, k in enumerate(keys)).rstrip()]
    lines += ["  ".join(r[i].ljust(widths[i]) for i in range(len(keys))).rstrip() for r in cells]
    return "\n".join(lines) + "\n"


_INTEGERS = st.one_of(
    st.integers(),
    st.builds(lambda k, d, s: s * (10**k + d), st.integers(0, 400), st.integers(-2, 1), st.sampled_from((1, -1))),
)


class TestPlainWidths:
    @given(_INTEGERS)
    @settings(max_examples=300, deadline=None)
    def test_integer_width_is_its_printed_length(self, n):
        assert _integer_width(n) == len(str(n))
        assert _integer_width(Decimal(n)) == len(str(Decimal(n)))

    @given(st.lists(st.tuples(_INTEGERS, st.sampled_from([None, True, "pi", 0.125, mpmath.mpf(2) / 3,
                                                          7, -10**20, Decimal(-12)])),
                    min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_plain_matches_render_first_reference(self, cells):
        rows = [{"n": i, "int": a, "dec": Decimal(a), "mixed": a if i % 2 else Decimal(-a), "other": b}
                for i, (a, b) in enumerate(cells)]
        buf = io.StringIO()
        assert emit_rows(_lazy(rows), "plain", 6, buf) is None
        assert buf.getvalue() == _plain_reference(rows, 6)

    @given(st.lists(st.tuples(st.one_of(st.builds(lambda m, e: Decimal(m).scaleb(e), st.integers(-10**6, 10**6),
                                                  st.integers(-4, 4)),
                                        st.sampled_from([Decimal("NaN"), Decimal("-Infinity"),
                                                         -Decimal(10**4500 + 7)])),  # rounded to 28 digits
                              _INTEGERS),
                    min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_decimals_off_exponent_zero_are_measured_as_printed(self, cells):
        # 1E+5 is wider in value than 99999 and narrower in print, so such a column is measured by its text
        rows = [{"d": d, "mixed": d if i % 2 else a, "int": a} for i, (d, a) in enumerate(cells)]
        assert _emitted(_lazy(rows), "plain") == _plain_reference(rows, 6)

    def test_widths_span_every_width_slice(self):
        # the widest integer and the widest text sit in different 256-row slices of the width pass
        rows = [{"n": n, "p": 10**40 if n == 700 else n, "t": "x" * 30 if n == 300 else "y"} for n in range(900)]
        assert _emitted(_lazy(rows), "plain") == _plain_reference(rows, 6)


class TestStreaming:
    class _Recorder(io.StringIO):
        def __init__(self):
            super().__init__()
            self.writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    @_TABLES
    @pytest.mark.parametrize("kind", ["plain", "csv", "json"])
    def test_one_write_per_row(self, kind, make_table):
        rows = [{"n": n, "p": Decimal(3 * n)} for n in range(50)]
        out = self._Recorder()
        emit_rows(make_table(rows), kind, 6, out)
        assert out.writes == len(rows) + (kind != "json")  # plus the header line

    @pytest.mark.parametrize("kind", ["plain", "csv", "json"])
    def test_no_rows_writes_nothing(self, kind):
        assert _emitted(_lazy([]), kind) == ""

    @pytest.mark.parametrize("kind, passes", [("plain", 2), ("csv", 1), ("json", 1)])
    def test_passes_over_a_lazy_table(self, kind, passes):
        table = _lazy([{"n": n, "p": 10**n, "x": mpmath.mpf(n) / 7} for n in range(600)])
        _emitted(table, kind)
        assert table.passes == passes

    @pytest.mark.parametrize("kind", ["plain", "csv", "json"])
    def test_one_shot_iterator_rejected(self, kind):
        # plain passes over the rows twice, so a generator would lose its rows; a list of dicts is no table either
        rows = [{"n": n} for n in range(3)]
        with pytest.raises(TypeError, match="needs a LazyTable, not generator"):
            _emitted((row for row in rows), kind)
        with pytest.raises(TypeError, match="needs a LazyTable, not list"):
            _emitted(rows, kind)

    def test_rows_are_made_only_as_they_are_written(self):
        made = []

        def make_rows():
            for n in range(5):
                made.append(n)
                yield (n,)

        class _Stop(Exception):
            pass

        class _StopAfterTwoRows(io.StringIO):
            def write(self, text):
                if self.getvalue().count("\n") == 3:  # the header and two rows
                    raise _Stop
                return super().write(text)

        with pytest.raises(_Stop):
            emit_rows(LazyTable(["n"], 5, make_rows), "csv", 6, _StopAfterTwoRows())
        assert made == [0, 1, 2]


class TestCsvRows:
    """Rows csv.writer would not quote are joined directly; the bytes must not change."""

    _TEXT = st.text(alphabet=st.sampled_from('a1 ,"\r\n'), max_size=5)
    _CELLS = st.one_of(st.integers(), st.builds(Decimal, st.integers()), st.none(), st.booleans(), _TEXT,
                       st.builds(mpmath.mpf, st.floats(allow_nan=False, allow_infinity=False)))

    @staticmethod
    def _reference(rows, significant):
        keys = list(rows[0])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_render(row.get(k), significant, json_mode=False) for k in keys])
        return buf.getvalue()

    @given(keys=st.lists(_TEXT, min_size=1, max_size=4, unique=True), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_csv_writer(self, keys, data):
        rows = data.draw(st.lists(st.fixed_dictionaries({k: self._CELLS for k in keys}), min_size=1, max_size=6))
        assert _emitted(_lazy(rows), "csv") == self._reference(rows, 6)


class TestLazyTables:
    """A lazy table prints the bytes of its cells rendered one by one."""

    _HUGE = st.builds(lambda k, d, s: s * (10**k + d), st.integers(4290, 4400), st.integers(-2, 1),
                      st.sampled_from((1, -1)))
    _CELLS = st.one_of(
        st.integers(), _HUGE, st.builds(Decimal, st.integers()), st.builds(Decimal, _HUGE),
        st.none(), st.booleans(), st.text(alphabet=st.sampled_from('ab ,"\n'), max_size=6),
        st.builds(mpmath.mpf, st.floats(allow_nan=False)),
    )

    @given(keys=st.lists(st.sampled_from(["n", "p", "q", "a,b", 'say "x"']), min_size=1, max_size=4, unique=True),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_lazy_table_prints_the_reference(self, keys, data):
        rows = data.draw(st.lists(st.fixed_dictionaries({k: self._CELLS for k in keys}), min_size=0, max_size=5))
        for kind in ("plain", "csv", "json"):
            assert _emitted(_lazy(rows), kind) == (TestTupleRows._reference(rows, kind, 6) if rows else "")

    @pytest.mark.parametrize("kind", ["plain", "csv", "json"])
    def test_one_row(self, kind):
        rows = [{"n": 1, "p": -Decimal(10**4500 + 7), "s": 'a,"b"\nc', "x": mpmath.mpf(1) / 3, "b": True, "z": None}]
        assert _emitted(_lazy(rows), kind) == TestTupleRows._reference(rows, kind, 6)


class TestTupleRows:
    """A tuple LazyTable, one made from the same rows as dicts, and the cell-by-cell rendering print the same bytes."""

    _HUGE = st.builds(lambda k, d, s: s * (10**k + d), st.integers(4295, 4305), st.integers(-2, 1),
                      st.sampled_from((1, -1)))
    _CELLS = st.one_of(
        st.integers(), _HUGE, st.builds(Decimal, st.integers()), st.builds(Decimal, _HUGE),
        st.booleans(), st.none(), st.text(alphabet=st.sampled_from('a1 ,"\r\n%'), max_size=5),
        st.floats(allow_nan=False), st.builds(mpmath.mpf, st.floats(allow_nan=False)),
        st.builds(lambda n: MPContext().mpf(n) / 7, st.integers(-10**40, 10**40)),
    )

    @staticmethod
    def _reference(rows, kind, significant):
        """Every cell through ``_render``, then csv.writer, a JSON record or padded columns."""
        if kind == "plain":
            return _plain_reference(rows, significant)
        keys, buf = list(rows[0]), io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if kind == "csv":
            writer.writerow(keys)
        for row in rows:
            cells = [_render(row[k], significant, json_mode=kind == "json") for k in keys]
            if kind == "csv":
                writer.writerow(cells)
            else:
                buf.write("{" + ", ".join(f"{json.dumps(k)}: {c}" for k, c in zip(keys, cells)) + "}\n")
        return buf.getvalue()

    @given(keys=st.lists(st.sampled_from(["n", "p", "a,b", 'say "x"', "100%", "%s"]), min_size=1, max_size=4,
                         unique=True),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_three_ways_print_the_same(self, keys, data):
        drawn = data.draw(st.lists(st.fixed_dictionaries({k: self._CELLS for k in keys}), min_size=1, max_size=6))
        rows = [{k: row[k] for k in keys} for row in drawn]
        table = LazyTable(keys, len(rows), lambda: (tuple(row[k] for k in keys) for row in rows))
        for kind in ("plain", "csv", "json"):
            for significant in (6, 30):  # the table default and --full's digits
                expected = self._reference(rows, kind, significant)
                assert _emitted(table, kind, significant) == _emitted(_lazy(rows), kind, significant) == expected

    @pytest.mark.parametrize("kind", ["plain", "csv", "json"])
    def test_edges(self, kind):
        assert _emitted(LazyTable(["n", "p"], 0, lambda: iter(())), kind) == ""
        for cell in ("", None):  # csv quotes a row that is one empty cell
            lazy = _emitted(LazyTable(["s"], 2, lambda c=cell: iter([(c,), (7,)])), kind)
            assert lazy == self._reference([{"s": cell}, {"s": 7}], kind, 6)


def _huge_mantissa():
    """10^-1100 at 15000 bits: mpmath's nstr rescales it by its mantissa's exponent, to an int past 4300 digits."""
    mp = MPContext()
    mp.prec = 15000
    return mp.mpf(1) / 10**1100


class TestPastTheIntStrLimit:
    @_TABLES
    @pytest.mark.parametrize("kind", ["plain", "csv", "json"])
    @pytest.mark.parametrize("value, convert", [(10**5000 + 1, str), (_huge_mantissa(), lambda v: mpmath.nstr(v, 6))],
                             ids=["int", "mpf"])
    def test_prints_what_the_unlimited_conversion_prints(self, value, convert, kind, make_table):
        with pytest.raises(ValueError):
            convert(value)
        with unlimited_int_str():
            text = convert(value)
        rows = [{"p": value}]
        assert _emitted(make_table(rows), kind) == ('{"p": %s}\n' % text if kind == "json" else f"p\n{text}\n")

    def test_overlapping_retries_restore_the_limit(self):
        # the second retry starts while the first has the limit lifted; it must not save and restore that lifted value
        limit, lifted, failed, limits = sys.get_int_max_str_digits(), threading.Event(), set(), []

        def convert(name):
            if name not in failed:
                failed.add(name)
                raise ValueError("past the limit")
            lifted.set()
            time.sleep(0.2)
            return sys.get_int_max_str_digits()

        threads = [threading.Thread(target=lambda n=name: limits.append(_unlimited(convert, n)))
                   for name in ("first", "second")]
        threads[0].start()
        assert lifted.wait(timeout=10)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert limits == [0, 0]
        assert sys.get_int_max_str_digits() == limit
