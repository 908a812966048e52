"""Row emission: streamed writes, and plain widths measured without rendering integers."""

import io
from decimal import Decimal

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flinthills.output import _integer_width, _render, emit_rows


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
        assert emit_rows(rows, "plain", 6, buf) is None
        assert buf.getvalue() == _plain_reference(rows, 6)


class TestStreaming:
    class _Recorder(io.StringIO):
        def __init__(self):
            super().__init__()
            self.writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    @pytest.mark.parametrize("kind", ["plain", "csv", "json"])
    def test_one_write_per_row(self, kind):
        rows = [{"n": n, "p": Decimal(3 * n)} for n in range(50)]
        out = self._Recorder()
        emit_rows(rows, kind, 6, out)
        assert out.writes == len(rows) + (kind != "json")  # plus the header line

    def test_no_rows_writes_nothing(self):
        out = io.StringIO()
        emit_rows([], "csv", 6, out)
        assert out.getvalue() == ""
