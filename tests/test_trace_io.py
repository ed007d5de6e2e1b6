"""Trace CSV writer and reader against per-value references that share no code with them."""

import math
import struct

import pytest

from jprox.cli import CSV_BLOCK_ROWS, CSV_HEADER, read_trace_csv, write_trace_csv
from jprox.solvers import Trace

COLUMNS = ("dis", "phi", "primal_residual", "elapsed")
SUBNORMAL = 5e-324


def reference_csv(trace) -> str:
    """The trace CSV written one value at a time."""
    def cell(v):
        return "" if v is None else f"{float(v):.17g}"

    lines = [CSV_HEADER]
    for i, k in enumerate(trace.ks):
        lines.append(",".join([str(k)] + [cell(getattr(trace, c)[i]) for c in COLUMNS]))
    return "\n".join(lines) + "\n"


def make_trace(rows: int, **columns) -> Trace:
    """A trace of ``rows`` rows; unnamed columns hold distinct finite values."""
    trace = Trace(ks=list(range(rows)))
    for j, name in enumerate(COLUMNS):
        setattr(trace, name, columns.get(name, [(i + 1) * 0.1 ** (j + 1) for i in range(rows)]))
    return trace


SPECIAL = [math.nan, math.inf, -math.inf, -2.5, -0.0, 0.0, SUBNORMAL, 2.2250738585072014e-308 / 3,
           1e308, 1 / 3, 123456789.123456789]

TRACES = {
    "all-set": make_trace(5),
    "no-phi": make_trace(4, phi=[None] * 4),
    "mixed-none": make_trace(6, dis=[1.0, None, 0.5, None, None, 0.25]),
    "special": make_trace(len(SPECIAL), dis=SPECIAL, phi=SPECIAL[::-1],
                          primal_residual=[-v for v in SPECIAL]),
    "one-row": make_trace(1),
    "empty": make_trace(0),
    "crosses-block": make_trace(
        CSV_BLOCK_ROWS + 3,
        phi=[0.5 ** i for i in range(CSV_BLOCK_ROWS)] + [None, 1.0, None],
    ),
}


def bits(v):
    return None if v is None else struct.pack("<d", v)


@pytest.mark.parametrize("name", TRACES)
def test_write_gives_the_bytes_of_a_per_value_loop(tmp_path, name):
    trace = TRACES[name]
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == reference_csv(trace).encode("utf-8")


@pytest.mark.parametrize("name", TRACES)
def test_read_returns_every_written_value_bit_for_bit(tmp_path, name):
    trace = TRACES[name]
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    cols = read_trace_csv(path)
    assert list(cols) == CSV_HEADER.split(",")
    assert cols["k"] == trace.ks
    for c in COLUMNS:
        want = getattr(trace, c)
        got = cols["elapsed_seconds" if c == "elapsed" else c]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if w is not None and math.isnan(w):
                assert math.isnan(g)
            else:
                assert bits(g) == bits(w), (c, g, w)


def test_read_accepts_crlf_line_endings(tmp_path):
    trace = TRACES["mixed-none"]
    path = tmp_path / "t.csv"
    path.write_bytes(reference_csv(trace).replace("\n", "\r\n").encode("utf-8"))
    cols = read_trace_csv(path)
    assert cols["k"] == trace.ks and cols["dis"] == trace.dis


def test_read_rejects_a_blank_line_in_the_middle(tmp_path):
    lines = reference_csv(TRACES["all-set"]).splitlines()
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 4 has 0 cells, expected 5"):
        read_trace_csv(path)


@pytest.mark.parametrize("text, message", [
    ("k,dis\n0,1\n", "unexpected header"),
    ("", "unexpected header"),
    (CSV_HEADER + "\n0,1,2,3,4\n1,1,2,3\n", "line 3 has 4 cells, expected 5"),
    (CSV_HEADER + "\n0,1,2,3,4,5\n", "line 2 has 6 cells, expected 5"),
    (CSV_HEADER + "\n0,x,2,3,4\n", "could not convert"),
    (CSV_HEADER + "\n0.5,1,2,3,4\n", "invalid literal"),
])
def test_read_rejects_a_bad_header_row_or_cell(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        read_trace_csv(path)
