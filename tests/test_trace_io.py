"""Trace CSV writer and reader against per-value references that share no code with them, and
the SHA-256 digest the writer returns and the reader checks."""

import hashlib
import math
import struct

import numpy as np
import pytest

from jprox.experiments import CSV_BLOCK_ROWS, CSV_HEADER, read_trace_csv, write_trace_csv
from jprox.solvers import Trace

COLUMNS = ("dis", "phi", "primal_residual", "elapsed")
SUBNORMAL = 5e-324


def reference_csv(trace) -> str:
    """The trace CSV written one value at a time."""
    def cell(column, i):
        return "" if column is None else f"{float(column[i]):.17g}"

    lines = [CSV_HEADER]
    for i, k in enumerate(trace.ks):
        lines.append(",".join([str(k)] + [cell(getattr(trace, c), i) for c in COLUMNS]))
    return "\n".join(lines) + "\n"


def make_trace(rows: int, **columns) -> Trace:
    """A trace of ``rows`` rows; a column given as ``None`` is absent, and unnamed columns
    hold distinct finite values."""
    values = {name: [(i + 1) * 0.1 ** (j + 1) for i in range(rows)]
              for j, name in enumerate(COLUMNS)}
    values.update(columns)
    return Trace(**{name: None if v is None else np.array(v, dtype=float)
                    for name, v in values.items()})


SPECIAL = [math.nan, math.inf, -math.inf, -2.5, -0.0, 0.0, SUBNORMAL, 2.2250738585072014e-308 / 3,
           1e308, 1 / 3, 123456789.123456789]

TRACES = {
    "all-set": make_trace(5),
    "no-phi": make_trace(4, phi=None),
    "no-dis": make_trace(4, dis=None),
    "special": make_trace(len(SPECIAL), dis=SPECIAL, phi=SPECIAL[::-1],
                          primal_residual=[-v for v in SPECIAL]),
    "one-row": make_trace(1),
    "empty": make_trace(0),
    "crosses-block": make_trace(CSV_BLOCK_ROWS + 3,
                                phi=[0.5 ** i for i in range(CSV_BLOCK_ROWS + 3)]),
    "crosses-block-no-phi": make_trace(CSV_BLOCK_ROWS + 3, phi=None),
}


def bits(v):
    return struct.pack("<d", v)


@pytest.mark.parametrize("name", TRACES)
def test_write_gives_the_bytes_of_a_per_value_loop(tmp_path, name):
    trace = TRACES[name]
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == reference_csv(trace).encode("utf-8")


@pytest.mark.parametrize("name", TRACES)
def test_read_returns_every_written_value_bit_for_bit(tmp_path, name):
    # Every column reads back as float64, an absent one (empty cells) as NaN.
    trace = TRACES[name]
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    cols = read_trace_csv(path)
    assert list(cols) == CSV_HEADER.split(",")
    assert all(col.dtype == np.float64 for col in cols.values())
    assert cols["k"].tolist() == list(trace.ks)
    for c in COLUMNS:
        want = getattr(trace, c)
        got = cols["elapsed_seconds" if c == "elapsed" else c].tolist()
        assert len(got) == len(trace)
        if want is None:
            assert all(math.isnan(g) for g in got), c
            continue
        for g, w in zip(got, want.tolist()):
            if math.isnan(w):
                assert math.isnan(g)
            else:
                assert bits(g) == bits(w), (c, g, w)


@pytest.mark.parametrize("name", TRACES)
def test_the_digest_is_that_of_the_bytes_written(tmp_path, name):
    path = tmp_path / "t.csv"
    digest = write_trace_csv(TRACES[name], path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert read_trace_csv(path, ("dis",), digest)["dis"].size == len(TRACES[name])


def test_read_parses_only_the_columns_asked_for(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(CSV_HEADER + "\n0,1.5,x,y,z\n1,0.5,,,\n", encoding="utf-8")
    cols = read_trace_csv(path, ("k", "dis"))
    assert list(cols) == ["k", "dis"]
    assert cols["k"].tolist() == [0, 1] and cols["dis"].tolist() == [1.5, 0.5]
    with pytest.raises(ValueError, match="could not convert"):
        read_trace_csv(path, ("phi",))


def test_read_with_a_digest_refuses_any_other_bytes(tmp_path):
    path = tmp_path / "t.csv"
    digest = write_trace_csv(TRACES["all-set"], path)
    text = path.read_text(encoding="utf-8")
    assert read_trace_csv(path, (), digest) == {}
    for edited in (text.replace("0.1", "0.2", 1), text[:-1], text + "\n"):
        path.write_text(edited, encoding="utf-8")
        for names in ((), ("k", "dis")):
            with pytest.raises(ValueError, match="SHA-256 digest"):
                read_trace_csv(path, names, digest)


def test_read_accepts_crlf_line_endings(tmp_path):
    trace = TRACES["no-phi"]
    path = tmp_path / "t.csv"
    path.write_bytes(reference_csv(trace).replace("\n", "\r\n").encode("utf-8"))
    cols = read_trace_csv(path)
    assert cols["k"].tolist() == list(trace.ks)
    assert cols["dis"].tobytes() == trace.dis.tobytes()
    assert np.isnan(cols["phi"]).all()


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
