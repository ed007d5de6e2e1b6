"""SVG plot tests: dropped points, empty plots, axis labels, a per-point reference, and the
points a polyline keeps per pixel column (M4)."""

import math
import re
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jprox import svgplot
from jprox.svgplot import line_plot_svg


def polylines(svg: str) -> list:
    """The point lists of every ``<polyline>``, as lists of ``x,y`` strings."""
    return [m.split() for m in re.findall(r'<polyline points="([^"]*)"', svg)]


def test_none_and_non_positive_values_are_dropped(tmp_path):
    path = tmp_path / "plot.svg"
    line_plot_svg(path, [("dis", [0, 1, 2, 3], [1.0, None, 0.0, 1e-3])])
    lines = polylines(path.read_text())
    assert len(lines) == 1
    assert len(lines[0]) == 2


def test_a_series_without_finite_points_writes_no_polyline(tmp_path):
    path = tmp_path / "plot.svg"
    line_plot_svg(path, [("nan", [0, 1], [float("nan"), float("nan")]),
                         ("inf", [0, 1], [float("inf"), float("inf")])])
    svg = path.read_text()
    assert polylines(svg) == []
    assert svg.endswith("</svg>")


def test_axis_labels_are_k_and_log10_dis(tmp_path):
    path = tmp_path / "plot.svg"
    line_plot_svg(path, [("dis", [0, 1, 2], [1.0, 0.1, 0.01])], title="t")
    labels = re.findall(r'font-size="13"[^>]*>([^<]*)</text>', path.read_text())
    assert labels == ["k", "log10 dis"]


def test_an_empty_plot_still_has_both_axes(tmp_path):
    path = tmp_path / "plot.svg"
    line_plot_svg(path, [])
    svg = path.read_text()
    assert 'x1="70" y1="40" x2="70" y2="430"' in svg  # y axis
    assert 'x1="70" y1="430" x2="620" y2="430"' in svg  # x axis
    assert polylines(svg) == []


def test_a_range_one_float_wide_ends(tmp_path):
    # log10 of these two values are adjacent floats near 5: a tick step
    # below their spacing must not stall the tick loop.
    a = b = 1e5
    while math.log10(b) == 5.0:
        b = math.nextafter(b, math.inf)
    path = tmp_path / "plot.svg"
    line_plot_svg(path, [("dis", [0, 1], [a, b])])
    assert len(polylines(path.read_text())[0]) == 2


def column_runs(pxs) -> list:
    """The index lists of the runs of consecutive points in one pixel column ``floor(px)``."""
    runs = []
    for i, px in enumerate(pxs):
        if runs and math.floor(pxs[runs[-1][-1]]) == math.floor(px):
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def m4_reference(pxs, ys) -> list:
    """The sorted indices a plot keeps, one point at a time: every point of a run of at most
    four, else the run's first, last, lowest and highest point (the first of equals)."""
    kept = set()
    for run in column_runs(pxs):
        if len(run) <= 4:
            kept.update(run)
        else:
            low = min(run, key=lambda i: ys[i])
            high = max(run, key=lambda i: ys[i])
            kept.update((run[0], run[-1], low, high))
    return sorted(kept)


def reference_plot(path, series, title=""):
    """``line_plot_svg`` with a per-point loop: filter, scale, select per pixel column
    (:func:`m4_reference`) and format one point at a time.

    The ticks, tick labels and layout constants are the module's; every
    point is handled here with Python floats.
    """
    W, H = svgplot.WIDTH, svgplot.HEIGHT
    left, right, top, bottom = (svgplot.MARGIN_LEFT, svgplot.MARGIN_RIGHT, svgplot.MARGIN_TOP,
                                svgplot.MARGIN_BOTTOM)
    plotted = []
    for label, xs, ys in series:
        pts = []
        for x, y in zip(xs, ys):
            if y is None or y <= 0.0:
                continue
            y = math.log10(y)
            if math.isfinite(x) and math.isfinite(y):
                pts.append((float(x), float(y)))
        if pts:
            plotted.append((label, pts))
    if plotted:
        xlo = min(p[0] for _, pts in plotted for p in pts)
        xhi = max(p[0] for _, pts in plotted for p in pts)
        ylo = min(p[1] for _, pts in plotted for p in pts)
        yhi = max(p[1] for _, pts in plotted for p in pts)
    else:
        xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    inner_w, inner_h = W - left - right, H - top - bottom

    def sx(x):
        return left + (x - xlo) / (xhi - xlo) * inner_w

    def sy(y):
        return top + (yhi - y) / (yhi - ylo) * inner_h

    axis, fmt = "#333333", svgplot._fmt
    x0, y0 = left, H - bottom
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{x0}" y1="{top}" x2="{x0}" y2="{y0}" stroke="{axis}"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{W - right}" y2="{y0}" stroke="{axis}"/>',
    ]
    for t in svgplot._ticks(xlo, xhi):
        px = sx(t)
        out.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="{axis}"/>')
        out.append(f'<text x="{px:.1f}" y="{y0 + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{fmt(t)}</text>')
    for t in svgplot._ticks(ylo, yhi):
        py = sy(t)
        out.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="{axis}"/>')
        out.append(f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{fmt(t)}</text>')
    out.append(f'<text x="{left + inner_w / 2:.1f}" y="{H - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">k</text>')
    out.append(f'<text x="16" y="{top + inner_h / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 16 {top + inner_h / 2:.1f})">log10 dis</text>')
    for idx, (label, pts) in enumerate(plotted):
        color = svgplot.PALETTE[idx % len(svgplot.PALETTE)]
        kept = m4_reference([sx(x) for x, _ in pts], [y for _, y in pts])
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in (pts[i] for i in kept))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{W - right - 6}" y="{top + 16 + 16 * idx}" '
                   f'text-anchor="end" font-family="sans-serif" font-size="12" '
                   f'fill="{color}">{label}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out), encoding="utf-8")


Y_VALUES = st.one_of(
    st.none(), st.just(0), st.just(0.0), st.integers(-3, 10 ** 6),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(min_value=1e-20, max_value=1e20),
    st.sampled_from([5e-324, -5e-324, math.nan, math.inf, -math.inf, 1.0]),
)
X_VALUES = st.one_of(st.integers(0, 10 ** 4), st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def a_series(draw):
    size = draw(st.integers(1, 40))
    if draw(st.booleans()):
        xs = draw(st.lists(X_VALUES, min_size=size, max_size=size))
    else:  # consecutive k: beside a series that reaches far, many points share a pixel column
        xs = list(range(size))
    if draw(st.booleans()):
        ys = [draw(Y_VALUES)] * size  # a flat series
    else:
        ys = draw(st.lists(Y_VALUES, min_size=size, max_size=size))
    return draw(st.text("abc", max_size=3)), xs, ys


@settings(max_examples=200, deadline=None)
@given(series=st.lists(a_series(), max_size=4))
def test_plot_matches_the_per_point_reference_byte_for_byte(tmp_path_factory, series):
    root = tmp_path_factory.mktemp("plots")
    want, got = root / "want.svg", root / "got.svg"
    reference_plot(want, series, title="t")
    line_plot_svg(got, series, title="t")
    assert got.read_bytes() == want.read_bytes()


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1), ties=st.booleans())
def test_a_polyline_keeps_the_first_last_lowest_and_highest_point_of_each_column(
        tmp_path_factory, size, seed, ties):
    # A trace: k increasing by 1 to 3, dis positive, with equal values when ``ties``.
    rng = np.random.default_rng(seed)
    ks = np.cumsum(rng.integers(1, 4, size)).tolist()
    exponents = rng.normal(0.0, 3.0, size)
    dis = (10.0 ** (np.round(exponents) if ties else exponents)).tolist()
    path = tmp_path_factory.mktemp("plots") / "plot.svg"
    line_plot_svg(path, [("dis", ks, dis)])
    got = polylines(path.read_text())[0]

    # Every point of the full series, scaled as the plot scales it.
    logs = [math.log10(d) for d in dis]
    xlo, xhi, ylo, yhi = min(ks), max(ks), min(logs), max(logs)
    xhi, yhi = (xhi if xhi > xlo else xlo + 1.0), (yhi if yhi > ylo else ylo + 1.0)
    inner_w = svgplot.WIDTH - svgplot.MARGIN_LEFT - svgplot.MARGIN_RIGHT
    inner_h = svgplot.HEIGHT - svgplot.MARGIN_TOP - svgplot.MARGIN_BOTTOM
    pxs = [svgplot.MARGIN_LEFT + (k - xlo) / (xhi - xlo) * inner_w for k in ks]
    texts = [f"{px:.2f},{svgplot.MARGIN_TOP + (yhi - v) / (yhi - ylo) * inner_h:.2f}"
             for px, v in zip(pxs, logs)]

    columns = column_runs(pxs)
    assert len(columns) == len({math.floor(px) for px in pxs})  # k increases: a run per column
    want = set()
    for column in columns:
        if len(column) <= 4:
            want.update(column)
            continue
        values = [logs[i] for i in column]
        want.update((column[0], column[-1], column[values.index(min(values))],
                     column[values.index(max(values))]))
    assert got == [texts[i] for i in sorted(want)]
    assert len(got) <= 4 * len(columns)
