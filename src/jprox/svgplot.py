"""Minimal static SVG plots of log10 dis against k (polylines and axes, no external renderer).

Points are filtered and scaled as numpy arrays, one series at a time, and
a polyline keeps only the points its line needs at the plot's size (M4).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN_LEFT, MARGIN_RIGHT = 70, 20
MARGIN_TOP, MARGIN_BOTTOM = 40, 50

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, count: int = 5) -> list:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / count))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(t)
        if t + step == t:  # step below the spacing of floats at t: no next tick
            break
        t += step
    return ticks


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:.3g}"


def _m4(px: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The indices, in series order, of the first, last, lowest and highest point (the first
    of equals) of each run of consecutive points in one pixel column ``floor(px)``, and of
    every point of a run of at most four.

    A line through these points covers the pixels of the line through them all
    (M4 aggregation: Jugel et al., VLDB 2014); with ``k`` increasing, each
    run is a whole column.
    """
    column = np.floor(px)
    start = np.flatnonzero(np.r_[True, column[1:] != column[:-1]])
    size = np.diff(np.r_[start, px.size])
    run = np.repeat(np.arange(start.size), size)
    keep = np.repeat(size <= 4, size)
    for picked in (start, start + size - 1, np.lexsort((y, run))[start],
                   np.lexsort((-y, run))[start]):
        keep[picked] = True
    return np.flatnonzero(keep)


def line_plot_svg(path, series: Sequence[tuple], title: str = "") -> None:
    """Write a plot of ``log10 y`` against ``k`` to ``path``.

    ``series`` is a sequence of ``(label, xs, ys)`` triples; ``None``,
    NaN, non-positive and non-finite entries are dropped.  Each series is
    filtered and scaled as numpy arrays, cut to the points of :func:`_m4`
    (at most four per pixel column, so the drawn line is unchanged), and
    written with one ``%`` operation; ``math.log10`` takes the logarithms,
    since ``np.log10`` may differ from it in the last bit.
    """
    plotted = []
    for label, xs, ys in series:
        x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
        n = min(x.size, y.size)
        keep = y[:n] > 0.0
        x = x[:n][keep]
        y = np.fromiter(map(math.log10, y[:n][keep].tolist()), dtype=float, count=x.size)
        finite = np.isfinite(x) & np.isfinite(y)
        if finite.any():
            plotted.append((label, x[finite], y[finite]))

    if plotted:
        xlo = float(min(x.min() for _, x, _ in plotted))
        xhi = float(max(x.max() for _, x, _ in plotted))
        ylo = float(min(y.min() for _, _, y in plotted))
        yhi = float(max(y.max() for _, _, y in plotted))
    else:
        xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0

    inner_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    inner_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - xlo) / (xhi - xlo) * inner_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (yhi - y) / (yhi - ylo) * inner_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis_color = "#333333"
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    out.append(
        f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="{axis_color}"/>'
    )
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_RIGHT}" y2="{y0}" stroke="{axis_color}"/>'
    )
    for t in _ticks(xlo, xhi):
        px = sx(t)
        out.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="{axis_color}"/>')
        out.append(
            f'<text x="{px:.1f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(ylo, yhi):
        py = sy(t)
        out.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="{axis_color}"/>')
        out.append(
            f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + inner_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">k</text>'
    )
    out.append(
        f'<text x="16" y="{MARGIN_TOP + inner_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {MARGIN_TOP + inner_h / 2:.1f})">log10 dis</text>'
    )
    for idx, (label, x, y) in enumerate(plotted):
        color = PALETTE[idx % len(PALETTE)]
        px = sx(x)
        keep = _m4(px, y)
        cells = np.column_stack((px[keep], sy(y[keep]))).ravel().tolist()
        coords = " ".join(["%.2f,%.2f"] * keep.size) % tuple(cells)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{WIDTH - MARGIN_RIGHT - 6}" y="{MARGIN_TOP + 16 + 16 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out), encoding="utf-8")
