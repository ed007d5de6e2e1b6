"""SVG plot tests: dropped points, empty plots and axis labels."""

import re

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
