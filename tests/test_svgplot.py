import math
import re
from xml.etree import ElementTree

import numpy as np
import pytest

from iss_parabolic.svgplot import write_line_plot


def _points_per_point(x, v, logy):
    """The polyline points as the per-point loop wrote them: scalar px/py, one f-string each.

    The plot area is 560 x 348 px with its top-left corner at (64, 28).
    """
    keep = np.isfinite(v) & (v > 0.0) if logy else np.isfinite(v)
    ys = np.log10(v[keep]) if logy else v[keep]
    xmin, xmax = float(x.min()), float(x.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    return " ".join(
        f"{64 + (float(xx) - xmin) / (xmax - xmin or 1.0) * 560:.2f},"
        f"{28 + (ymax - float(yy)) / (ymax - ymin) * 348:.2f}"
        for xx, yy in zip(x[keep], ys)
    )


@pytest.mark.parametrize("logy", [False, True])
def test_polyline_matches_per_point_format(tmp_path, logy):
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-1.0, 1.0, 400)) * 1e3
    v = rng.standard_normal(400) * np.exp(rng.uniform(-30.0, 30.0, 400))
    v[[5, 50, 123]] = [math.inf, -math.inf, math.nan]
    write_line_plot(tmp_path / "p.svg", x, {"v": v}, logy=logy)
    (points,) = re.findall(r'points="([^"]*)"', (tmp_path / "p.svg").read_text())
    assert points == _points_per_point(x, v, logy)


def test_constant_abscissa_gets_a_unit_tick_range(tmp_path):
    # x.min() == x.max(): the x ticks span one unit from x, and every point sits on the left axis.
    write_line_plot(tmp_path / "p.svg", np.full(3, 0.5), {"v": np.array([1.0, 2.0, 3.0])})
    svg = (tmp_path / "p.svg").read_text()
    assert re.findall(r'text-anchor="middle">([^<]*)</text>', svg)[:5] == ["0.5", "0.75", "1", "1.25", "1.5"]
    (points,) = re.findall(r'points="([^"]*)"', svg)
    assert [point.split(",")[0] for point in points.split()] == ["64.00"] * 3


def test_all_non_finite_samples_get_a_unit_value_range(tmp_path):
    # No finite sample sets the y range, so the axis spans [0, 1] and no point is drawn.
    write_line_plot(tmp_path / "p.svg", np.arange(3.0), {"v": np.array([math.nan, math.inf, -math.inf])})
    svg = (tmp_path / "p.svg").read_text()
    assert re.findall(r'text-anchor="end">([^<]*)</text>', svg) == ["0", "0.25", "0.5", "0.75", "1"]
    assert re.findall(r'points="([^"]*)"', svg) == [""]


def test_log_axis_draws_only_finite_positive_samples(tmp_path):
    # inf passes v > 0, but it must neither set the y range nor reach the polyline.
    write_line_plot(tmp_path / "p.svg", np.arange(3.0), {"v": np.array([1.0, 10.0, math.inf])}, logy=True)
    svg = (tmp_path / "p.svg").read_text()
    assert "inf" not in svg
    assert re.findall(r'points="([^"]*)"', svg) == ["64.00,376.00 344.00,28.00"]
    assert re.findall(r'text-anchor="end">([^<]*)</text>', svg) == ["1e0.00", "1e0.25", "1e0.50", "1e0.75", "1e1.00"]


@pytest.mark.parametrize("logy", [False, True])
def test_text_is_xml_escaped(tmp_path, logy):
    # Unescaped, a title such as a<b wrote a file no XML parser reads.
    write_line_plot(tmp_path / "p.svg", np.arange(3.0), {'x<"y">': np.array([1.0, 2.0, 4.0])},
                    title="a<b", xlabel="t & s", ylabel="|x|>0", logy=logy)
    texts = [el.text for el in ElementTree.parse(tmp_path / "p.svg").iter("{http://www.w3.org/2000/svg}text")]
    assert {"a<b", "t & s", "log10(|x|>0)" if logy else "|x|>0", 'x<"y">'} <= set(texts)
