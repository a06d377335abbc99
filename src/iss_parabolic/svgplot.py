"""Minimal hand-emitted SVG line charts; no plotting dependency.

Deterministic output: same data in, byte-identical file out.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

_WIDTH, _HEIGHT = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 28, 44
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # not saxutils.escape: it imports urllib.request


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * k / 4 for k in range(5)]  # five ticks, both ends included


def write_line_plot(
    path,
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    xlabel: str = "t",
    ylabel: str = "",
    logy: bool = False,
) -> None:
    """Write a simple line chart of one or more series against x; the title, labels and names are XML-escaped.

    Only finite samples are drawn.  With ``logy`` the y axis is log10 and
    only finite positive samples are drawn; if no series has one, the plot
    falls back to linear.  The samples drawn are the ones that set the y
    range.
    """
    x = np.asarray(x, dtype=float)
    ys = {name: np.asarray(v, dtype=float) for name, v in series.items()}
    keep = {name: np.isfinite(v) & (v > 0.0) for name, v in ys.items()}
    logy = logy and any(k.any() for k in keep.values())
    if not logy:
        keep = {name: np.isfinite(v) for name, v in ys.items()}
    drawn = {name: (x[k], np.log10(ys[name][k]) if logy else ys[name][k]) for name, k in keep.items()}

    xmin, xmax = float(x.min()), float(x.max())
    ymin, ymax = math.inf, -math.inf
    for _, tv in drawn.values():
        if tv.size:
            ymin = min(ymin, float(tv.min()))
            ymax = max(ymax, float(tv.max()))
    if not (math.isfinite(ymin) and math.isfinite(ymax)):
        ymin, ymax = 0.0, 1.0
    if ymax - ymin < 1e-12:
        ymid = 0.5 * (ymin + ymax)
        ymin, ymax = ymid - 0.5, ymid + 0.5

    pw = _WIDTH - _ML - _MR
    ph = _HEIGHT - _MT - _MB

    def px(v: float) -> float:
        return _ML + (v - xmin) / (xmax - xmin or 1.0) * pw

    def py(v: float) -> float:
        return _MT + (ymax - v) / (ymax - ymin) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_ML}" y="16" font-size="13">{title.translate(_ESCAPES)}</text>',
    ]
    axis = f'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + ph}" {axis}/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT + ph}" x2="{_ML + pw}" y2="{_MT + ph}" {axis}/>')
    for tv in _ticks(xmin, xmax):
        xx = px(tv)
        parts.append(f'<line x1="{xx:.2f}" y1="{_MT + ph}" x2="{xx:.2f}" y2="{_MT + ph + 5}" {axis}/>')
        parts.append(f'<text x="{xx:.2f}" y="{_MT + ph + 18}" text-anchor="middle">{tv:.4g}</text>')
    for tv in _ticks(ymin, ymax):
        yy = py(tv)
        label = f"1e{tv:.2f}" if logy else f"{tv:.4g}"
        parts.append(f'<line x1="{_ML - 5}" y1="{yy:.2f}" x2="{_ML}" y2="{yy:.2f}" {axis}/>')
        parts.append(f'<text x="{_ML - 8}" y="{yy + 4:.2f}" text-anchor="end">{label}</text>')
    parts.append(f'<text x="{_ML + pw / 2:.0f}" y="{_HEIGHT - 8}" text-anchor="middle">'
                 f'{xlabel.translate(_ESCAPES)}</text>')
    if ylabel:
        label = (f"log10({ylabel})" if logy else ylabel).translate(_ESCAPES)
        parts.append(f'<text x="14" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
                     f'transform="rotate(-90 14 {_MT + ph / 2:.0f})">{label}</text>')
    for idx, (name, (xv, tv)) in enumerate(drawn.items()):
        color = _COLORS[idx % len(_COLORS)]
        # px and py act elementwise on arrays with the scalar order of operations.
        xy = np.column_stack((px(xv), py(tv)))
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{_ML + pw - 4}" y="{_MT + 14 + 14 * idx}" text-anchor="end" '
                     f'fill="{color}">{name.translate(_ESCAPES)}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
