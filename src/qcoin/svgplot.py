"""Tiny dependency-free SVG line/scatter plots for the CLI's convenience output.

CSV files are the canonical data products; these plots only exist so a sweep
can be eyeballed without further tooling.
"""

from __future__ import annotations

import math

PALETTE = ("#c2185b", "#00897b", "#3949ab", "#f9a825", "#6d4c41", "#455a64")

_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 24, 40, 56


def _escape(text: str) -> str:  # xml.sax.saxutils.escape, whose import loads urllib.request, http and ssl
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _bounds(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if math.isclose(lo, hi):
        pad = 1.0 if lo == 0.0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def line_plot(
    path,
    series: list[tuple[list[float], list[float], str]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write an SVG with one polyline + markers per (xs, ys, label) series."""
    xs_all = [x for xs, _, _ in series for x in xs]
    ys_all = [y for _, ys, _ in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _bounds(xs_all)
    y_lo, y_hi = _bounds(ys_all)
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def px(x: float) -> float:
        return _LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_TOP - 14}" text-anchor="middle" '
            f'font-size="14">{_escape(title)}</text>'
        )
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{_TOP + plot_h}" x2="{x:.1f}" y2="{_TOP + plot_h + 5}" stroke="#444"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{_TOP + plot_h + 18}" text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{_LEFT - 5}" y1="{y:.1f}" x2="{_LEFT}" y2="{y:.1f}" stroke="#444"/>')
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt(tick)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_LEFT + plot_w / 2}" y="{_HEIGHT - 12}" text-anchor="middle">{_escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="18" y="{_TOP + plot_h / 2}" text-anchor="middle" '
            f'transform="rotate(-90 18 {_TOP + plot_h / 2})">{_escape(ylabel)}</text>'
        )
    for i, (xs, ys, label) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        if len(xs) > 1:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>')
        if label:
            ly = _TOP + 16 + 16 * i
            lx = _LEFT + plot_w - 150
            parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{lx + 28}" y="{ly}">{_escape(label)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
