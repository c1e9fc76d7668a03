"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: identical inputs must produce byte-identical
files, which rules out plotting libraries that embed timestamps or
randomized element ids.  Output is a single polyline with axes, ticks,
and an emphasized zero line when the y-range straddles zero.
"""

from __future__ import annotations

import math

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 48


def _nice_step(span: float, target_ticks: int = 5) -> float:
    if span <= 0.0 or not math.isfinite(span):
        return 1.0
    raw = span / target_ticks
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    out = []
    value = first
    while value <= hi + 1e-6 * step:
        out.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_line_plot(
    xs: list[float],
    ys: list[float],
    title: str,
    xlabel: str,
    ylabel: str,
    logy: bool = False,
) -> str:
    """Render one series as a standalone SVG document string."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points")
    if logy:
        ys = [math.log10(max(abs(y), 1e-320)) for y in ys]
        ylabel = f"log10 {ylabel}"
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        raise ValueError("degenerate x-range")
    if y_hi == y_lo:
        pad = max(abs(y_hi), 1.0) * 0.1
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        # A padded span of at least five units of the labels' 6th digit:
        # no repeated labels, no rounding noise drawn as a curve.
        digit = 10.0 ** (math.floor(math.log10(max(abs(y_lo), abs(y_hi)))) - 5)
        pad = max(0.05 * (y_hi - y_lo), 2.5 * digit - 0.5 * (y_hi - y_lo))
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MARGIN_T + plot_h * (y_hi - y) / (y_hi - y_lo)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="22" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    axis_box = (
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(axis_box)

    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 20}" '
            f'text-anchor="middle" font-family="monospace" font-size="11">'
            f"{_fmt(tx)}</text>"
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" '
            f'y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{_fmt(ty)}</text>'
        )
    if y_lo < 0.0 < y_hi:
        zero_y = py(0.0)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{zero_y:.2f}" '
            f'x2="{_MARGIN_L + plot_w}" y2="{zero_y:.2f}" '
            f'stroke="#888888" stroke-dasharray="4,3"/>'
        )

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#0055aa" '
        f'stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 8}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">'
        f"{xlabel}</text>"
    )
    parts.append(
        f'<text x="14" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 14 {_MARGIN_T + plot_h // 2})">{ylabel}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
