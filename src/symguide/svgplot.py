"""Minimal deterministic SVG emission for reports.

Hand-rolled on purpose: the bytes must be a pure function of the data
(golden-file testable), which rules out plotting libraries that embed
version metadata or generated ids.  Only polyline charts and text tables
are needed.
"""

from __future__ import annotations

import math

__all__ = ["line_plot_svg", "table_svg"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 160, 40, 55


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".6g")


def _text(attrs: str, body: object) -> str:
    """A <text> element with its body escaped: titles, labels and cells come from report data."""
    # What xml.sax.saxutils.escape does; importing that module also imports urllib.request.
    body = str(body).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<text {attrs}>{body}</text>"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def line_plot_svg(
    title: str,
    xlabel: str,
    ylabel: str,
    series: list[tuple[str, list[float], list[float]]],
) -> str:
    """One polyline per (label, xs, ys) series, with axes, ticks and legend."""
    if not series or all(len(xs) == 0 for _, xs, _ in series):
        raise ValueError("cannot plot an empty report: no series data")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return _MT + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        _text(f'x="{_W // 2}" y="22" text-anchor="middle" font-size="14"', title),
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{_fmt(px(tx))}" y1="{_MT + ph}" x2="{_fmt(px(tx))}" y2="{_MT + ph + 5}" stroke="black"/>'
        )
        parts.append(
            _text(f'x="{_fmt(px(tx))}" y="{_MT + ph + 18}" text-anchor="middle"', _fmt(tx))
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(py(ty))}" x2="{_ML}" y2="{_fmt(py(ty))}" stroke="black"/>'
        )
        parts.append(
            _text(f'x="{_ML - 8}" y="{_fmt(py(ty) + 4)}" text-anchor="end"', _fmt(ty))
        )
    parts.append(_text(f'x="{_ML + pw / 2:.0f}" y="{_H - 12}" text-anchor="middle"', xlabel))
    cy = f"{_MT + ph / 2:.0f}"
    parts.append(_text(f'x="18" y="{cy}" text-anchor="middle" transform="rotate(-90 18 {cy})"', ylabel))
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 14 + 18 * k
        parts.append(
            f'<line x1="{_W - _MR + 10}" y1="{ly - 4}" x2="{_W - _MR + 34}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(_text(f'x="{_W - _MR + 40}" y="{ly}"', label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def table_svg(title: str, columns: list[str], rows: list[list[str]]) -> str:
    """Fixed-pitch text table as a standalone SVG."""
    if not rows:
        raise ValueError("cannot render an empty report: no table rows")
    col_w = [max(len(str(c)), max(len(str(r[i])) for r in rows)) for i, c in enumerate(columns)]
    x_pos = [30]
    for w in col_w[:-1]:
        x_pos.append(x_pos[-1] + 10 + 8 * w)
    width = x_pos[-1] + 8 * col_w[-1] + 40
    height = 70 + 20 * len(rows)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="13">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _text('x="30" y="24" font-size="14"', title),
    ]
    for i, c in enumerate(columns):
        parts.append(_text(f'x="{x_pos[i]}" y="48" font-weight="bold"', c))
    parts.append(f'<line x1="25" y1="56" x2="{width - 25}" y2="56" stroke="black"/>')
    for j, row in enumerate(rows):
        y = 74 + 20 * j
        for i, cell in enumerate(row):
            parts.append(_text(f'x="{x_pos[i]}" y="{y}"', cell))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
