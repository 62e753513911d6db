"""Tiny self-contained SVG line plots.

No fonts or libraries are referenced, so rerenders are byte-identical and
diffable as golden files.
"""

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 34, 46


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + step * 1e-9, step)


def render_line_plot(curves, title="", xlabel="", ylabel="", hlines=()):
    """Render labelled curves to an SVG string.

    curves: sequence of (label, x array, y array); hlines: (label, y) pairs
    drawn as dashed reference lines.
    """
    xs = np.concatenate(
        [np.asarray(c[1], dtype=float) for c in curves] + [np.zeros(0)]
    )
    ys = np.concatenate(
        [np.asarray(c[2], dtype=float) for c in curves] + [np.zeros(0)]
    )
    finite = np.isfinite(ys)
    x_lo, x_hi = (float(xs.min()), float(xs.max())) if xs.size else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_vals = np.concatenate([ys[finite], np.array([h for _, h in hlines], dtype=float)])
    y_lo, y_hi = (float(y_vals.min()), float(y_vals.max())) if y_vals.size else (0.0, 1.0)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle">{title}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{_H - _MB}" x2="{px(tx):.2f}" '
            f'y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{_H - _MB + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py(ty):.2f}" x2="{_ML}" y2="{py(ty):.2f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py(ty):.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" dominant-baseline="middle">{ty:.4g}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{_W / 2:.1f}" y="{_H - 10}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_H / 2:.1f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>'
    )
    for label, y in hlines:
        parts.append(
            f'<line x1="{_ML}" y1="{py(y):.2f}" x2="{_W - _MR}" y2="{py(y):.2f}" '
            f'stroke="#888888" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 4}" y="{py(y) - 4:.2f}" font-family="sans-serif" '
            f'font-size="10" text-anchor="end" fill="#555555">{label}</text>'
        )
    for idx, (label, cx, cy) in enumerate(curves):
        cx = np.asarray(cx, dtype=float)
        cy = np.asarray(cy, dtype=float)
        ok = np.isfinite(cy)
        xy = np.column_stack([px(cx[ok]), py(cy[ok])])
        pts = ("%.2f,%.2f " * len(xy) % tuple(xy.ravel().tolist()))[:-1]
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 15 * idx
        parts.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly}" x2="{_W - _MR - 96}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 90}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
