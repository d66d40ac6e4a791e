"""Minimal deterministic SVG documents: complex-plane scatter plots with the
unit circle, and log-scale heatmaps. No raster or plotting dependencies and
no I/O; each function returns the document text, byte-stable across runs."""
from __future__ import annotations

import math

import numpy as np

_W, _H = 480, 480
_MARGIN = 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _marker(shape: str, x: float, y: float, color: str) -> str:
    s = 5.0
    if shape == "circle":
        return (f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(s)}" fill="none" '
                f'stroke="{color}" stroke-width="1.6"/>')
    if shape == "cross":
        return (f'<path d="M {_fmt(x-s)} {_fmt(y-s)} L {_fmt(x+s)} {_fmt(y+s)} '
                f'M {_fmt(x-s)} {_fmt(y+s)} L {_fmt(x+s)} {_fmt(y-s)}" '
                f'stroke="{color}" stroke-width="1.6" fill="none"/>')
    return (f'<rect x="{_fmt(x-s)}" y="{_fmt(y-s)}" width="{_fmt(2*s)}" '
            f'height="{_fmt(2*s)}" fill="none" stroke="{color}" stroke-width="1.6"/>')


_SHAPES = ["circle", "cross", "square", "circle"]


def _title(title: str) -> list:
    return [f'<text x="{_fmt(_W / 2)}" y="28" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'] if title else []


def _document(width: int, parts: list) -> str:
    """Header, white background, then `parts` one a line, then the end tag."""
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{_H}" '
            f'viewBox="0 0 {width} {_H}">',
            f'<rect width="{width}" height="{_H}" fill="white"/>']
    return "\n".join(head + parts + ["</svg>"]) + "\n"


def spectra_scatter_svg(series, title: str = "") -> str:
    """An overlay scatter of eigenvalue sets on the complex plane.

    `series` is a list of (label, iterable of complex) pairs; each set gets
    its own marker shape and colour. The unit circle and the axes are drawn
    for reference.
    """
    allpts = np.concatenate([np.asarray(vals, dtype=complex).ravel()
                             for _, vals in series]) if series else np.empty(0, complex)
    lim = 1.15
    if allpts.size:
        lim = max(lim, float(np.max(np.abs(allpts.real))) * 1.15,
                  float(np.max(np.abs(allpts.imag))) * 1.15)
    half = (_W - 2 * _MARGIN) / 2
    cx, cy = _W / 2, _H / 2

    def to_px(z):
        return cx + z.real / lim * half, cy - z.imag / lim * half

    parts = [f'<line x1="{_MARGIN}" y1="{_fmt(cy)}" x2="{_W-_MARGIN}" y2="{_fmt(cy)}" '
             f'stroke="#999" stroke-width="1"/>',
             f'<line x1="{_fmt(cx)}" y1="{_MARGIN}" x2="{_fmt(cx)}" y2="{_H-_MARGIN}" '
             f'stroke="#999" stroke-width="1"/>',
             f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(half/lim)}" fill="none" '
             f'stroke="#bbb" stroke-width="1" stroke-dasharray="4 3"/>']
    parts += _title(title)
    parts.append(f'<text x="{_W-_MARGIN+4}" y="{_fmt(cy+4)}" font-family="sans-serif" '
                 f'font-size="11" fill="#555">Re</text>')
    parts.append(f'<text x="{_fmt(cx+6)}" y="{_MARGIN-6}" font-family="sans-serif" '
                 f'font-size="11" fill="#555">Im</text>')
    for idx, (label, vals) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        shape = _SHAPES[idx % len(_SHAPES)]
        for z in np.asarray(vals, dtype=complex).ravel():
            x, y = to_px(z)
            parts.append(_marker(shape, x, y, color))
        ly = _H - 24 + idx * 14 - (len(series) - 1) * 14
        parts.append(_marker(shape, _MARGIN + 6, ly - 4, color))
        parts.append(f'<text x="{_MARGIN + 18}" y="{_fmt(ly)}" font-family="sans-serif" '
                     f'font-size="12" fill="#333">{label}</text>')
    return _document(_W, parts)


def _ramp(t: float) -> str:
    """Blue -> yellow -> red colour ramp on [0, 1]."""
    t = min(1.0, max(0.0, t))
    if t < 0.5:
        u = t / 0.5
        r, g, b = int(30 + u * (250 - 30)), int(60 + u * (220 - 60)), int(150 - u * 100)
    else:
        u = (t - 0.5) / 0.5
        r, g, b = 250, int(220 - u * 170), int(50 - u * 10)
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap_svg(field, axis1, axis2, title: str = "") -> str:
    """A log10-scaled heatmap of a distance field. axis1 runs along the
    vertical image axis (rows), axis2 along the horizontal."""
    F = np.asarray(field, dtype=float)
    finite = F[np.isfinite(F)]
    positive = finite[finite > 0]
    lo = math.log10(positive.min()) if positive.size else -16.0
    hi = math.log10(positive.max()) if positive.size else 0.0
    if hi - lo < 1e-9:
        hi = lo + 1.0
    n1, n2 = F.shape
    plot_w, plot_h = _W - 2 * _MARGIN, _H - 2 * _MARGIN
    cw, ch = plot_w / n2, plot_h / n1
    parts = _title(title)
    for i in range(n1):
        for j in range(n2):
            v = F[i, j]
            if not np.isfinite(v):
                color = "#ffffff"
            elif v <= 0:
                color = _ramp(0.0)
            else:
                color = _ramp((math.log10(v) - lo) / (hi - lo))
            x = _MARGIN + j * cw
            y = _H - _MARGIN - (i + 1) * ch
            parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cw + 0.5)}" '
                         f'height="{_fmt(ch + 0.5)}" fill="{color}"/>')
    # colourbar
    for k in range(60):
        t = k / 59.0
        y = _H - _MARGIN - (t * plot_h) - plot_h / 60
        parts.append(f'<rect x="{_W + 10}" y="{_fmt(y)}" width="18" '
                     f'height="{_fmt(plot_h/60 + 0.5)}" fill="{_ramp(t)}"/>')
    parts.append(f'<text x="{_W + 32}" y="{_fmt(_H - _MARGIN)}" font-family="sans-serif" '
                 f'font-size="10">1e{lo:.1f}</text>')
    parts.append(f'<text x="{_W + 32}" y="{_fmt(_MARGIN + 10)}" font-family="sans-serif" '
                 f'font-size="10">1e{hi:.1f}</text>')
    lab = (f'<text x="{_fmt(_MARGIN)}" y="{_H - 12}" font-family="sans-serif" '
           f'font-size="11" fill="#333">axes: [{_fmt(axis2[0])}, {_fmt(axis2[-1])}] x '
           f'[{_fmt(axis1[0])}, {_fmt(axis1[-1])}]</text>')
    parts.append(lab)
    return _document(_W + 70, parts)
