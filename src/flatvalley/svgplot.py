"""Tiny deterministic SVG line plots (no plotting dependency).

Desk-scale figures with reproducible bytes: fixed palette, fixed float
formatting, no timestamps.
"""
from __future__ import annotations

import math

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f"]
#: every figure's size in pixels
WIDTH, HEIGHT = 720, 480


def escape(text: str) -> str:
    """Escape &, > and < for XML text, in the order xml.sax.saxutils does
    (importing that module pulls urllib, http.client and ssl into the
    package import)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _nice_step(span: float) -> float:
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    frac = raw / mag
    if frac < 1.5:
        nice = 1.0
    elif frac < 3.5:
        nice = 2.0
    elif frac < 7.5:
        nice = 5.0
    else:
        nice = 10.0
    return nice * mag


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_d, hi_d = math.floor(lo), math.ceil(hi)
        vals = list(range(int(lo_d), int(hi_d) + 1))
        return [(float(v), f"1e{v}") for v in vals if lo - 1e-9 <= v <= hi + 1e-9] or \
               [(lo, f"{10**lo:.3g}"), (hi, f"{10**hi:.3g}")]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    out = []
    v = first
    while v <= hi + 1e-9 * max(1.0, abs(hi)):
        out.append((v, f"{v:.6g}"))
        v += step
    return out


def line_plot(path, series, title="", xlabel="", ylabel="", logx=False, logy=False):
    """Write a line plot to ``path``.

    ``series`` is a list of dicts with keys ``x``, ``y`` and optional
    ``label``, ``color``, ``marker``.  Nonpositive values are dropped on
    log axes.
    """
    margin_l, margin_r, margin_t, margin_b = 64, 16, 36, 46
    plot_w = WIDTH - margin_l - margin_r
    plot_h = HEIGHT - margin_t - margin_b

    cooked = []
    for i, s in enumerate(series):
        xs = np.asarray(s["x"], dtype=float).ravel()
        ys = np.asarray(s["y"], dtype=float).ravel()
        keep = np.isfinite(xs) & np.isfinite(ys)
        if logx:
            keep &= xs > 0
        if logy:
            keep &= ys > 0
        xs, ys = xs[keep], ys[keep]
        if logx:
            xs = np.log10(xs)
        if logy:
            ys = np.log10(ys)
        cooked.append({
            "x": xs, "y": ys,
            "label": s.get("label", ""),
            "color": s.get("color", PALETTE[i % len(PALETTE)]),
            "marker": s.get("marker", False),
        })

    xs_all = np.concatenate([c["x"] for c in cooked if c["x"].size] or [np.array([0.0, 1.0])])
    ys_all = np.concatenate([c["y"] for c in cooked if c["y"].size] or [np.array([0.0, 1.0])])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi - x_lo < 1e-12:
        pad = max(1e-6, abs(x_lo) * 0.1, 0.5)
        x_lo, x_hi = x_lo - pad, x_hi + pad
    if y_hi - y_lo < 1e-12:
        pad = max(1e-6, abs(y_lo) * 0.1, 0.5)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    x_pad = 0.03 * (x_hi - x_lo)
    y_pad = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(v):
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return margin_t + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    def pairs(template, c):  # the template filled with each point's pixel coordinates
        xy = np.column_stack([px(c["x"]), py(c["y"])])
        return (template * len(xy)) % tuple(xy.ravel().tolist())

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for v, lab in _ticks(x_lo + x_pad, x_hi - x_pad, logx):
        X = px(v)
        parts.append(f'<line x1="{X:.2f}" y1="{margin_t}" x2="{X:.2f}" '
                     f'y2="{margin_t + plot_h}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{X:.2f}" y="{margin_t + plot_h + 16}" font-size="11" '
                     f'font-family="monospace" text-anchor="middle">{escape(lab)}</text>')
    for v, lab in _ticks(y_lo + y_pad, y_hi - y_pad, logy):
        Y = py(v)
        parts.append(f'<line x1="{margin_l}" y1="{Y:.2f}" x2="{margin_l + plot_w}" '
                     f'y2="{Y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{margin_l - 6}" y="{Y + 4:.2f}" font-size="11" '
                     f'font-family="monospace" text-anchor="end">{escape(lab)}</text>')
    for c in cooked:
        if not c["x"].size:
            continue
        pts = pairs("%.2f,%.2f ", c)[:-1]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{c["color"]}" '
                     'stroke-width="1.5"/>')
        if c["marker"]:
            color = c["color"].replace("%", "%%")
            parts.append(pairs(f'<circle cx="%.2f" cy="%.2f" r="2.5" fill="{color}"/>\n',
                               c)[:-1])
    if title:
        parts.append(f'<text x="{WIDTH / 2:.1f}" y="22" font-size="14" '
                     f'font-family="monospace" text-anchor="middle">{escape(title)}</text>')
    if xlabel:
        parts.append(f'<text x="{margin_l + plot_w / 2:.1f}" y="{HEIGHT - 10}" font-size="12" '
                     f'font-family="monospace" text-anchor="middle">{escape(xlabel)}</text>')
    if ylabel:
        parts.append(f'<text x="14" y="{margin_t + plot_h / 2:.1f}" font-size="12" '
                     f'font-family="monospace" text-anchor="middle" '
                     f'transform="rotate(-90 14 {margin_t + plot_h / 2:.1f})">{escape(ylabel)}</text>')
    labeled = [c for c in cooked if c["label"]]
    if labeled:
        lx = margin_l + plot_w - 150
        ly = margin_t + 10
        parts.append(f'<rect x="{lx - 6}" y="{ly - 4}" width="150" '
                     f'height="{16 * len(labeled) + 6}" fill="#ffffff" fill-opacity="0.85" '
                     'stroke="#999999" stroke-width="0.5"/>')
        for i, c in enumerate(labeled):
            Y = ly + 16 * i + 8
            parts.append(f'<line x1="{lx}" y1="{Y - 4}" x2="{lx + 22}" y2="{Y - 4}" '
                         f'stroke="{c["color"]}" stroke-width="2"/>')
            parts.append(f'<text x="{lx + 28}" y="{Y}" font-size="11" '
                         f'font-family="monospace">{escape(c["label"])}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
