"""Minimal deterministic SVG plotting.

Plots are written with fixed-precision coordinates, a fixed palette and
no timestamps or generator metadata, so the same data always produces the
same bytes.  That property is load-bearing: pipeline artifacts are hashed
and compared across runs.  Only line plots and heatmaps are provided;
anything fancier belongs in a real plotting package.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .signal_core import column_bins

__all__ = ["line_plot", "heatmap"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

#: Canvas size in pixels of every plot.
WIDTH = 720
HEIGHT = 420
_MARGIN_L = 64.0
_MARGIN_R = 14.0
_MARGIN_T = 30.0
_MARGIN_B = 46.0


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, the bytes of
    ``xml.sax.saxutils.escape``; that module pulls ``urllib.request`` and
    ``email`` into ``import wavescope``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    first = math.ceil(math.log10(lo) - 1e-9)
    last = math.floor(math.log10(hi) + 1e-9)
    ticks = [10.0**e for e in range(first, last + 1)]
    return ticks if ticks else [lo, hi]


def _tick_label(v: float) -> str:
    if v != 0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        return f"{v:.0e}"
    return f"{v:g}"


class _Axes:
    """Data-to-pixel mapping for one panel."""

    def __init__(self, xlim, ylim, xlog, ylog):
        self.x0, self.x1 = _MARGIN_L, WIDTH - _MARGIN_R
        self.y0, self.y1 = HEIGHT - _MARGIN_B, _MARGIN_T
        self.xlim, self.ylim = xlim, ylim
        self.xlog, self.ylog = xlog, ylog

    def _scale(self, v, lim, log, p0, p1):
        """Pixel coordinate of a float, or of each value of a float array.

        Logs go through ``math.log10``: ``np.log10`` differs from it in the
        last bit for some values, and the pixels must not depend on whether
        a value came alone or in an array.
        """
        lo, hi = lim
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
            if isinstance(v, np.ndarray):
                v = np.fromiter(map(math.log10, v.tolist()), float, v.size)
            else:
                v = math.log10(v)
        if hi == lo:
            mid = 0.5 * (p0 + p1)
            return np.full_like(v, mid) if isinstance(v, np.ndarray) else mid
        return p0 + (v - lo) / (hi - lo) * (p1 - p0)

    def px(self, v):
        return self._scale(v, self.xlim, self.xlog, self.x0, self.x1)

    def py(self, v):
        return self._scale(v, self.ylim, self.ylog, self.y0, self.y1)


def _limits(arrays: list[np.ndarray], log: bool) -> tuple[float, float]:
    lo = math.inf
    hi = -math.inf
    for a in arrays:
        vals = a[np.isfinite(a)]
        if log:
            vals = vals[vals > 0]
        if vals.size:
            lo = min(lo, float(vals.min()))
            hi = max(hi, float(vals.max()))
    if not math.isfinite(lo):
        raise ValidationError("no finite data to plot")
    if lo == hi:
        pad = abs(lo) * 0.05 or 1.0
        if log:
            return lo / 2.0, hi * 2.0
        return lo - pad, hi + pad
    if not log:
        pad = (hi - lo) * 0.04
        return lo - pad, hi + pad
    return lo, hi


def _polyline(ax: _Axes, x: np.ndarray, y: np.ndarray, color: str, dashed: bool):
    ok = np.isfinite(x) & np.isfinite(y)
    if ax.xlog:
        ok &= x > 0
    if ax.ylog:
        ok &= y > 0
    # A good point is drawn when a neighbour is good too: a run of one
    # point draws nothing.
    drawn = ok & (np.r_[False, ok[:-1]] | np.r_[ok[1:], False])
    bounds = np.flatnonzero(np.diff(drawn, prepend=False, append=False))
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    head = f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} points="'
    template = "".join(
        head + " ".join(["%.2f,%.2f"] * size) + '"/>\n'
        for size in (bounds[1::2] - bounds[::2]).tolist()
    )
    # One %-format call formats every coordinate as _fmt does.  Each has
    # exactly two decimals and the markup holds no "-0.00", so that text
    # only occurs as a whole coordinate.
    xy = np.column_stack((ax.px(x[drawn]), ax.py(y[drawn]))).ravel().tolist()
    return (template % tuple(xy)).replace("-0.00", "0.00")


def _frame(ax: _Axes, xlabel, ylabel, title, fill):
    """Panel border, ticks and labels; ``fill`` paints the panel."""
    out = []
    out.append(
        f'<rect x="{_fmt(ax.x0)}" y="{_fmt(ax.y1)}" width="{_fmt(ax.x1 - ax.x0)}" '
        f'height="{_fmt(ax.y0 - ax.y1)}" fill="{fill}" stroke="#444444"/>\n'
    )
    xticks = _log_ticks(*ax.xlim) if ax.xlog else _nice_ticks(*ax.xlim)
    yticks = _log_ticks(*ax.ylim) if ax.ylog else _nice_ticks(*ax.ylim)
    for t in xticks:
        px = ax.px(t)
        if not ax.x0 - 0.5 <= px <= ax.x1 + 0.5:
            continue
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(ax.y0)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(ax.y0 + 4)}" stroke="#444444"/>\n'
            f'<text x="{_fmt(px)}" y="{_fmt(ax.y0 + 16)}" font-size="10" '
            f'text-anchor="middle">{_escape(_tick_label(t))}</text>\n'
        )
    for t in yticks:
        py = ax.py(t)
        if not ax.y1 - 0.5 <= py <= ax.y0 + 0.5:
            continue
        out.append(
            f'<line x1="{_fmt(ax.x0 - 4)}" y1="{_fmt(py)}" x2="{_fmt(ax.x0)}" '
            f'y2="{_fmt(py)}" stroke="#444444"/>\n'
            f'<text x="{_fmt(ax.x0 - 6)}" y="{_fmt(py + 3)}" font-size="10" '
            f'text-anchor="end">{_escape(_tick_label(t))}</text>\n'
        )
    cx = 0.5 * (ax.x0 + ax.x1)
    out.append(
        f'<text x="{_fmt(cx)}" y="{_fmt(ax.y0 + 34)}" font-size="11" '
        f'text-anchor="middle">{_escape(xlabel)}</text>\n'
    )
    cy = 0.5 * (ax.y0 + ax.y1)
    out.append(
        f'<text x="14" y="{_fmt(cy)}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt(cy)})">{_escape(ylabel)}</text>\n'
    )
    if title:
        out.append(
            f'<text x="{_fmt(cx)}" y="18" font-size="12" font-weight="bold" '
            f'text-anchor="middle">{_escape(title)}</text>\n'
        )
    return "".join(out)


def _document(body: str) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        + body
        + "</svg>\n"
    )


def line_plot(
    path: str | Path,
    series: Sequence[tuple],
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
    xlog: bool = False,
    ylog: bool = False,
    vmarks: Sequence[tuple[float, str]] = (),
    bands: Sequence[tuple[float, float]] = (),
) -> Path:
    """Write a multi-series line plot.

    Each series is (x, y, label) or (x, y, label, dashed).  ``vmarks``
    draws labeled vertical guides, ``bands`` shaded x-intervals.  Points
    are mapped and formatted in bulk: O(points) time and memory.
    """
    if not series:
        raise ValidationError("need at least one series")
    norm = []
    for item in series:
        x, y, label = item[0], item[1], item[2]
        dashed = bool(item[3]) if len(item) > 3 else False
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            raise ValidationError(f"series {label!r}: x and y lengths differ")
        norm.append((x, y, label, dashed))
    xlim = _limits([s[0] for s in norm], xlog)
    ylim = _limits([s[1] for s in norm], ylog)
    ax = _Axes(xlim, ylim, xlog, ylog)
    body = [_frame(ax, xlabel, ylabel, title, "white")]
    for x0, x1 in bands:
        ex0 = min(max(ax.px(x0), ax.x0), ax.x1)
        ex1 = min(max(ax.px(x1), ax.x0), ax.x1)
        if ex1 > ex0:
            body.append(
                f'<rect x="{_fmt(ex0)}" y="{_fmt(ax.y1)}" width="{_fmt(ex1 - ex0)}" '
                f'height="{_fmt(ax.y0 - ax.y1)}" fill="#ffe8a0" fill-opacity="0.6"/>\n'
            )
    for i, (x, y, label, dashed) in enumerate(norm):
        body.append(_polyline(ax, x, y, PALETTE[i % len(PALETTE)], dashed))
    for xv, text in vmarks:
        px = ax.px(xv)
        if ax.x0 <= px <= ax.x1:
            body.append(
                f'<line x1="{_fmt(px)}" y1="{_fmt(ax.y1)}" x2="{_fmt(px)}" '
                f'y2="{_fmt(ax.y0)}" stroke="#888888" stroke-dasharray="3,3"/>\n'
                f'<text x="{_fmt(px + 3)}" y="{_fmt(ax.y1 + 12)}" font-size="10" '
                f'fill="#555555">{_escape(text)}</text>\n'
            )
    ly = _MARGIN_T + 6
    for i, (_, _, label, _) in enumerate(norm):
        if not label:
            continue
        color = PALETTE[i % len(PALETTE)]
        body.append(
            f'<line x1="{_fmt(ax.x1 - 120)}" y1="{_fmt(ly)}" x2="{_fmt(ax.x1 - 100)}" '
            f'y2="{_fmt(ly)}" stroke="{color}" stroke-width="2"/>\n'
            f'<text x="{_fmt(ax.x1 - 96)}" y="{_fmt(ly + 3)}" font-size="10">'
            f"{_escape(label)}</text>\n"
        )
        ly += 14
    out = Path(path)
    out.write_text(_document("".join(body)), encoding="utf-8")
    return out


_HEAT_ANCHORS = np.array(
    [
        (13, 8, 135),
        (84, 2, 163),
        (185, 50, 137),
        (251, 135, 97),
        (252, 253, 191),
    ],
    dtype=float,
)


def _heat_colors(u: np.ndarray) -> list[str]:
    """Colour of each value of ``u``, clamped to [0, 1], as ``#rrggbb``.

    Channels are interpolated linearly between the anchors and rounded
    half to even (``np.rint``, as Python's ``round``).
    """
    pos = np.clip(u, 0.0, 1.0) * (len(_HEAT_ANCHORS) - 1)
    i = np.minimum(pos.astype(int), len(_HEAT_ANCHORS) - 2)
    frac = (pos - i)[:, None]
    a, b = _HEAT_ANCHORS[i], _HEAT_ANCHORS[i + 1]
    rgb = np.rint(a + frac * (b - a)).astype(int)
    return ["#%02x%02x%02x" % tuple(c) for c in rgb.tolist()]


def heatmap(
    path: str | Path,
    x: np.ndarray,
    y: np.ndarray,
    z,
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
    ylog: bool = False,
    overlay: tuple[np.ndarray, np.ndarray] | None = None,
) -> Path:
    """Write a column-binned heatmap of z[row, col] over (y, x) axes.

    ``z`` is a 2-D array or any iterable of its rows, one per y value.
    Columns are block-averaged down to ``HEATMAP_COLS`` so file size stays
    bounded; each row is binned as it arrives (a row may also be given as
    its block means, see signal_core.column_bins).  ``overlay`` draws one
    extra curve (x, y) on top, used for the edge-effect boundary.  With S rows and n
    columns, binning takes O(S n) time and the cells O(S HEATMAP_COLS)
    time; memory is O(n + S HEATMAP_COLS).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = column_bins([x], x.size)[0]
    z = column_bins(z, x.size)
    if z.shape[0] != y.size:
        raise ValidationError("z must be shaped (len(y), len(x))")
    zmin, zmax = float(np.nanmin(z)), float(np.nanmax(z))
    span = zmax - zmin if zmax > zmin else 1.0
    xlim = (float(x.min()), float(x.max()))
    ylim = (float(y.min()), float(y.max()))
    ax = _Axes(xlim, ylim, False, ylog)
    body = []
    # cell edges: midpoints between centers, clamped at the limits
    def edges_of(centers, log):
        if log:
            c = np.log(centers)
            mid = np.concatenate([[c[0]], 0.5 * (c[1:] + c[:-1]), [c[-1]]])
            return np.exp(mid)
        return np.concatenate(
            [[centers[0]], 0.5 * (centers[1:] + centers[:-1]), [centers[-1]]]
        )

    # Each column's x and width and each row's y and height are formatted
    # once, not once per cell; the colours of all finite cells at once.
    pxe = ax.px(edges_of(xc, False))
    xs = list(map(_fmt, pxe[:-1].tolist()))
    widths = list(map(_fmt, np.maximum(pxe[1:] - pxe[:-1], 0.1).tolist()))
    pye = ax.py(edges_of(y, ylog))
    tops = list(map(_fmt, np.minimum(pye[:-1], pye[1:]).tolist()))
    heights = list(map(_fmt, np.maximum(np.abs(pye[:-1] - pye[1:]), 0.1).tolist()))
    finite = np.isfinite(z)
    colors = iter(_heat_colors((z[finite] - zmin) / span))
    for top, hgt, row_finite in zip(tops, heights, finite.tolist()):
        for x0, wid, ok in zip(xs, widths, row_finite):
            if ok:
                body.append(
                    f'<rect x="{x0}" y="{top}" width="{wid}" height="{hgt}" '
                    f'fill="{next(colors)}"/>\n'
                )
    if overlay is not None:
        ox, oy = overlay
        body.append(
            _polyline(ax, np.asarray(ox, float), np.asarray(oy, float), "#ffffff", True)
        )
    body.append(_frame(ax, xlabel, ylabel, title, "none"))
    out = Path(path)
    out.write_text(_document("".join(body)), encoding="utf-8")
    return out
