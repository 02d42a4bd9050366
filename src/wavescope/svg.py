"""Minimal deterministic SVG plotting.

Plots are written with fixed-precision coordinates, a fixed palette and
no timestamps or generator metadata, so the same data always produces the
same bytes.  That property is load-bearing: pipeline artifacts are hashed
and compared across runs.  Only line plots and heatmaps are provided;
anything fancier belongs in a real plotting package.

Each plot writes its file as it builds it, polyline points
``POINT_BLOCK`` at a time and heat-map cells one row at a time, so the
text in memory is O(block) whatever the document's size.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from itertools import compress
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .signal_core import HEATMAP_COLS, column_bins

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
    """Ticks of a linear axis, whose span _Axes keeps finite."""
    if hi <= lo:
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
        # On a span of a few ulps of its values, adding the step can leave
        # v where it is; the loop ends there rather than never.
        if v + step == v:
            break
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
    """Data-to-pixel mapping for one panel.

    A linear axis whose span hi - lo overflows to inf (or is NaN) has no
    pixel mapping and no ticks, so it is refused with ValidationError
    before any file is opened.
    """

    def __init__(self, xlim, ylim, xlog, ylog):
        for name, (lo, hi), log in (("x", xlim, xlog), ("y", ylim, ylog)):
            if not log and not math.isfinite(hi - lo):
                raise ValidationError(
                    f"the {name} axis from {lo:g} to {hi:g} spans more than a float holds"
                )
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
        # A byte mask, not a copy of the values it selects.
        ok = np.isfinite(a)
        if log:
            ok &= a > 0
        if ok.any():
            lo = min(lo, float(a.min(where=ok, initial=math.inf)))
            hi = max(hi, float(a.max(where=ok, initial=-math.inf)))
    if not math.isfinite(lo):
        raise ValidationError("no finite data to plot")
    if lo == hi:
        pad = abs(lo) * 0.05 or 1.0
        if log:
            return lo / 2.0, hi * 2.0
        return lo - pad, hi + pad
    if not log and math.isfinite(hi - lo):
        # A span that overflows is left unpadded, for _Axes to refuse by
        # the data's own ends.
        pad = (hi - lo) * 0.04
        return lo - pad, hi + pad
    return lo, hi


#: Polyline points that one ``%`` call formats and one write writes.
POINT_BLOCK = 2048


def _points(ax: _Axes, x: np.ndarray, y: np.ndarray) -> str:
    """The ``points`` text of (x, y), pairs separated by spaces."""
    xy = np.column_stack((ax.px(x), ax.py(y))).ravel().tolist()
    # One %-format call formats every coordinate as _fmt does.  Each has
    # exactly two decimals and the markup holds no "-0.00", so that text
    # only occurs as a whole coordinate.
    return (" ".join(["%.2f,%.2f"] * x.size) % tuple(xy)).replace("-0.00", "0.00")


def _write_polyline(fh, ax: _Axes, x: np.ndarray, y: np.ndarray, color: str, dashed: bool):
    """Write one ``<polyline>`` per run of drawable points, their text
    formatted ``POINT_BLOCK`` points at a time."""
    ok = np.isfinite(x) & np.isfinite(y)
    if ax.xlog:
        ok &= x > 0
    if ax.ylog:
        ok &= y > 0
    # A good point is drawn when a neighbour is good too: a run of one
    # point draws nothing.
    drawn = ok & (np.r_[False, ok[:-1]] | np.r_[ok[1:], False])
    bounds = np.flatnonzero(np.diff(drawn, prepend=False, append=False)).tolist()
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    head = f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} points="'
    for start, stop in zip(bounds[::2], bounds[1::2]):
        fh.write(head)
        for lo in range(start, stop, POINT_BLOCK):
            if lo > start:
                fh.write(" ")
            hi = min(lo + POINT_BLOCK, stop)
            fh.write(_points(ax, x[lo:hi], y[lo:hi]))
        fh.write('"/>\n')


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


@contextmanager
def _svg_file(path):
    """The open SVG file at ``path`` between the document head and its
    closing tag; each plot writes its elements as it builds them."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        )
        yield fh
        fh.write("</svg>\n")


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
    draws labeled vertical guides, ``bands`` shaded x-intervals.  The
    file is written as it is built, each run of points ``POINT_BLOCK``
    points at a time: O(points) time, and beyond the series as float
    arrays and a byte mask per point, O(POINT_BLOCK) memory.
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
    out = Path(path)
    with _svg_file(out) as fh:
        fh.write(_frame(ax, xlabel, ylabel, title, "white"))
        for x0, x1 in bands:
            ex0 = min(max(ax.px(x0), ax.x0), ax.x1)
            ex1 = min(max(ax.px(x1), ax.x0), ax.x1)
            if ex1 > ex0:
                fh.write(
                    f'<rect x="{_fmt(ex0)}" y="{_fmt(ax.y1)}" width="{_fmt(ex1 - ex0)}" '
                    f'height="{_fmt(ax.y0 - ax.y1)}" fill="#ffe8a0" fill-opacity="0.6"/>\n'
                )
        for i, (x, y, label, dashed) in enumerate(norm):
            _write_polyline(fh, ax, x, y, PALETTE[i % len(PALETTE)], dashed)
        for xv, text in vmarks:
            px = ax.px(xv)
            if ax.x0 <= px <= ax.x1:
                fh.write(
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
            fh.write(
                f'<line x1="{_fmt(ax.x1 - 120)}" y1="{_fmt(ly)}" x2="{_fmt(ax.x1 - 100)}" '
                f'y2="{_fmt(ly)}" stroke="{color}" stroke-width="2"/>\n'
                f'<text x="{_fmt(ax.x1 - 96)}" y="{_fmt(ly + 3)}" font-size="10">'
                f"{_escape(label)}</text>\n"
            )
            ly += 14
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
    z: np.ndarray,
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
    ylog: bool = False,
    overlay: tuple[np.ndarray, np.ndarray] | None = None,
) -> Path:
    """Write a heatmap of the cells z[row, col] over (y, x) axes.

    Only x is binned, down to ``HEATMAP_COLS`` block means
    (signal_core.column_bins); ``z`` holds one row of cells per y value,
    each row the column bins of its values, so it must be shaped (len(y),
    min(len(x), HEATMAP_COLS)) or ValidationError is raised.  ``overlay``
    draws one extra curve (x, y) on top, used for the edge-effect
    boundary.  With S rows and n x values this takes O(n + S HEATMAP_COLS)
    time.  The file is written as it is built, one row of cells and one
    block of overlay points at a time: O(n + S HEATMAP_COLS) memory for
    the arrays and O(HEATMAP_COLS + POINT_BLOCK) for the text.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    try:
        z = np.array(z, dtype=float)
        ok = x.ndim == 1 and z.shape == (y.size, min(x.size, HEATMAP_COLS))
    except ValueError:  # ragged rows
        ok = False
    if not ok:
        raise ValidationError("z must be shaped (len(y), min(len(x), HEATMAP_COLS))")
    xc = column_bins(x)
    zmin, zmax = float(np.nanmin(z)), float(np.nanmax(z))
    span = zmax - zmin if zmax > zmin else 1.0
    xlim = (float(x.min()), float(x.max()))
    ylim = (float(y.min()), float(y.max()))
    ax = _Axes(xlim, ylim, False, ylog)
    # cell edges: midpoints between centers, clamped at the limits
    def edges_of(centers, log):
        c = np.log(centers) if log else centers
        mid = np.concatenate([[c[0]], 0.5 * (c[1:] + c[:-1]), [c[-1]]])
        return np.exp(mid) if log else mid

    # Each column's x and width and each row's y and height are formatted
    # once, not once per cell; the colours of a row's finite cells at once.
    pxe = ax.px(edges_of(xc, False))
    xs = list(map(_fmt, pxe[:-1].tolist()))
    widths = list(map(_fmt, np.maximum(pxe[1:] - pxe[:-1], 0.1).tolist()))
    pye = ax.py(edges_of(y, ylog))
    tops = list(map(_fmt, np.minimum(pye[:-1], pye[1:]).tolist()))
    heights = list(map(_fmt, np.maximum(np.abs(pye[:-1] - pye[1:]), 0.1).tolist()))
    out = Path(path)
    with _svg_file(out) as fh:
        for top, hgt, row in zip(tops, heights, z):
            finite = np.isfinite(row)
            colors = _heat_colors((row[finite] - zmin) / span)
            cells = zip(compress(xs, finite), compress(widths, finite), colors)
            fh.write("".join(
                f'<rect x="{x0}" y="{top}" width="{wid}" height="{hgt}" fill="{c}"/>\n'
                for x0, wid, c in cells
            ))
        if overlay is not None:
            ox, oy = overlay
            _write_polyline(
                fh, ax, np.asarray(ox, float), np.asarray(oy, float), "#ffffff", True
            )
        fh.write(_frame(ax, xlabel, ylabel, title, "none"))
    return out
