import io
import math
import re
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest

from wavescope import ValidationError, svg
from wavescope.signal_core import HEATMAP_COLS, column_bins
from wavescope.svg import heatmap, line_plot


def _tone_data(n=300):
    x = np.linspace(0.0, 3.0, n)
    return x, np.sin(2 * np.pi * x)


def test_line_plot_bytes_are_reproducible(tmp_path):
    x, y = _tone_data()
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    line_plot(a, [(x, y, "tone")], xlabel="t", ylabel="x")
    line_plot(b, [(x, y, "tone")], xlabel="t", ylabel="x")
    assert a.read_bytes() == b.read_bytes()


def test_line_plot_is_valid_xml_without_metadata(tmp_path):
    x, y = _tone_data()
    p = line_plot(tmp_path / "p.svg", [(x, y, "tone")], title="demo")
    root = ET.parse(p).getroot()
    assert root.tag.endswith("svg")
    text = p.read_text().lower()
    for stamp in ("date", "creator", "generated"):
        assert stamp not in text
    assert not re.search(r"\d{4}-\d{2}-\d{2}", text)


def test_line_plot_log_axes_and_guides(tmp_path):
    f = np.logspace(0, 3, 200)
    p = line_plot(
        tmp_path / "loglog.svg",
        [(f, f**-2.0, "spectrum"), (f, 0.5 * f**-2.0, "guide", True)],
        xlog=True,
        ylog=True,
        vmarks=[(50.0, "cutoff")],
        bands=[(10.0, 100.0)],
    )
    text = p.read_text()
    assert "stroke-dasharray" in text  # dashed guide and vmark
    assert "cutoff" in text
    assert "<rect" in text  # shaded band


@pytest.mark.parametrize(
    "text", ["", "plain", "a & b", "<tag>", "&amp; &lt;", "x<y>z&&", "h(q) for q ≥ 0"]
)
def test_escape_writes_the_bytes_of_saxutils(text):
    assert svg._escape(text) == escape(text)


def test_line_plot_rejects_bad_input(tmp_path):
    with pytest.raises(ValidationError):
        line_plot(tmp_path / "x.svg", [])
    with pytest.raises(ValidationError):
        line_plot(tmp_path / "y.svg", [(np.arange(4.0), np.arange(5.0), "bad")])


#: Child set-up that caps the address space at 256 MiB above what the
#: imports mapped, so a tick loop that never ends raises MemoryError in
#: the child instead of filling the host's memory.
_CAPPED = """\
import resource
from wavescope import svg
with open("/proc/self/statm") as statm:
    mapped = int(statm.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (mapped + 2**28, mapped + 2**28))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
def test_ticks_end_on_a_span_of_a_few_ulps(fresh_python, tmp_path):
    # Around 1e16 the ulp is 2, so the 0.5 step of a span of 2 adds
    # nothing: the ticks stop at the first one.
    path = tmp_path / "flat.svg"
    code = (
        "print(svg._nice_ticks(1e16, 1e16 + 2))\n"
        f"svg.line_plot({str(path)!r}, [([0.0, 1.0], [1e16, 1e16 + 2], 'flat')])\n"
    )
    assert fresh_python(code, _CAPPED).stdout == "[1e+16]\n"
    assert path.read_text().count(">1e+16</text>") == 1


@pytest.mark.parametrize("top", [8.9e307, 1.7e308])
def test_an_axis_span_that_overflows_is_refused_before_the_file(tmp_path, top):
    # The 4 % padding takes [-8.9e307, 8.9e307] to +-9.6e307, whose span
    # overflows: the ticks raised OverflowError.  The span of
    # [-1.7e308, 1.7e308] overflows before padding, and the file held nan
    # coordinates; such a span is not padded, so the message names the
    # data's ends, not -inf and inf.
    path = tmp_path / "wide.svg"
    with pytest.raises(ValidationError, match="y axis .* spans more than a float holds") as err:
        line_plot(path, [([0.0, 1.0], [-top, top], "wide")])
    assert "inf" not in str(err.value)
    if top == 1.7e308:
        assert "from -1.7e+308 to 1.7e+308" in str(err.value)
    with pytest.raises(ValidationError, match="x axis"):
        line_plot(path, [([-top, top], [0.0, 1.0], "wide")])
    assert not path.exists()


def test_a_heatmap_axis_span_that_overflows_is_refused_before_the_file(tmp_path):
    # The heat map's limits are its data's own, with no padding.
    path = tmp_path / "wide.svg"
    with pytest.raises(ValidationError, match="y axis"):
        heatmap(path, np.array([0.0, 1.0]), np.array([-1.7e308, 1.7e308]), np.zeros((2, 2)))
    assert not path.exists()


def test_heatmap_caps_columns(tmp_path):
    x = np.arange(1000, dtype=float)
    y = np.arange(20, dtype=float)
    z = np.random.default_rng(0).random((20, 1000))
    p = heatmap(tmp_path / "h.svg", x, y, _block_means(z))
    text = p.read_text()
    # one <rect> per retained cell plus a handful of chrome rects
    n_rects = text.count("<rect")
    assert n_rects <= HEATMAP_COLS * 20 + 10
    ET.parse(p)  # well formed


def test_heatmap_title_keeps_its_text(tmp_path):
    # Only the panel rect is unfilled; a label that reads like its
    # attributes is written as given.
    x, y, z = np.arange(5.0), np.arange(3.0), np.ones((3, 5))
    title = 'fill="white" stroke="#444444"'
    text = heatmap(tmp_path / "h.svg", x, y, z, title=title).read_text()
    assert f">{title}</text>" in text
    assert text.count('fill="none" stroke="#444444"') == 1


def test_heatmap_overlay_and_repeatability(tmp_path):
    x = np.linspace(0, 1, 80)
    y = np.linspace(1, 10, 12)
    z = np.outer(y, np.sin(2 * np.pi * x)) ** 2
    curve = (x, 1.0 + 8.0 * x * (1 - x))
    a = heatmap(tmp_path / "a.svg", x, y, z, overlay=curve, ylog=True)
    b = heatmap(tmp_path / "b.svg", x, y, z, overlay=curve, ylog=True)
    assert a.read_bytes() == b.read_bytes()
    assert "polyline" in a.read_text()


# ------------------------------------------------------------ byte oracle
#
# The per-point loops that the bulk geometry replaced, kept as the
# reference: every file must come out byte for byte the same.


def _polyline_reference(ax, x, y, color, dashed):
    ok = np.isfinite(x) & np.isfinite(y)
    if ax.xlog:
        ok &= x > 0
    if ax.ylog:
        ok &= y > 0
    parts = []
    run = []
    for xi, yi, good in zip(x, y, ok):
        if good:
            run.append(f"{svg._fmt(ax.px(float(xi)))},{svg._fmt(ax.py(float(yi)))}")
        elif run:
            parts.append(run)
            run = []
    if run:
        parts.append(run)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return "".join(
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
        f'points="{" ".join(p)}"/>\n'
        for p in parts
        if len(p) > 1
    )


_ANCHORS = ((13, 8, 135), (84, 2, 163), (185, 50, 137), (251, 135, 97), (252, 253, 191))


def _heat_color_reference(u):
    u = min(max(u, 0.0), 1.0)
    pos = u * (len(_ANCHORS) - 1)
    i = min(int(pos), len(_ANCHORS) - 2)
    frac = pos - i
    a, b = _ANCHORS[i], _ANCHORS[i + 1]
    r = round(a[0] + frac * (b[0] - a[0]))
    g = round(a[1] + frac * (b[1] - a[1]))
    bl = round(a[2] + frac * (b[2] - a[2]))
    return f"#{r:02x}{g:02x}{bl:02x}"


def test_heat_colors_match_the_per_cell_function():
    assert svg._HEAT_ANCHORS.tolist() == [list(a) for a in _ANCHORS]
    # Below 0, exactly 0 and 1, above 1, every anchor boundary and its
    # neighbouring doubles, and values whose channels land on .5.
    bounds = [k / 4 for k in range(5)]
    u = [-1.0, -1e-300, -0.0, 0.0, 1.0, 1.5, 2.0, math.inf, -math.inf]
    u += [v for b in bounds for v in (math.nextafter(b, -1), b, math.nextafter(b, 2))]
    halves = [(k + 0.5) / 71.0 / 4.0 for k in range(71)]  # 84 - 13 = 71 steps
    u += halves + list(np.random.default_rng(3).uniform(-0.2, 1.2, 5000))
    got = svg._heat_colors(np.array(u))
    assert got == [_heat_color_reference(float(v)) for v in u]


def _block_means(z):
    """The columns of each row of ``z`` averaged in HEATMAP_COLS blocks,
    or ``z`` itself when it is no wider."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    ncol = z.shape[1]
    if ncol <= HEATMAP_COLS:
        return z
    edges = np.linspace(0, ncol, HEATMAP_COLS + 1).astype(int)
    return np.stack([z[:, a:b].mean(axis=1) for a, b in zip(edges[:-1], edges[1:])], axis=1)


def _heatmap_reference(path, x, y, z, ylog=False, overlay=None):
    x, y = (np.asarray(a, dtype=float) for a in (x, y))
    z = _block_means(z)
    xc = _block_means(x)[0]
    zmin, zmax = float(np.nanmin(z)), float(np.nanmax(z))
    span = zmax - zmin if zmax > zmin else 1.0
    xlim, ylim = (float(x.min()), float(x.max())), (float(y.min()), float(y.max()))
    ax = svg._Axes(xlim, ylim, False, ylog)

    def edges_of(centers, log):
        c = np.log(centers) if log else centers
        mid = np.concatenate([[c[0]], 0.5 * (c[1:] + c[:-1]), [c[-1]]])
        return np.exp(mid) if log else mid

    xe, ye = edges_of(xc, False), edges_of(y, ylog)
    body = []
    for i in range(y.size):
        py0, py1 = ax.py(float(ye[i])), ax.py(float(ye[i + 1]))
        top, hgt = min(py0, py1), abs(py0 - py1)
        for j in range(xc.size):
            px0, px1 = ax.px(float(xe[j])), ax.px(float(xe[j + 1]))
            val = z[i, j]
            if not math.isfinite(val):
                continue
            color = _heat_color_reference((float(val) - zmin) / span)
            body.append(
                f'<rect x="{svg._fmt(px0)}" y="{svg._fmt(top)}" '
                f'width="{svg._fmt(max(px1 - px0, 0.1))}" '
                f'height="{svg._fmt(max(hgt, 0.1))}" fill="{color}"/>\n'
            )
    if overlay is not None:
        ox, oy = (np.asarray(a, float) for a in overlay)
        body.append(_polyline_reference(ax, ox, oy, "#ffffff", True))
    body.append(svg._frame(ax, "", "", "", "none"))
    Path(path).write_text(_document_reference("".join(body)), encoding="utf-8")


def _document_reference(body):
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="420" '
        'viewBox="0 0 720 420">\n<rect width="720" height="420" fill="white"/>\n'
        + body
        + "</svg>\n"
    )


def test_polyline_matches_the_per_point_loop(monkeypatch):
    # Linear axes over [0, 1]: pixel 0 lies at x = -64 / 642 and at
    # y = 374 / 344, so these points straddle it and some round to -0.00.
    # Blocks of 1, 2, 7 and 4096 points put the block seams inside runs.
    ax = svg._Axes((0.0, 1.0), (0.0, 1.0), False, False)
    near = np.linspace(-0.02, 0.02, 41)
    x = np.r_[(near - 64.0) / 642.0, np.nan, 0.5, np.inf, 0.25, 0.75, 2.0, -1.0]
    y = np.r_[(near - 374.0) / -344.0, 0.5, 0.5, np.nan, 0.1, -np.inf, 3.0, -3.0]
    for block in (1, 2, 7, 4096):
        monkeypatch.setattr(svg, "POINT_BLOCK", block)
        for dashed in (False, True):
            out = io.StringIO()
            svg._write_polyline(out, ax, x, y, "#123456", dashed)
            got = out.getvalue()
            assert got == _polyline_reference(ax, x, y, "#123456", dashed)
            assert "-0.00" not in got


_GAPPED = np.where(np.arange(40) % 7 == 3, np.nan, np.cos(np.arange(40.0)))
_LINE_CASES = {
    "nan gaps": ([(np.arange(40.0), _GAPPED, "gaps")], {}),
    "single-point runs": (
        [(np.arange(11.0), np.array([1, np.nan, 2, 3, np.nan, 4, np.nan, 5, 6, np.nan, 7]), "")],
        {},
    ),
    "zero and negative on log axes": (
        [
            (np.array([0.0, 1, 2, 3, -4, 5, 6]), np.array([1.0, 2, 0, 4, 5, -6, 7]), "a"),
            (np.logspace(-3, 2, 50), np.logspace(4, -6, 50), "b", True),
        ],
        {"xlog": True, "ylog": True},
    ),
    "constant series": ([(np.arange(5.0), np.full(5, 2.5), "flat")], {"ylog": True}),
    "values near the origin": (
        [(np.array([-1e-4, 0.0, 1e-4]), np.array([-3e-6, 2e-6, -1e-6]), "tiny")],
        {},
    ),
    "many series": (
        [(np.arange(300.0), np.sin(np.arange(300.0) * k), f"s{k}", k % 2) for k in range(8)],
        {"vmarks": [(10.0, "m")], "bands": [(5.0, 50.0)]},
    ),
}


@pytest.mark.parametrize("case", sorted(_LINE_CASES))
def test_line_plot_matches_the_per_point_loop(tmp_path, monkeypatch, case):
    series, kwargs = _LINE_CASES[case]
    line_plot(tmp_path / "bulk.svg", series, **kwargs)
    monkeypatch.setattr(
        svg, "_write_polyline", lambda fh, *args: fh.write(_polyline_reference(*args))
    )
    line_plot(tmp_path / "loop.svg", series, **kwargs)
    assert (tmp_path / "bulk.svg").read_bytes() == (tmp_path / "loop.svg").read_bytes()


def _heat_case(ncol, nrow=7, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((nrow, ncol))
    return np.linspace(0.0, 2.0, ncol), np.geomspace(0.5, 40.0, nrow), z


_HEAT_CASES = {
    "fewer columns than max_cols": (*_heat_case(50), {"ylog": True}),
    "as many columns as max_cols": (*_heat_case(HEATMAP_COLS), {}),
    "more columns than max_cols": (*_heat_case(1000), {"ylog": True}),
    "nan cells": (
        *_heat_case(30)[:2],
        np.where(np.eye(7, 30, dtype=bool), np.nan, _heat_case(30)[2]),
        {},
    ),
    "one row and one column": (np.array([1.0]), np.array([3.0]), np.array([[2.0]]), {}),
    "overlay off the axes": (
        *_heat_case(40),
        {
            # pixel rows -0.02 .. 0.02, above the panel: some round to -0.00
            "overlay": (
                np.linspace(0.0, 2.0, 40),
                np.r_[np.nan, 0.5 + (np.linspace(-0.02, 0.02, 38) - 374) / -344 * 39.5, np.nan],
            ),
        },
    ),
    "log overlay with gaps": (
        *_heat_case(300, nrow=12),
        {
            "ylog": True,
            "overlay": (
                np.linspace(0.0, 2.0, 300),
                np.where(np.arange(300) % 50 == 0, 0.0, 5.0),
            ),
        },
    ),
}


@pytest.mark.parametrize("case", sorted(_HEAT_CASES))
def test_heatmap_matches_the_per_cell_loop(tmp_path, case):
    x, y, z, kwargs = _HEAT_CASES[case]
    heatmap(tmp_path / "bulk.svg", x, y, _block_means(z), **kwargs)
    _heatmap_reference(tmp_path / "loop.svg", x, y, z, **kwargs)
    assert (tmp_path / "bulk.svg").read_bytes() == (tmp_path / "loop.svg").read_bytes()


@pytest.mark.parametrize("case", sorted(_HEAT_CASES))
def test_heatmap_of_streamed_or_binned_rows_matches_the_array(tmp_path, case):
    # Rows binned one at a time by column_bins, as power_summary bins the
    # rows it streams, draw the bytes of the whole array's block means.
    x, y, z, kwargs = _HEAT_CASES[case]
    heatmap(tmp_path / "array.svg", x, y, _block_means(z), **kwargs)
    heatmap(tmp_path / "rows.svg", x, y, [column_bins(row) for row in z], **kwargs)
    assert (tmp_path / "rows.svg").read_bytes() == (tmp_path / "array.svg").read_bytes()


@pytest.mark.parametrize(
    "shape, size",
    [((105, 65536), 65536), ((7, 1000), 1000), ((12, 300), 300), ((3, 193), 193)],
)
def test_row_bins_equal_the_column_block_means(shape, size):
    z = np.random.default_rng(size).standard_normal(shape)
    z *= 10.0 ** np.arange(shape[0])[:, None]
    want = _block_means(z)
    assert np.array([column_bins(row) for row in z]).tobytes() == want.tobytes()


def test_binned_rows_cost_nothing_in_the_column_count():
    # A row no wider than HEATMAP_COLS, such as the bins of a row of 2^16
    # columns, comes back as it is: no copy and nothing allocated.
    for width in (1, 50, HEATMAP_COLS):
        row = np.random.default_rng(width).standard_normal(width)
        tracemalloc.start()
        try:
            binned = column_bins(row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert binned is row
        assert peak == 0, (width, peak)
    wide = column_bins(np.arange(2.0**16))
    assert wide.shape == (HEATMAP_COLS,) and column_bins(wide) is wide


def test_heatmap_rejects_misshapen_rows(tmp_path):
    x, y, z = _heat_case(300)
    binned = _block_means(z)
    ragged = list(binned[:, :100]) + [binned[0]]
    for bad in (binned[:, :-1], binned[:-1], ragged, binned[0], binned[None]):
        with pytest.raises(ValidationError, match="z must be shaped"):
            heatmap(tmp_path / "bad.svg", x, y, bad)


def test_heatmap_refuses_raw_rows_wider_than_its_bins(tmp_path):
    # heatmap draws the cells it is given and bins only x: rows of all 300
    # columns are refused, and their column bins are drawn.
    x, y, z = _heat_case(300)
    with pytest.raises(ValidationError, match="z must be shaped"):
        heatmap(tmp_path / "raw.svg", x, y, z)
    assert not (tmp_path / "raw.svg").exists()
    heatmap(tmp_path / "binned.svg", x, y, [column_bins(row) for row in z])
