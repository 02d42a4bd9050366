"""Core time-series containers, CSV ingestion and the cumulative profile.

All analyses in this package operate on :class:`TimeSeries` (uniformly
sampled, finite values) or on the array :func:`profile` returns, the
mean-subtracted cumulative sum that turns noise-like records into
walk-like ones.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParseError, ValidationError

__all__ = [
    "TimeSeries",
    "load_csv",
    "write_csv",
    "profile",
    "column_bins",
]

#: Allowed relative deviation of timestamp spacing from the nominal period.
MAX_TIMESTAMP_JITTER = 0.01

#: Header names (stripped, any case) that mark a CSV column as timestamps.
TIME_HEADERS = ("time", "time_s", "t", "timestamp", "timestamp_s")

#: Most columns a heat map keeps; wider rows are block-averaged down to it.
HEATMAP_COLS = 192


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled signal.

    samples
        1-D float array, finite, at least two points.
    sample_rate
        Samples per second, finite and strictly positive, with a finite
        period 1 / sample_rate (a rate below about 5.6e-309 overflows it).
    label
        Free-form provenance string (file name, generator name...).
    t0
        Time of the first sample in seconds.
    """

    samples: np.ndarray
    sample_rate: float
    label: str = ""
    t0: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValidationError("samples must be one-dimensional")
        if samples.size < 2:
            raise ValidationError("need at least two samples")
        if not np.all(np.isfinite(samples)):
            raise ValidationError("samples contain NaN or Inf")
        rate = self.sample_rate
        if not (rate > 0 and math.isfinite(rate) and math.isfinite(1.0 / float(rate))):
            raise ValidationError(
                f"sample_rate must be finite and positive, with a finite period "
                f"1 / sample_rate, got {rate}"
            )

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate


def profile(x: np.ndarray) -> np.ndarray:
    """Cumulative sum of the array ``x`` after removing its mean.

    For x = [1, -1, 1, -1] the result is [1, 0, 1, 0].  The last value is
    zero up to accumulated rounding, which downstream fluctuation analysis
    relies on; one further than 1e-9 n max(|profile|, 1) is refused, and
    so is an array that is not one-dimensional.  A series' profile is
    ``profile(ts.samples)``.
    """
    data = np.asarray(x, dtype=float)
    if data.ndim != 1:
        raise ValidationError(f"samples must be one-dimensional, got shape {data.shape}")
    if data.size < 2:
        raise ValidationError("need at least two samples to build a profile")
    if not np.all(np.isfinite(data)):
        raise ValidationError("samples contain NaN or Inf")
    values = np.cumsum(data - data.mean())
    tol = 1e-9 * values.size * max(np.abs(values).max(), 1.0)
    if abs(values[-1]) > tol:
        raise ValidationError(
            f"profile does not return to zero: last={values[-1]!r}, tol={tol!r}"
        )
    return values


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares line through (x, y): (slope, intercept, r-squared,
    residual sum of squares)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sse = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - sse / ss_tot
    return float(slope), float(intercept), r2, sse


def _parse_float(token: str, row: int, path: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{path}: cannot parse {token!r} as a number", row=row) from None


def _looks_like_header(fields: list[str]) -> bool:
    for tok in fields:
        try:
            float(tok)
        except ValueError:
            return True
    return False


def _header_columns(fields: list[str], column: int) -> tuple[int | None, int]:
    """The time column that a header row's stripped ``fields`` name (None
    when none does) and the value column, moved off the time column."""
    found = [i for i, f in enumerate(fields) if f.lower() in TIME_HEADERS]
    if not found:
        return None, column
    time_column = found[0]
    if column == time_column:
        column = int(time_column == 0)
    return time_column, column


def _decoded(lines, path: Path):
    """Pass ``lines`` on; a byte that is not UTF-8, or a row the csv reader
    refuses, raises ParseError."""
    try:
        yield from lines
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    except csv.Error as err:
        raise ParseError(f"{path}: {err}", row=lines.line_num) from None


def _short_lines(fh):
    """The lines of ``fh``; one longer than the csv reader's field limit
    raises ValueError, so that numpy reads no field the row reader refuses."""
    limit = csv.field_size_limit()
    for line in fh:
        if len(line) > limit:
            raise ValueError("line longer than the csv field limit")
        yield line


def _numpy_columns(fh, column: int):
    """(values, times or None) of an open CSV file, read by ``np.loadtxt``.

    The first row goes through the csv reader and the header rule; the
    rest must be a rectangle of numbers that numpy reads with no quoting
    and no comments.  Anything else raises ValueError or csv.Error, and
    the caller reads the file again row by row.
    """
    first = [f.strip() for f in next(csv.reader(fh), [])]
    time_column = None
    if any(first) and _looks_like_header(first):
        time_column, column = _header_columns(first, column)
    else:
        fh.seek(0)
    with warnings.catch_warnings():
        # An empty table warns; the sample count check refuses it.
        warnings.simplefilter("ignore", UserWarning)
        table = np.loadtxt(_short_lines(fh), delimiter=",", comments=None, ndmin=2)
    needed = column if time_column is None else max(column, time_column)
    if table.shape[1] <= needed:
        raise ValueError("too few columns")
    times = None if time_column is None else table[:, time_column].copy()
    return table[:, column].copy(), times


def _row_columns(fh, path: Path, column: int):
    """(values, times or None) of an open CSV file, parsed row by row; a
    row that does not parse raises ParseError with its 1-based number."""
    values: list[float] = []
    times: list[float] = []
    time_column = None
    for row_no, fields in enumerate(_decoded(csv.reader(fh), path), start=1):
        if not fields or all(not f.strip() for f in fields):
            continue
        fields = [f.strip() for f in fields]
        if row_no == 1 and _looks_like_header(fields):
            time_column, column = _header_columns(fields, column)
            continue
        needed = column if time_column is None else max(column, time_column)
        if len(fields) <= needed:
            raise ParseError(
                f"{path}: expected at least {needed + 1} columns, got {len(fields)}",
                row=row_no,
            )
        values.append(_parse_float(fields[column], row_no, str(path)))
        if time_column is not None:
            times.append(_parse_float(fields[time_column], row_no, str(path)))
    return np.array(values), None if time_column is None else np.array(times)


def load_csv(
    path: str | Path,
    sample_rate: float | None = None,
    column: int = 0,
) -> TimeSeries:
    """Read a single-channel signal from an RFC-4180-style CSV file.

    Two layouts are accepted.  With a time column, that column holds
    timestamps in seconds and ``column`` the values; the rate is inferred
    from the median spacing and checked for uniformity (any gap deviating
    more than 1% from the nominal period is rejected) and against
    ``sample_rate`` if one is stated.  Without one the file is a bare
    value column and ``sample_rate`` is required.

    An optional single header row is skipped.  Its first field named in
    ``TIME_HEADERS`` (stripped, any case) marks the time column; a file
    without such a header has none.  Should ``column`` name that column
    too, the values come from column 0, or column 1 when the times are in
    column 0.  So a :func:`write_csv` file reads back as written.  Decimal
    separator is '.', encoding UTF-8, with or without a byte-order mark.

    Rows after the header are read by ``np.loadtxt`` when they form a
    rectangle of numbers that it parses (its number parser is the one
    ``float`` uses, less underscores and non-ASCII digits); any other
    file, one with quotes, ragged or blank-field rows, ``#`` or numbers
    written as ``1_000``, is read again row by row with ``float``, which
    gives the same values and raises each ParseError with its row number.
    O(n) time for n rows.  The traced working memory is the k-column table
    numpy returns and the columns copied out of it, then the spacing
    check, with no Python object per row: about 4 n floats for a
    :func:`write_csv` file (32-34 B per sample) and 2 n for a bare column
    (16-17 B).  The row reader holds a Python float per parsed field,
    about 14 n and 5.5 n floats.

    Raises
    ------
    ParseError
        Malformed row, with the offending 1-based row number (also for a
        row the csv reader refuses), or text that is not UTF-8.
    ValidationError
        A negative column index, a stated rate that is not finite and
        > 0 (refused before the file is read), non-finite values, fewer
        than two samples, missing rate, or non-uniform timestamps.
    """
    if column < 0:
        raise ValidationError(f"{path}: negative column index (column={column})")
    if sample_rate is not None and not (sample_rate > 0 and math.isfinite(sample_rate)):
        raise ValidationError(
            f"{path}: stated sample_rate must be finite and > 0, got {sample_rate}"
        )
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            data, tarr = _numpy_columns(fh, column)
        except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
            fh.seek(0)
            data, tarr = _row_columns(fh, path, column)

    if data.size < 2:
        raise ValidationError(f"{path}: need at least two samples, got {data.size}")
    if not np.all(np.isfinite(data)):
        bad = int(np.flatnonzero(~np.isfinite(data))[0])
        raise ValidationError(f"{path}: non-finite value at sample {bad}")

    if tarr is not None:
        gaps = np.diff(tarr)
        period = float(np.median(gaps))
        if period <= 0:
            raise ValidationError(f"{path}: timestamps are not increasing")
        gaps -= period
        worst = float(np.abs(gaps, out=gaps).max())
        if worst > MAX_TIMESTAMP_JITTER * period:
            raise ValidationError(
                f"{path}: non-uniform sampling, max deviation {worst:.3g} s "
                f"exceeds 1% of the nominal period {period:.3g} s"
            )
        inferred = 1.0 / period
        if sample_rate is not None and abs(inferred - sample_rate) > 0.01 * sample_rate:
            raise ValidationError(
                f"{path}: stated rate {sample_rate} Hz disagrees with "
                f"timestamps ({inferred:.6g} Hz)"
            )
        return TimeSeries(data, inferred, label=path.name, t0=float(tarr[0]))

    if sample_rate is None:
        raise ValidationError(f"{path}: sample_rate is required for bare value columns")
    return TimeSeries(data, sample_rate, label=path.name)


def write_csv(ts: TimeSeries, path: str | Path) -> None:
    """Write a series as ``time_s,value`` CSV with a header row.

    Values are written with shortest round-trip float formatting, so
    loading the file back yields bit-identical samples.  Each block's
    times are computed from its row numbers k as ``t0 + k / sample_rate``,
    so the series' times are never held whole: O(TABLE_BLOCK_ROWS) memory
    beyond the samples.  Lines end with CRLF.
    """

    def block(lo, hi):
        return [ts.t0 + np.arange(lo, hi) / ts.sample_rate, ts.samples[lo:hi]]

    _write_blocks(path, ["time_s", "value"], ts.samples.size, block, "\r\n")


#: Rows that write_table formats and writes per ``%`` call.
TABLE_BLOCK_ROWS = 2048


def write_table(path, header: list[str], columns) -> None:
    """Write equal-length numeric columns as CSV under a header row.

    Every number is written as the ``repr`` of a float (``%r``) and every
    line, the last too, ends with a line feed.  Rows are formatted and
    written ``TABLE_BLOCK_ROWS`` at a time, by one ``%`` call on the row
    template repeated once per row: O(rows) time, and O(TABLE_BLOCK_ROWS)
    memory beyond the columns as float arrays, whatever the table's size.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    rows = columns[0].shape[0]
    if any(c.shape != (rows,) for c in columns):
        raise ValidationError("write_table needs 1-D columns of one length")
    _write_blocks(path, header, rows, lambda lo, hi: [c[lo:hi] for c in columns], "\n")


def _write_blocks(path, header: list[str], rows: int, block, eol: str) -> None:
    """Write ``header`` and then rows 0..rows-1, ``TABLE_BLOCK_ROWS`` at a
    time; ``block(lo, hi)`` gives the float columns of rows lo..hi-1."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + eol)
        for lo in range(0, rows, TABLE_BLOCK_ROWS):
            table = np.column_stack(block(lo, min(lo + TABLE_BLOCK_ROWS, rows)))
            row = ",".join(["%r"] * table.shape[1]) + eol
            fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def column_bins(row: np.ndarray) -> np.ndarray:
    """The heat-map bins of one row: its block means if it is wider than
    ``HEATMAP_COLS``, else the row unchanged.

    A row of ncol > HEATMAP_COLS columns falls into HEATMAP_COLS blocks
    of at most two sizes.  Each size's blocks are gathered by their starts
    from the row's windows of that size, a view until the gather, into one
    (blocks, size) array and averaged along its rows, so no column index
    array is built: O(ncol) time and memory.  The binning of svg.heatmap's
    x axis and of cwt.Scalogram.power_summary's rows.
    """
    row = np.asarray(row, dtype=float)
    ncol = row.size
    if ncol <= HEATMAP_COLS:
        return row
    edges = np.linspace(0, ncol, HEATMAP_COLS + 1).astype(int)
    sizes = np.diff(edges)
    means = np.empty(HEATMAP_COLS)
    for size in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == size)
        means[at] = sliding_window_view(row, size)[edges[at]].mean(axis=1)
    return means
