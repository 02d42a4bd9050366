"""Core time-series containers, CSV ingestion and the cumulative profile.

All analyses in this package operate on :class:`TimeSeries` (uniformly
sampled, finite values) or on the array :func:`profile` returns, the
mean-subtracted cumulative sum that turns noise-like records into
walk-like ones.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
        Samples per second, finite and strictly positive.
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
        if not (self.sample_rate > 0 and math.isfinite(self.sample_rate)):
            raise ValidationError(
                f"sample_rate must be finite and positive, got {self.sample_rate}"
            )

    def __len__(self) -> int:
        return self.samples.size

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def times(self) -> np.ndarray:
        """Sample times in seconds."""
        return self.t0 + np.arange(self.samples.size) / self.sample_rate


def profile(x: TimeSeries | np.ndarray) -> np.ndarray:
    """Cumulative sum of ``x`` after removing its mean.

    For x = [1, -1, 1, -1] the result is [1, 0, 1, 0].  The last value is
    zero up to accumulated rounding, which downstream fluctuation analysis
    relies on; one further than 1e-9 n max(|profile|, 1) is refused, and
    so is an array that is not one-dimensional.
    """
    data = x.samples if isinstance(x, TimeSeries) else np.asarray(x, dtype=float)
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


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through (x, y): (slope, intercept, r-squared)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


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


def _decoded(lines, path: Path):
    """Pass ``lines`` on; a byte that is not UTF-8, or a row the csv reader
    refuses, raises ParseError."""
    try:
        yield from lines
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})") from None
    except csv.Error as err:
        raise ParseError(f"{path}: {err}", row=lines.line_num) from None


def load_csv(
    path: str | Path,
    sample_rate: float | None = None,
    column: int = 0,
    time_column: int | None = None,
) -> TimeSeries:
    """Read a single-channel signal from an RFC-4180-style CSV file.

    Two layouts are accepted.  With a time column, that column holds
    timestamps in seconds and ``column`` the values; the rate is inferred
    from the median spacing and checked for uniformity (any gap deviating
    more than 1% from the nominal period is rejected) and against
    ``sample_rate`` if one is stated.  Without one the file is a bare
    value column and ``sample_rate`` is required.

    An optional single header row is skipped.  With ``time_column`` None,
    its first field named in ``TIME_HEADERS`` (stripped, any case) marks
    the time column; should ``column`` name that column too, the values
    come from column 0, or column 1 when the times are in column 0.  So a
    :func:`write_csv` file reads back as written.  Decimal separator is
    '.', encoding UTF-8, with or without a byte-order mark.

    O(n) time for n rows.  The traced working memory is about 14 n floats
    with a time column and 5.5 n without: a Python float object and a list
    slot per parsed field, then the arrays and the spacing check.

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
    if column < 0 or (time_column is not None and time_column < 0):
        raise ValidationError(
            f"{path}: negative column index (column={column}, time_column={time_column})"
        )
    if sample_rate is not None and not (sample_rate > 0 and math.isfinite(sample_rate)):
        raise ValidationError(
            f"{path}: stated sample_rate must be finite and > 0, got {sample_rate}"
        )
    path = Path(path)
    values: list[float] = []
    times: list[float] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for row_no, fields in enumerate(_decoded(reader, path), start=1):
            if not fields or all(not f.strip() for f in fields):
                continue
            fields = [f.strip() for f in fields]
            if row_no == 1 and _looks_like_header(fields):
                if time_column is None:
                    found = [i for i, f in enumerate(fields) if f.lower() in TIME_HEADERS]
                    time_column = found[0] if found else None
                    if column == time_column:
                        column = int(time_column == 0)
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

    if len(values) < 2:
        raise ValidationError(f"{path}: need at least two samples, got {len(values)}")
    data = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(data)):
        bad = int(np.flatnonzero(~np.isfinite(data))[0])
        raise ValidationError(f"{path}: non-finite value at sample {bad}")

    if time_column is not None:
        tarr = np.asarray(times, dtype=float)
        gaps = np.diff(tarr)
        period = float(np.median(gaps))
        if period <= 0:
            raise ValidationError(f"{path}: timestamps are not increasing")
        worst = float(np.abs(gaps - period).max())
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
    loading the file back yields bit-identical samples.
    """
    write_table(path, ["time_s", "value"], [ts.times(), ts.samples], eol="\r\n")


def write_table(path, header: list[str], columns, eol: str = "\n") -> None:
    """Write equal-length numeric columns as CSV under a header row.

    Every number is written as the ``repr`` of a float (``%r``) and every
    line, the last too, ends with ``eol``.  All rows are formatted by one
    ``%`` call on the row template repeated once per row.
    """
    path = Path(path)
    grid = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%r"] * grid.shape[1]) + eol
    body = (row * grid.shape[0]) % tuple(grid.ravel().tolist())
    path.write_text(",".join(header) + eol + body, encoding="utf-8")


def column_bins(rows, ncol: int) -> np.ndarray:
    """Block means of each row's ``ncol`` columns, one row at a time.

    With ``ncol > HEATMAP_COLS`` the columns fall into that many blocks and
    each row becomes its block means; a row that already holds them (the
    output of this function) passes through.  Otherwise rows stay as they
    are.  Returns a (rows, min(ncol, HEATMAP_COLS)) array: O(S n) time and
    O(n + S HEATMAP_COLS) memory for S rows that arrive one at a time.  The
    heat-map binning of svg.heatmap and cwt.Scalogram.power_summary.
    """
    width = min(ncol, HEATMAP_COLS)
    groups = []
    if ncol > HEATMAP_COLS:
        # The blocks come in at most two sizes; each size's blocks are
        # gathered into one (blocks, size) array and averaged along its rows.
        edges = np.linspace(0, ncol, HEATMAP_COLS + 1).astype(int)
        sizes = np.diff(edges)
        for size in np.unique(sizes).tolist():
            at = np.flatnonzero(sizes == size)
            groups.append((at, edges[at][:, None] + np.arange(size)))
    out = []
    for row in rows:
        row = np.asarray(row, dtype=float)
        if groups and row.shape == (ncol,):
            means = np.empty(width)
            for at, cols in groups:
                means[at] = row[cols].mean(axis=1)
            row = means
        if row.shape != (width,):
            raise ValidationError("z must be shaped (len(y), len(x))")
        out.append(row)
    return np.array(out).reshape(len(out), width)
