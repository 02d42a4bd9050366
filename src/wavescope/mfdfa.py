"""Multifractal detrended fluctuation analysis with wavelet detrending.

The profile is detrended at each analysis scale by subtracting the
wavelet approximation at the matching decomposition level, so the local
trend removal is a true bandpass operation instead of piecewise
polynomial fits.  Segment statistics follow the standard scheme: the
profile is cut into floor(N/s) windows from the front and the same number
from the back, every window contributes its mean squared fluctuation, and
the q-th order fluctuation function is the power mean of order q/2 of
those segment variances.  The profile is a plain array (see
:func:`~wavescope.signal_core.profile`), and :func:`q_grid` builds and
bounds the moment orders.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dwt import WaveletSpec, daubechies, extract_fluctuation
from .errors import (
    PoorFitWarning,
    ValidationError,
    ZeroVarianceError,
    ZeroVarianceWarning,
)
from .signal_core import fit_line

__all__ = [
    "FluctuationTable",
    "q_grid",
    "default_scales",
    "segment_variance",
    "fluctuation_function",
    "generalized_hurst",
]

#: Fewest segments (front and back together) a scale may leave.
MIN_SEGMENTS = 4

#: Fewest scales an h(q) fit may use, and the r-squared below which a fit
#: raises PoorFitWarning.
MIN_FIT_SCALES = 6
R2_FLOOR = 0.9

#: Most moment orders an analysis grid may hold.  fluctuation_function's
#: time grows linearly with their count Q, about 4 ms per order at 2^20
#: samples on a 2-core AVX-512 host, so this bounds it near 5 s there.
MAX_Q_VALUES = 1001


def q_grid(q_min: float = -10.0, q_max: float = 10.0, q_step: float = 1.0) -> np.ndarray:
    """Moment orders from ``q_min`` in steps of ``q_step`` up to ``q_max``.

    The default is -10..10 in steps of 1, zero included.  The grid is
    checked before np.arange builds it: a step of 0 divides by zero, a
    tiny one asks for more memory than there is, and a NaN or infinite
    argument has no length.  So all three must be finite, ``q_step`` must
    be > 0 and the grid may hold at most MAX_Q_VALUES orders.
    """
    for name, value in (("q_min", q_min), ("q_max", q_max), ("q_step", q_step)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    if not q_step > 0:
        raise ValidationError(f"q_step must be > 0, got {q_step}")
    # np.arange's length is the ceiling of this ratio.
    if (q_max + 0.5 * q_step - q_min) / q_step > MAX_Q_VALUES:
        raise ValidationError(
            f"q from {q_min:g} to {q_max:g} in steps of {q_step:g} exceeds "
            f"MAX_Q_VALUES = {MAX_Q_VALUES} orders"
        )
    return np.arange(q_min, q_max + 0.5 * q_step, q_step)


def default_scales(n: int, wavelet: WaveletSpec | None = None) -> np.ndarray:
    """Dyadic scale ladder support * 2**j admissible for an n-point profile."""
    wavelet = wavelet if wavelet is not None else daubechies(2)
    scales = []
    level = 1
    while True:
        s = wavelet.support * 2**level
        if 2 * (n // s) < MIN_SEGMENTS or s > n:
            break
        scales.append(s)
        level += 1
    if not scales:
        raise ValidationError(f"no admissible scales for n={n}")
    return np.asarray(scales, dtype=int)


@dataclass
class FluctuationTable:
    """F_q(s) surface plus, once fitted, the generalized Hurst exponents.

    ``fluctuation[i, j]`` is F for ``q_values[i]`` at ``scales[j]`` (the
    snapped scales).  ``levels[j]`` is the wavelet level behind column j.
    ``hurst``, ``fit_r2`` and ``fit_range`` are filled by
    :func:`generalized_hurst`.
    """

    q_values: np.ndarray
    scales: np.ndarray
    levels: np.ndarray
    fluctuation: np.ndarray
    n: int
    wavelet_support: int
    hurst: np.ndarray | None = None
    fit_r2: np.ndarray | None = None
    fit_range: tuple[float, float] | None = None

    def hurst_at(self, q: float) -> float:
        """Fitted h(q) for one moment order (must be on the grid)."""
        if self.hurst is None:
            raise ValidationError("call generalized_hurst first")
        idx = np.flatnonzero(np.isclose(self.q_values, q))
        if idx.size == 0:
            raise ValidationError(f"q={q:g} is not on the analysis grid")
        return float(self.hurst[idx[0]])

    @property
    def delta_h(self) -> float:
        """Spread h(q_min) - h(q_max), the multifractality measure."""
        if self.hurst is None:
            raise ValidationError("call generalized_hurst first")
        return float(self.hurst[0] - self.hurst[-1])


def segment_variance(fluct: np.ndarray, scale: int) -> np.ndarray:
    """Mean squared fluctuation per segment, front and back traversal.

    Segments 0..M-1 tile the array from the start, segments M..2M-1 from
    the end, M = floor(N / scale), so trailing samples that do not fill a
    front segment still enter through the reversed tiling.
    """
    fluct = np.asarray(fluct, dtype=float)
    n = fluct.size
    scale = int(scale)
    if scale < 2:
        raise ValidationError("scale must be >= 2")
    m = n // scale
    if 2 * m < MIN_SEGMENTS:
        raise ValidationError(
            f"scale {scale} leaves {2 * m} segments, need >= {MIN_SEGMENTS}"
        )
    front = fluct[: m * scale].reshape(m, scale)
    back = fluct[n - m * scale :].reshape(m, scale)
    var_front = np.mean(front * front, axis=1)
    var_back = np.mean(back * back, axis=1)
    return np.concatenate([var_front, var_back])


def _scale_to_level(scale: float, support: int) -> int:
    return max(1, round(math.log2(max(scale, support) / support)))


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a non-empty 1-D array, in the steps of
    ``scipy.special.logsumexp`` (scipy 1.17) and so with its bits.

    The m maxima are taken out of the sum: s = sum(exp(a - max)) over the
    rest, divided by m when nonzero, and the result is
    log1p(s) + log(m) + max.  Where that is not finite, scipy returns
    log(sum(exp(a))), and so does this.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        is_max = a == a_max
        m = np.float64(np.count_nonzero(is_max))
        shifted = a - a_max
        shifted[is_max] = -np.inf
        s = np.exp(shifted, out=shifted).sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


def _moments(seg_var: np.ndarray, q_values: np.ndarray, scale: int) -> np.ndarray:
    """Power means of order q/2 over segment variances, q = 0 geometric."""
    positive = seg_var[seg_var > 0]
    n_zero = seg_var.size - positive.size
    out = np.empty(q_values.size)
    log_v = np.log(positive) if positive.size else np.empty(0)
    if n_zero and np.any(q_values <= 0):
        warnings.warn(
            f"scale {scale}: dropped {n_zero} zero-variance segments for q <= 0",
            ZeroVarianceWarning,
            stacklevel=3,
        )
    for i, q in enumerate(q_values):
        if q < 0 or q == 0:
            if positive.size == 0:
                raise ZeroVarianceError(
                    f"scale {scale}: all segments have zero variance"
                )
            if q == 0:
                out[i] = math.exp(0.5 * float(np.mean(log_v)))
            else:
                out[i] = math.exp(
                    (_logsumexp(0.5 * q * log_v) - math.log(positive.size)) / q
                )
        else:
            # Zero segments legitimately contribute 0 to positive moments.
            total = _logsumexp(0.5 * q * log_v) if positive.size else -math.inf
            out[i] = math.exp((total - math.log(seg_var.size)) / q)
    return out


def fluctuation_function(
    prof: np.ndarray,
    q_values: np.ndarray | None = None,
    scales: np.ndarray | None = None,
    wavelet: WaveletSpec | None = None,
    boundary: str = "symmetric",
) -> FluctuationTable:
    """Evaluate F_q(s) of the profile ``prof`` over an analysis grid.

    ``q_values`` holds 1 to MAX_Q_VALUES moment orders, :func:`q_grid` by
    default.  ``scales`` are requested segment lengths, non-empty and
    ascending; ``None`` selects the full dyadic ladder admissible for the
    profile length.  Requested scales snap to the nearest dyadic wavelet
    level via s = support * 2**level (duplicates collapse) and the snapped
    values are reported in the result.  ``wavelet`` defaults to
    ``daubechies(2)``; ``extract_fluctuation`` refuses a ``boundary`` not
    in ``dwt.BOUNDARY_MODES`` before any transform runs.

    The profile is decomposed once per direction for all levels (see
    :func:`~wavescope.dwt.extract_fluctuation`), and each level's
    fluctuation is reduced to its segment variances before the next level
    is built.  For n samples, L levels and Q moment orders this takes
    O(n log n + n Q) time, and the working memory is about 5.5 n floats
    whatever L is, plus O(n / s) segment variances.
    """
    q_values = np.asarray(q_grid() if q_values is None else q_values, dtype=float)
    if not 1 <= q_values.size <= MAX_Q_VALUES:
        raise ValidationError(
            f"q_values must hold 1 to MAX_Q_VALUES = {MAX_Q_VALUES} orders, got {q_values.size}"
        )
    if scales is not None:
        scales = np.asarray(scales, dtype=int)
        if scales.size < 1 or np.any(np.diff(scales) <= 0):
            raise ValidationError("scales must be non-empty and ascending")
    wavelet = wavelet if wavelet is not None else daubechies(2)
    values = np.asarray(prof, dtype=float)
    n = values.size
    support = wavelet.support
    requested = scales if scales is not None else default_scales(n, wavelet)
    levels = sorted({_scale_to_level(s, support) for s in requested})
    scales = np.array([support * 2**lv for lv in levels], dtype=int)
    for s in scales:
        if 2 * (n // int(s)) < MIN_SEGMENTS:
            raise ValidationError(
                f"snapped scale {int(s)} leaves fewer than "
                f"{MIN_SEGMENTS} segments for n={n}"
            )

    # Each level's fluctuation is reduced to its segment variances before
    # the next level is built, so no name keeps it.
    flucts = extract_fluctuation(values, wavelet, levels, boundary=boundary)
    columns = []
    for s in scales.tolist():
        seg = segment_variance(next(flucts), s)
        columns.append(_moments(seg, q_values, s))
    fq = np.column_stack(columns)
    return FluctuationTable(
        q_values=q_values.copy(),
        scales=scales,
        levels=np.asarray(levels, dtype=int),
        fluctuation=fq,
        n=n,
        wavelet_support=support,
    )


def generalized_hurst(
    table: FluctuationTable,
    fit_range: tuple[float | None, float | None] | None = None,
) -> FluctuationTable:
    """Fit h(q) as the log-log slope of F_q(s) over the fit range.

    The default range drops scales below twice the wavelet support and
    above N/8; a None end takes its default.  The range must keep
    MIN_FIT_SCALES scales.  Orders whose fit falls under R2_FLOOR are
    flagged through PoorFitWarning but still reported.  Returns a new
    table with ``hurst``, ``fit_r2``, ``fit_range`` set.
    """
    lo, hi = (None, None) if fit_range is None else fit_range
    lo = 2.0 * table.wavelet_support if lo is None else lo
    hi = table.n / 8.0 if hi is None else hi
    sel = (table.scales >= lo) & (table.scales <= hi)
    if int(sel.sum()) < MIN_FIT_SCALES:
        raise ValidationError(
            f"fit range [{lo:g}, {hi:g}] keeps {int(sel.sum())} scales, "
            f"need >= {MIN_FIT_SCALES}"
        )
    log_s = np.log(table.scales[sel].astype(float))
    hurst = np.empty(table.q_values.size)
    r2 = np.empty(table.q_values.size)
    for i in range(table.q_values.size):
        hurst[i], _, r2[i] = fit_line(log_s, np.log(table.fluctuation[i, sel]))
    poor = table.q_values[r2 < R2_FLOOR]
    if poor.size:
        warnings.warn(
            f"h(q) fit below r2={R2_FLOOR:g} at q={np.array2string(poor, precision=2)}",
            PoorFitWarning,
            stacklevel=2,
        )
    return replace(table, hurst=hurst, fit_r2=r2, fit_range=(float(lo), float(hi)))
