"""Multifractal detrended fluctuation analysis with wavelet detrending.

The profile is detrended at each analysis scale by subtracting the
wavelet approximation at the matching decomposition level, so the local
trend removal is a true bandpass operation instead of piecewise
polynomial fits.  Segment statistics follow the standard scheme: the
profile is cut into floor(N/s) windows from the front and the same number
from the back, every window contributes its mean squared fluctuation, and
the q-th order fluctuation function is the power mean of order q/2 of
those segment variances.  The profile is a plain array (see
:func:`~wavescope.signal_core.profile`), and the moment orders are the
one grid Q_VALUES, q = -10, -9, ..., 10.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dwt import SUPPORT, extract_fluctuation
from .errors import (
    PoorFitWarning,
    ValidationError,
    ZeroVarianceError,
    ZeroVarianceWarning,
)
from .signal_core import fit_line

__all__ = [
    "FluctuationTable",
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

#: The moment orders q = -10, -9, ..., 10 (zero included), the one grid
#: fluctuation_function evaluates.
Q_VALUES = np.arange(-10.0, 10.5, 1.0)
Q_VALUES.flags.writeable = False


def default_scales(n: int) -> np.ndarray:
    """Dyadic scale ladder SUPPORT * 2**j of the detrending wavelet,
    j = 1..L, for an n-point profile: every scale up to n that leaves at
    least MIN_SEGMENTS segments.  The one grid fluctuation_function uses."""
    scales = []
    level = 1
    while True:
        s = SUPPORT * 2**level
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

    ``fluctuation[i, j]`` is F for ``q_values[i]`` at ``scales[j]``,
    the ladder of :func:`default_scales`, whose column j is wavelet level
    j + 1.  ``hurst``, ``fit_r2`` and ``fit_range`` are filled by
    :func:`generalized_hurst`.
    """

    q_values: np.ndarray
    scales: np.ndarray
    fluctuation: np.ndarray
    n: int
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
        """Spread of h(q) from the first order to the last, h(-10) - h(10)
        on Q_VALUES: the multifractality measure."""
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


def _logsumexp(log_v: np.ndarray, factor: float, buf: np.ndarray) -> float:
    """log(sum(exp(factor * log_v))) of a non-empty 1-D array, in the
    steps of ``scipy.special.logsumexp`` (scipy 1.17) and so with its bits.

    ``buf``, of ``log_v``'s size, receives factor * log_v and is shifted
    and exponentiated in place, so a call allocates no array of that size.
    The m maxima are taken out of the sum: s = sum(exp(a - max)) over the
    rest, divided by m when nonzero, and the result is
    log1p(s) + log(m) + max.  Where that is not finite, scipy returns
    log(sum(exp(a))), and so does this, from a recomputed a.
    """
    a = np.multiply(log_v, factor, out=buf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        is_max = a == a_max
        m = np.float64(np.count_nonzero(is_max))
        a -= a_max
        a[is_max] = -np.inf
        s = np.exp(a, out=a).sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(factor * log_v).sum())
    return float(out)


def _moments(seg_var: np.ndarray, q_values: np.ndarray, scale: int) -> np.ndarray:
    """Power means of order q/2 over segment variances, q = 0 geometric."""
    # ``out`` outlives the call, so it is allocated before the temporaries:
    # allocated after them, it stayed among the space they free in glibc's
    # heap, and on 2^20 samples the next levels then grew the heap, by
    # 1-3 MiB of peak RSS in most repeated runs.  The logs of the positive
    # variances overwrite the copy that the mask selects, and every order
    # scales them into one buffer.
    out = np.empty(q_values.size)
    log_v = seg_var[seg_var > 0]
    np.log(log_v, out=log_v)
    buf = np.empty_like(log_v)
    n_zero = seg_var.size - log_v.size
    if n_zero and np.any(q_values <= 0):
        warnings.warn(
            f"scale {scale}: dropped {n_zero} zero-variance segments for q <= 0",
            ZeroVarianceWarning,
            stacklevel=3,
        )
    for i, q in enumerate(q_values):
        if q < 0 or q == 0:
            if log_v.size == 0:
                raise ZeroVarianceError(
                    f"scale {scale}: all segments have zero variance"
                )
            if q == 0:
                out[i] = math.exp(0.5 * float(np.mean(log_v)))
            else:
                out[i] = math.exp(
                    (_logsumexp(log_v, 0.5 * q, buf) - math.log(log_v.size)) / q
                )
        else:
            # Zero segments legitimately contribute 0 to positive moments.
            total = _logsumexp(log_v, 0.5 * q, buf) if log_v.size else -math.inf
            out[i] = math.exp((total - math.log(seg_var.size)) / q)
    return out


def fluctuation_function(prof: np.ndarray) -> FluctuationTable:
    """Evaluate F_q(s) of the profile ``prof`` over the analysis grid.

    The moment orders are Q_VALUES, the Q = 21 orders -10..10 in steps
    of 1.  The scales are :func:`default_scales` of the profile length,
    s = SUPPORT * 2**level for the wavelet levels 1..L, each leaving at
    least MIN_SEGMENTS segments.  The detrending wavelet is the DWT's
    one, the 4-tap Daubechies filter, with symmetric edges.

    The profile is decomposed once per direction for all levels (see
    :func:`~wavescope.dwt.extract_fluctuation`), and each level's
    fluctuation is reduced to its segment variances before the next level
    is built.  For n samples and L levels this takes O(n log n) time, the
    Q = 21 orders adding O(n Q), and the working memory is about 5.5 n
    floats whatever L is, plus O(n / s) segment variances.
    """
    values = np.asarray(prof, dtype=float)
    n = values.size
    scales = default_scales(n)
    levels = range(1, scales.size + 1)

    # Each level's fluctuation is reduced to its segment variances before
    # the next level is built, so no name keeps it.
    flucts = extract_fluctuation(values, levels)
    columns = []
    for s in scales.tolist():
        seg = segment_variance(next(flucts), s)
        columns.append(_moments(seg, Q_VALUES, s))
    fq = np.column_stack(columns)
    return FluctuationTable(
        q_values=Q_VALUES.copy(),
        scales=scales,
        fluctuation=fq,
        n=n,
    )


def generalized_hurst(
    table: FluctuationTable,
    fit_range: tuple[float | None, float | None] | None = None,
) -> FluctuationTable:
    """Fit h(q) as the log-log slope of F_q(s) over the fit range.

    The default range drops scales below twice the wavelet support and
    above N/8; a None end takes its default.  The range must keep
    MIN_FIT_SCALES scales, and every F_q(s) in it must be > 0, or
    ZeroVarianceError names the first scale where one is not: its log has
    no fit.  Orders whose fit falls under R2_FLOOR are flagged through
    PoorFitWarning but still reported.  Returns a new table with
    ``hurst``, ``fit_r2``, ``fit_range`` set.
    """
    lo, hi = (None, None) if fit_range is None else fit_range
    lo = 2.0 * SUPPORT if lo is None else lo
    hi = table.n / 8.0 if hi is None else hi
    sel = (table.scales >= lo) & (table.scales <= hi)
    if int(sel.sum()) < MIN_FIT_SCALES:
        raise ValidationError(
            f"fit range [{lo:g}, {hi:g}] keeps {int(sel.sum())} scales, "
            f"need >= {MIN_FIT_SCALES}"
        )
    fq = table.fluctuation[:, sel]
    bad = np.argwhere(~(fq.T > 0))  # (scale, order) pairs, scale first
    if bad.size:
        j, i = bad[0]
        raise ZeroVarianceError(
            f"scale {table.scales[sel][j]}: F_q(s) = {fq[i, j]:g} at q = "
            f"{table.q_values[i]:g}; h(q) fits log F_q(s), which needs F_q(s) > 0"
        )
    log_s = np.log(table.scales[sel].astype(float))
    hurst = np.empty(table.q_values.size)
    r2 = np.empty(table.q_values.size)
    for i in range(table.q_values.size):
        hurst[i], _, r2[i], _ = fit_line(log_s, np.log(fq[i]))
    poor = table.q_values[r2 < R2_FLOOR]
    if poor.size:
        warnings.warn(
            f"h(q) fit below r2={R2_FLOOR:g} at q={np.array2string(poor, precision=2)}",
            PoorFitWarning,
            stacklevel=2,
        )
    return replace(table, hurst=hurst, fit_r2=r2, fit_range=(float(lo), float(hi)))
