"""Multifractal detrended fluctuation analysis with wavelet detrending.

The profile is detrended at each analysis scale by subtracting the
wavelet approximation at the matching decomposition level, so the local
trend removal is a true bandpass operation instead of piecewise
polynomial fits.  Segment statistics follow the standard scheme: the
profile is cut into floor(N/s) windows from the front and the same number
from the back, every window contributes its mean squared fluctuation, and
the q-th order fluctuation function is the power mean of order q/2 of
those segment variances.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dwt import BOUNDARY_MODES, WaveletSpec, daubechies, extract_fluctuation
from .errors import (
    PoorFitWarning,
    ValidationError,
    ZeroVarianceError,
    ZeroVarianceWarning,
)
from .signal_core import Profile, _fit_line

__all__ = [
    "MfdfaConfig",
    "FluctuationTable",
    "default_q_values",
    "default_scales",
    "segment_variance",
    "fluctuation_function",
    "generalized_hurst",
]


def default_q_values() -> np.ndarray:
    """Moment orders -10..10 in steps of 1, zero included."""
    return np.arange(-10.0, 11.0, 1.0)


def default_scales(
    n: int, wavelet: WaveletSpec | None = None, min_segments: int = 4
) -> np.ndarray:
    """Dyadic scale ladder support * 2**j admissible for an n-point profile."""
    wavelet = wavelet if wavelet is not None else daubechies(2)
    scales = []
    level = 1
    while True:
        s = wavelet.support * 2**level
        if 2 * (n // s) < min_segments or s > n:
            break
        scales.append(s)
        level += 1
    if not scales:
        raise ValidationError(f"no admissible scales for n={n}")
    return np.asarray(scales, dtype=int)


@dataclass(frozen=True)
class MfdfaConfig:
    """Analysis grid for the fluctuation function.

    ``scales`` are requested segment lengths; each is snapped to the
    nearest wavelet level via s = support * 2**level and the snapped value
    is what the result reports.  ``None`` selects the full dyadic ladder
    admissible for the profile length.
    """

    q_values: np.ndarray = field(default_factory=default_q_values)
    scales: np.ndarray | None = None
    wavelet: WaveletSpec = field(default_factory=daubechies)
    min_segments: int = 4
    boundary: str = "symmetric"

    def __post_init__(self):
        q = np.asarray(self.q_values, dtype=float)
        object.__setattr__(self, "q_values", q)
        if q.size < 1:
            raise ValidationError("q_values must be non-empty")
        if self.min_segments < 4:
            raise ValidationError("min_segments must be >= 4")
        if self.boundary not in BOUNDARY_MODES:
            raise ValidationError(
                f"boundary must be one of {BOUNDARY_MODES}, got {self.boundary!r}"
            )
        if self.scales is not None:
            s = np.asarray(self.scales, dtype=int)
            if s.size < 1 or np.any(np.diff(s) <= 0):
                raise ValidationError("scales must be non-empty and ascending")
            object.__setattr__(self, "scales", s)


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


def segment_variance(
    fluct: np.ndarray, scale: int, min_segments: int = 4
) -> np.ndarray:
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
    if 2 * m < min_segments:
        raise ValidationError(
            f"scale {scale} leaves {2 * m} segments, need >= {min_segments}"
        )
    front = fluct[: m * scale].reshape(m, scale)
    back = fluct[n - m * scale :].reshape(m, scale)
    var_front = np.mean(front * front, axis=1)
    var_back = np.mean(back * back, axis=1)
    return np.concatenate([var_front, var_back])


def _scale_to_level(scale: float, support: int) -> int:
    return max(1, round(math.log2(max(scale, support) / support)))


def _moments(
    seg_var: np.ndarray, q_values: np.ndarray, scale: int, logsumexp
) -> np.ndarray:
    """Power means of order q/2 over segment variances, q = 0 geometric;
    ``logsumexp`` is ``scipy.special.logsumexp``."""
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
                    (logsumexp(0.5 * q * log_v) - math.log(positive.size)) / q
                )
        else:
            # Zero segments legitimately contribute 0 to positive moments.
            total = logsumexp(0.5 * q * log_v) if positive.size else -math.inf
            out[i] = math.exp((total - math.log(seg_var.size)) / q)
    return out


def fluctuation_function(prof: Profile | np.ndarray, cfg: MfdfaConfig | None = None) -> FluctuationTable:
    """Evaluate F_q(s) over the configured grid.

    Requested scales snap to the nearest dyadic wavelet level (duplicates
    collapse) and the snapped values are reported in the result.  The
    profile is decomposed once per direction for all levels (see
    :func:`~wavescope.dwt.extract_fluctuation`), and each level's
    fluctuation is reduced to its segment variances before the next level
    is built.  For n samples, L levels and Q moment orders this takes
    O(n log n + n Q) time, and the working memory is about 7 n floats
    whatever L is, plus O(n / s) segment variances.
    """
    # Deferred: scipy.special costs about half of ``import wavescope``.
    from scipy.special import logsumexp

    cfg = cfg if cfg is not None else MfdfaConfig()
    values = prof.values if isinstance(prof, Profile) else np.asarray(prof, dtype=float)
    n = values.size
    support = cfg.wavelet.support
    requested = (
        cfg.scales if cfg.scales is not None else default_scales(n, cfg.wavelet, cfg.min_segments)
    )
    levels = sorted({_scale_to_level(s, support) for s in np.asarray(requested)})
    scales = np.array([support * 2**lv for lv in levels], dtype=int)
    for s in scales:
        if 2 * (n // int(s)) < cfg.min_segments:
            raise ValidationError(
                f"snapped scale {int(s)} leaves fewer than "
                f"{cfg.min_segments} segments for n={n}"
            )

    # Each level's fluctuation is reduced to its segment variances before
    # the next level is built, so no name keeps it.
    flucts = extract_fluctuation(values, cfg.wavelet, levels, boundary=cfg.boundary)
    columns = []
    for s in scales.tolist():
        seg = segment_variance(next(flucts), s, cfg.min_segments)
        columns.append(_moments(seg, cfg.q_values, s, logsumexp))
    fq = np.column_stack(columns)
    return FluctuationTable(
        q_values=cfg.q_values.copy(),
        scales=scales,
        levels=np.asarray(levels, dtype=int),
        fluctuation=fq,
        n=n,
        wavelet_support=support,
    )


def generalized_hurst(
    table: FluctuationTable,
    fit_range: tuple[float | None, float | None] | None = None,
    min_scales: int = 6,
    r2_floor: float = 0.9,
) -> FluctuationTable:
    """Fit h(q) as the log-log slope of F_q(s) over the fit range.

    The default range drops scales below twice the wavelet support and
    above N/8; a None end takes its default.  Orders whose fit falls
    under ``r2_floor`` are flagged through PoorFitWarning but still
    reported.  Returns a new table with ``hurst``, ``fit_r2``, ``fit_range`` set.
    """
    lo, hi = (None, None) if fit_range is None else fit_range
    lo = 2.0 * table.wavelet_support if lo is None else lo
    hi = table.n / 8.0 if hi is None else hi
    sel = (table.scales >= lo) & (table.scales <= hi)
    if int(sel.sum()) < min_scales:
        raise ValidationError(
            f"fit range [{lo:g}, {hi:g}] keeps {int(sel.sum())} scales, "
            f"need >= {min_scales}"
        )
    log_s = np.log(table.scales[sel].astype(float))
    hurst = np.empty(table.q_values.size)
    r2 = np.empty(table.q_values.size)
    for i in range(table.q_values.size):
        hurst[i], _, r2[i] = _fit_line(log_s, np.log(table.fluctuation[i, sel]))
    poor = table.q_values[r2 < r2_floor]
    if poor.size:
        warnings.warn(
            f"h(q) fit below r2={r2_floor:g} at q={np.array2string(poor, precision=2)}",
            PoorFitWarning,
            stacklevel=2,
        )
    return replace(table, hurst=hurst, fit_r2=r2, fit_range=(float(lo), float(hi)))
