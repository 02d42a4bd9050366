"""One-sided power spectra, power-law fits and derived scaling exponents.

The estimator chain is: periodogram -> logarithmic band averaging ->
least squares in log10-log10 coordinates.  Band averages are taken on the
logarithm of the power (geometric means), which keeps a noiseless
power law exactly on a straight line and adds only a constant offset for
chi-squared distributed periodogram bins, so fitted slopes are unbiased
either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryValueError,
    InsufficientBandError,
    OutOfRangeError,
    ValidationError,
)
from .signal_core import TimeSeries, fit_line

__all__ = [
    "PowerSpectrum",
    "SpectrumFit",
    "HeisenbergResult",
    "power_spectrum",
    "fit_power_law",
    "hurst_from_alpha",
    "fractal_dimension",
    "dominant_frequency",
    "heisenberg_fit",
    "NEUTRAL_CASCADE_SLOPE",
    "DISSIPATION_SLOPE",
]

#: Spectral slope of an inertial-range turbulent cascade.
NEUTRAL_CASCADE_SLOPE = -5.0 / 3.0
#: Spectral slope of the far dissipation range.
DISSIPATION_SLOPE = -7.0

#: Number of logarithmic averaging bands per frequency decade.
BANDS_PER_DECADE = 8


@dataclass(frozen=True)
class PowerSpectrum:
    """One-sided power spectral density.

    ``freqs`` ascend from DC to Nyquist in Hz; ``power`` is the density in
    units**2 / Hz; ``n`` is the original sample count and ``window`` the
    taper that was applied ("none" or "hann").
    """

    freqs: np.ndarray
    power: np.ndarray
    n: int
    window: str
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "power", np.asarray(self.power, dtype=float))
        if self.freqs.shape != self.power.shape:
            raise ValidationError("freqs and power must have equal length")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValidationError("freqs must be strictly ascending")
        if not np.all(np.isfinite(self.power)) or np.any(self.power < 0):
            raise ValidationError("power must be finite and non-negative")

    @property
    def df(self) -> float:
        return self.sample_rate / self.n


@dataclass(frozen=True)
class SpectrumFit:
    """Least-squares power-law fit, log10 power versus log10 frequency.

    ``slope`` is signed (a decaying spectrum has slope < 0), ``intercept``
    is log10 power at 1 Hz, ``band`` the fitted frequency interval and
    ``n_points`` the number of band-averaged points entering the fit.
    """

    slope: float
    intercept: float
    band: tuple[float, float]
    r_squared: float
    n_points: int

    @property
    def alpha_abs(self) -> float:
        return abs(self.slope)


@dataclass(frozen=True)
class HeisenbergResult:
    """Spectral-slope comparison against a named regime target."""

    fit: SpectrumFit
    target: float
    tolerance: float
    matches: bool


def power_spectrum(ts: TimeSeries, window: str = "none") -> PowerSpectrum:
    """One-sided periodogram of a series of at least 8 samples.

    Without a window, the density integrates exactly to the mean square of
    the signal (discrete Parseval identity):  sum(power) * df == mean(x**2).

    O(n log n) time for n samples.  The traced working memory is about
    3 n floats, the n/2 + 1 complex bins and their power and frequencies,
    and 5 n with the Hann window, which adds the window and the tapered
    copy; numpy's FFT scratch is not traced.
    """
    if window not in ("none", "hann"):
        raise ValidationError(f"unknown window {window!r}")
    x = ts.samples
    n = x.size
    if n < 8:
        raise ValidationError("need at least 8 samples for a spectrum")
    if window == "hann":
        w = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)
        xw = x * w
        norm = ts.sample_rate * np.sum(w * w)
    else:
        xw = x
        norm = ts.sample_rate * n
    spec = np.fft.rfft(xw)
    power = (np.abs(spec) ** 2) / norm
    power[1:] *= 2.0
    if n % 2 == 0:
        power[-1] /= 2.0
    freqs = np.fft.rfftfreq(n, d=1.0 / ts.sample_rate)
    return PowerSpectrum(
        freqs=freqs, power=power, n=n, window=window, sample_rate=ts.sample_rate
    )


def _band_average(freqs: np.ndarray, power: np.ndarray):
    """Geometric-mean reduction into logarithmic bands.

    Returns (log10 f, log10 P) per non-empty band, 8 bands per decade.
    """
    logf = np.log10(freqs)
    logp = np.log10(power)
    edges_lo = math.floor(logf[0] * BANDS_PER_DECADE)
    band_idx = np.floor(logf * BANDS_PER_DECADE).astype(int) - edges_lo
    n_bands = band_idx.max() + 1
    sum_f = np.bincount(band_idx, weights=logf, minlength=n_bands)
    sum_p = np.bincount(band_idx, weights=logp, minlength=n_bands)
    count = np.bincount(band_idx, minlength=n_bands)
    mask = count > 0
    return sum_f[mask] / count[mask], sum_p[mask] / count[mask]


def fit_power_law(ps: PowerSpectrum, f_lo: float, f_hi: float) -> SpectrumFit:
    """Fit ``log10 P = slope * log10 f + intercept`` inside [f_lo, f_hi].

    Zero-power bins and DC are excluded; the band must keep at least 8
    usable bins or InsufficientBandError is raised.

    O(m) time and about 5 floats of working memory per bin for the
    m = n/2 + 1 bins of an n-sample spectrum: masks, logarithms and band
    indices.
    """
    if not (0 < f_lo < f_hi):
        raise ValidationError("need 0 < f_lo < f_hi")
    sel = (ps.freqs >= f_lo) & (ps.freqs <= f_hi) & (ps.freqs > 0) & (ps.power > 0)
    if int(sel.sum()) < 8:
        raise InsufficientBandError(
            f"band [{f_lo:g}, {f_hi:g}] Hz keeps {int(sel.sum())} usable bins, need 8"
        )
    bf, bp = _band_average(ps.freqs[sel], ps.power[sel])
    if bf.size < 2:
        raise InsufficientBandError("band collapses to fewer than two averaged points")
    slope, intercept, r2 = fit_line(bf, bp)
    return SpectrumFit(
        slope=slope,
        intercept=intercept,
        band=(float(f_lo), float(f_hi)),
        r_squared=r2,
        n_points=int(bf.size),
    )


def hurst_from_alpha(alpha_abs: float) -> float:
    """Hurst exponent from the spectral exponent, H = (alpha - 1) / 2.

    Valid for 1 < alpha < 3.  Outside that range the mapped value is not a
    Hurst exponent; OutOfRangeError is raised with the offending value
    attached rather than clamped.
    """
    if not alpha_abs > 0:
        raise ValidationError("alpha_abs must be positive")
    hurst = (alpha_abs - 1.0) / 2.0
    if not 0.0 < hurst < 1.0:
        raise OutOfRangeError(
            f"alpha = {alpha_abs:g} maps to H = {hurst:g}, outside (0, 1)",
            value=hurst,
        )
    return hurst


def fractal_dimension(beta: float) -> float:
    """Graph fractal dimension from the spectral magnitude beta = |slope|.

    Piecewise in the spectral exponent:

        beta > 3:      D = (7 - beta) / 2
        1 < beta < 3:  D = (5 - beta) / 2
        beta < 1:      D = (3 - beta) / 2

    The regime boundaries beta = 1 and beta = 3 are rejected because the
    two adjacent branches disagree there.
    """
    if beta < 0:
        raise ValidationError("beta must be >= 0")
    if beta in (1.0, 3.0):
        raise BoundaryValueError(f"beta = {beta:g} sits on a regime boundary")
    if beta > 3.0:
        return (7.0 - beta) / 2.0
    if beta > 1.0:
        return (5.0 - beta) / 2.0
    return (3.0 - beta) / 2.0


def dominant_frequency(ps: PowerSpectrum) -> float:
    """Frequency of the largest power bin above DC; ties resolve to the
    lower bin."""
    power = ps.power
    if power.size <= 1:
        raise ValidationError("spectrum has no usable bins")
    k = 1 + int(np.argmax(power[1:]))
    return float(ps.freqs[k])


def heisenberg_fit(
    ps: PowerSpectrum,
    f_lo: float,
    f_hi: float,
    regime: str | float = "neutral",
    rel_tolerance: float = 0.15,
) -> HeisenbergResult:
    """Fit a band and compare the slope against a named spectral regime.

    ``regime`` is "neutral" (-5/3), "dissipation" (-7) or an explicit
    target slope.  The match criterion is
    ``|slope - target| <= rel_tolerance * |target|``; a negative
    ``rel_tolerance`` is refused.  Time and memory are those of
    :func:`fit_power_law`.
    """
    if not rel_tolerance >= 0:
        raise ValidationError(f"rel_tolerance must be >= 0, got {rel_tolerance}")
    if isinstance(regime, str):
        try:
            target = {
                "neutral": NEUTRAL_CASCADE_SLOPE,
                "dissipation": DISSIPATION_SLOPE,
            }[regime]
        except KeyError:
            raise ValidationError(f"unknown regime {regime!r}") from None
    else:
        target = float(regime)
        if target == 0:
            raise ValidationError("target slope must be nonzero")
    fit = fit_power_law(ps, f_lo, f_hi)
    tol = rel_tolerance * abs(target)
    return HeisenbergResult(
        fit=fit, target=target, tolerance=tol, matches=abs(fit.slope - target) <= tol
    )
