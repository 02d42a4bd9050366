"""Morlet continuous wavelet transform, global power and phase extraction.

The transform is evaluated scale by scale in the Fourier domain with the
analytic Morlet window exp(-(s w - w0)^2 / 2), w0 = OMEGA0 = 6, on
positive frequencies, each scale's row only when a reader reaches it (see
Scalogram).
Two amplitude conventions are supported: the energy choice 1/sqrt(s)
(default, keeps white-noise power flat across scales and puts the scale
response peak of a sinusoid exactly at its equivalent Fourier period) and
the plain 1/s convolution prefactor, selectable as ``norm="eq4"`` where
compatibility with that reading is wanted.

Significance testing follows the usual chi-squared recipe: wavelet power
of a stationary background is distributed as its mean spectrum times
chi2_nu / nu.  Only time-averaged (global) power is tested, with nu from
the effective-sample correction of the averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import LengthMismatchError, ScaleOutOfRangeError, ValidationError
from .signal_core import TimeSeries, column_bins

__all__ = [
    "Scalogram",
    "PowerSummary",
    "GlobalPower",
    "PhaseSeries",
    "PhaseComparison",
    "morlet_fourier_factor",
    "default_scales",
    "cwt_morlet",
    "global_power",
    "dominant_periods",
    "phase_at_scale",
    "phase_difference",
]

#: Sub-octaves per octave in the default scale ladder.
SUBOCTAVES = 8

#: Centre frequency of the Morlet window, the one cwt_morlet transforms with.
OMEGA0 = 6.0

#: Decorrelation scale factor of the OMEGA0 = 6 Morlet (Torrence & Compo
#: 1998, Table 2), used for the effective degrees of freedom of
#: time-averaged power.
MORLET_GAMMA = 2.32

#: Synchronization band half-width in radians and minimum dwell time in
#: characteristic periods.
SYNC_BAND_RAD = 0.2
SYNC_MIN_PERIODS = 3.0

#: Confidence level of GlobalPower's ``significance_95``.
SIGNIFICANCE_LEVEL = 0.95

#: The normalizations cwt_morlet takes, and the backgrounds global_power
#: tests against.
NORMS = ("l2", "eq4")
BACKGROUNDS = ("white", "red")

#: Largest block Scalogram.rows frees to warm the heap.  glibc raises
#: its mmap threshold on a free only up to 32 MiB (DEFAULT_MMAP_THRESHOLD_MAX
#: on 64-bit), and compares the mapped size, header and page rounding
#: included, plus a flag bit: 2**25 - 2**12 bytes no longer raise it.
_HEAP_WARM_MAX = 2**25 - 2**13


def morlet_fourier_factor(omega0: float) -> float:
    """Ratio of equivalent Fourier period to scale for the Morlet window."""
    return 4.0 * math.pi / (omega0 + math.sqrt(2.0 + omega0 * omega0))


def default_scales(n: int, sample_rate: float) -> np.ndarray:
    """Dyadic ladder with 8 sub-octaves from 2 dt up to n dt / 4, the one
    ladder cwt_morlet transforms on; it is empty below n = 8.  Every scale
    keeps the middle sample outside the cone: the largest period, at most
    n dt / 4 times the Fourier factor, stays below the cone's peak,
    floor((n - 1) / 2) dt / sqrt(2) times that factor, for every n >= 7."""
    dt = 1.0 / sample_rate
    s0 = 2.0 * dt
    n_octaves = math.log2(n / 8.0)
    j = np.arange(math.floor(n_octaves * SUBOCTAVES) + 1)
    return s0 * 2.0 ** (j / SUBOCTAVES)


@dataclass
class PowerSummary:
    """Scalogram.power_summary's record of |W|^2 outside the cone.

    Per scale: ``counts`` samples outside the cone (never 0 on the ladder)
    and their ``mean_power``.  With the heat map, ``heatmap`` holds each
    row's column bins (signal_core.column_bins) of log10(|W|^2 / variance
    + 1e-300); without it, it is None.
    """

    counts: np.ndarray
    mean_power: np.ndarray
    heatmap: np.ndarray | None


class Scalogram:
    """Complex CWT coefficients on a scale-by-time grid, evaluated on demand.

    Row ``i`` of ``rows`` is the response at ``scales[i]`` (seconds,
    ascending) at each of ``times``.  ``coi[t]`` is the largest equivalent
    Fourier period free of edge effects at that instant; samples with
    ``periods[i] > coi[t]`` sit inside the cone of influence.

    The scalogram keeps the positive half of the signal spectrum, the
    (n_fft + 1) // 2 bins that the rows read (8 n_fft bytes), the padded
    length n_fft, and each row's frequency band and prefactor: O(n_fft + S)
    memory.  It also keeps a reference to the samples it was built from,
    not a copy, from which a red global_power estimates its AR(1)
    coefficient.  It runs a row's inverse FFT each time a reader asks for
    the row; it holds no S x n array.  A pass over the rows inverts each one in
    place in a single complex n_fft buffer of its own, so a streamed row
    stays valid until the pass is asked for the next one.
    ``power_summary`` keeps the record of its pass, O(S HEATMAP_COLS), and
    serves every later request that record covers without a new pass.
    """

    def __init__(self, scales, times, coi, sample_rate, norm,
                 signal_variance, series, spec, n_fft, freq_step, bands):
        self.scales = scales
        self.times = times
        self.coi = coi
        self.sample_rate = sample_rate
        self.norm = norm
        self.signal_variance = signal_variance
        self._series = series
        # The padded signal spectrum up to its last positive bin, the padded
        # length, the frequency step in Hz, and per row (start, stop,
        # prefactor): the positive band where the window is nonzero and the
        # row's amplitude factor.
        self._spec = spec
        self._n_fft = n_fft
        self._freq_step = freq_step
        self._bands = bands
        self._summary = None

    @property
    def fourier_factor(self) -> float:
        return morlet_fourier_factor(OMEGA0)

    @property
    def periods(self) -> np.ndarray:
        """Equivalent Fourier periods of the scale axis, seconds."""
        return self.scales * self.fourier_factor

    def rows(self, indices: Iterable[int]) -> Iterator[np.ndarray]:
        """The rows at ``indices``, each computed when it is reached.

        Each row writes the spectrum times the window on the row's band
        into one complex n_fft buffer, zero elsewhere, inverts the buffer
        in place and scales its n kept samples in place.  The buffer
        belongs to this generator, so interleaved passes do not disturb
        each other, and it is cleared when the next row is asked for: a
        yielded row is a view of it, valid until then.  Working memory is
        the buffer, 16 n_fft bytes, with the band's frequencies and window,
        O(band), while the band is filled; they are freed before the
        inverse FFT allocates numpy's two scratch arrays of 16 n_fft bytes
        each, which tracemalloc does not see.  So 48 n_fft bytes are
        resident at each FFT, beside the held 8 n_fft of the spectrum.
        Before the first row, one untouched block of min(32 n_fft,
        _HEAP_WARM_MAX) bytes is allocated and freed; tracemalloc counts
        it, RSS does not.
        """
        n = self.times.size
        # numpy's pocketfft allocates and frees its two scratch arrays in
        # every ifft.  glibc serves a request at or above its mmap
        # threshold (128 KiB at start) by a fresh mapping, so each row
        # would map and fault its scratch in anew.  Freeing a mapped block
        # raises the threshold to the block's size and the heap-trim
        # threshold to twice that, up to a 32 MiB ceiling.  After this
        # untouched block is freed, every row's scratch comes from the
        # heap and stays there, whatever ran before this pass.  The
        # dependence is on glibc: elsewhere the block is an allocation and
        # nothing more, and above n_fft = 2**20 the scratch arrays exceed
        # the ceiling and are mapped for each row anyway.
        np.empty(min(2 * 16 * self._n_fft, _HEAP_WARM_MAX), dtype=np.uint8)
        buf = np.zeros(self._n_fft, dtype=complex)
        for i in indices:
            start, stop, prefactor = self._bands[i]
            # The band's angular frequencies, as fftfreq computes them.
            omega = 2.0 * math.pi * (np.arange(start, stop) * self._freq_step)
            window = _morlet_hat(omega, self.scales[i])
            np.multiply(self._spec[start:stop], window, out=buf[start:stop])
            # Freed before the FFT allocates its scratch: at the smallest
            # scales a band spans every positive bin.
            del omega, window
            np.fft.ifft(buf, out=buf)
            row = buf[:n]
            row *= prefactor
            yield row
            buf.fill(0.0)

    def power_summary(self, heatmap: bool = False) -> PowerSummary:
        """The PowerSummary of one pass over the rows, with its heat-map
        fields if ``heatmap``.

        The record is kept and returned to every later call that it
        covers.  A pass: O(S n_fft log n_fft) time, O(n_fft + S HEATMAP_COLS)
        memory; each power row is reduced, and binned for the heat map,
        before the next row is computed.
        """
        kept = self._summary
        if kept is not None and (kept.heatmap is not None or not heatmap):
            return kept
        counts, means, bins = [], [], []
        coeff_rows = self.rows(range(self.scales.size))
        for row, outside in zip(coeff_rows, self._outside_slices()):
            power = np.abs(row)
            power **= 2
            counts.append(power[outside].size)
            means.append(power[outside].mean())
            if heatmap:
                power /= self.signal_variance
                power += 1e-300
                np.log10(power, out=power)
                bins.append(column_bins(power))
            del power  # before the next row is computed
        heat = np.array(bins) if heatmap else None
        self._summary = PowerSummary(np.array(counts), np.array(means), heat)
        return self._summary

    def _outside_slices(self) -> list[slice]:
        """Per scale, the samples outside the cone as one slice [lo, hi).

        ``coi`` is a triangle, symmetric about the middle and rising
        towards it, so the samples with ``periods[i] <= coi[t]`` form one
        run that starts at the first such sample of the rising half and
        ends as far from the end: O(S log n) time.
        """
        n = self.coi.size
        lo = np.searchsorted(self.coi[: (n + 1) // 2], self.periods).tolist()
        return [slice(a, n - a) for a in lo]


@dataclass
class GlobalPower:
    """Time-averaged power outside the cone per ladder scale, in arrays of its own."""

    scales: np.ndarray
    periods: np.ndarray
    power: np.ndarray
    significance_95: np.ndarray
    ar1: float | None


@dataclass
class PhaseSeries:
    """Instantaneous phase along one scalogram row; the row itself, and so
    its amplitude, is ``Scalogram.rows`` at the scale's index."""

    scale: float
    period: float
    times: np.ndarray
    phase: np.ndarray
    sample_rate: float


@dataclass
class PhaseComparison:
    """Wrapped phase difference of two rows plus locked intervals.

    ``segments`` holds (start, stop) sample slices where the difference
    stays within SYNC_BAND_RAD of its wrap-safe median for at least
    SYNC_MIN_PERIODS characteristic periods.
    """

    delta: np.ndarray
    times: np.ndarray
    median: float
    segments: list[tuple[int, int]]
    min_duration_s: float


def _wrap(angle: np.ndarray | float) -> np.ndarray | float:
    """Wrap to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(angle)))


#: |s w - w0| at and beyond which the Morlet window is exactly 0.0:
#: exp(-0.5 * 39**2) = exp(-760.5), and exp(x) underflows to 0.0 for
#: x < -745.2, so rounding in s w - w0 cannot reach a nonzero value.
_WINDOW_HALF_WIDTH = 39.0


def _morlet_hat(omega: np.ndarray, s: float) -> np.ndarray:
    """Analytic Morlet window in the Fourier domain at positive ``omega``."""
    arg = s * omega - OMEGA0
    return np.exp(-0.5 * arg * arg) * (math.pi**-0.25) * math.sqrt(2.0 * math.pi)


def _retained_mass(s: float, dt: float) -> float:
    """Fraction of the Morlet energy that fits below Nyquist at scale s.

    Near the smallest admissible scale (2 dt) a sizable part of the window
    lies above Nyquist and is truncated by the discrete grid; dividing each
    row by sqrt of this fraction keeps white-noise power flat down to the
    bottom of the ladder.  Above s ~ 3 dt the factor is 1 to near machine
    precision.
    """
    nyq = s * math.pi / dt
    return 0.5 * (math.erf(nyq - OMEGA0) + math.erf(OMEGA0))


def cwt_morlet(ts: TimeSeries, norm: str = "l2") -> Scalogram:
    """Continuous Morlet transform with centre frequency OMEGA0 = 6 over
    the scale ladder ``default_scales``.

    The ladder spans 2 dt .. n dt / 4 with 8 sub-octaves per octave, so a
    series needs at least 8 samples; a shorter one is refused with
    ValidationError.  The mean is removed before transforming, and the
    series is zero-padded to n_fft, the next power of two >= 2 n; the
    cone of influence marks the samples that the padding reaches.

    Each row multiplies the signal spectrum by the window and inverts it.
    The window is zero at and below zero frequency, and it underflows to
    exactly 0.0 where |s w - w0| >= 39 (exp(-760.5) is below the smallest
    double), so it is evaluated and applied only on the positive band
    inside that limit; the coefficients equal those of the full-grid
    product bit for bit.  With S scales, this call takes
    O(n_fft log n_fft + S log n_fft) time and returns a Scalogram of
    O(n_fft + S) memory that runs no inverse FFT yet.  The padded signal
    is transformed in place in one complex n_fft buffer, which is then cut
    in place to the (n_fft + 1) // 2 positive bins the rows read; the
    times and the cone are built in place too.  Each row costs one
    in-place inverse FFT, O(n_fft log n_fft), when it is read; a pass
    over the rows reuses one complex n_fft buffer, and a row it yields
    stays valid until the next is read.  ``power_summary``, the one
    reduction over all rows, takes O(S n_fft log n_fft) time and O(n_fft)
    working memory and keeps its record for later readers.
    """
    if norm not in NORMS:
        raise ValidationError(f"unknown norm {norm!r}")
    x = ts.samples
    n = x.size
    dt = ts.dt
    if n < 8:
        raise ValidationError(
            f"cwt_morlet needs at least 8 samples for its scale ladder from "
            f"2 dt to n dt / 4, got {n}"
        )
    scales = default_scales(n, ts.sample_rate)

    demeaned = x - x.mean()
    variance = float(np.var(demeaned))
    # At least double the length, so the frequency grid resolves the
    # Morlet window even at the largest scale.
    n_fft = 1 << int(math.ceil(math.log2(2 * n)))
    # The signal is transformed in place in one complex buffer, zero past
    # the series; that is the transform of the real padded signal, bit for
    # bit, since numpy converts real input to complex before transforming.
    spec = np.zeros(n_fft, dtype=complex)
    spec.real[:n] = demeaned
    del demeaned
    np.fft.fft(spec, out=spec)
    # The bands read only the positive bins, below (n_fft + 1) // 2, so the
    # buffer is cut to them where it lies: no copy, and realloc returns the
    # tail.  No other reference to the buffer exists.
    spec.resize((n_fft + 1) // 2, refcheck=False)
    freq_step = 1.0 / (n_fft * dt)
    # The positive angular frequencies, omega[1:(n_fft + 1) // 2], ascend.
    positive = 2.0 * math.pi * (np.arange(1, (n_fft + 1) // 2) * freq_step)
    starts = 1 + np.searchsorted(positive, (OMEGA0 - _WINDOW_HALF_WIDTH) / scales)
    stops = 1 + np.searchsorted(positive, (OMEGA0 + _WINDOW_HALF_WIDTH) / scales)
    bands = []
    for start, stop, s in zip(starts.tolist(), stops.tolist(), scales.tolist()):
        # Discretized continuous transform: prefactor s from the change of
        # variables, times the chosen amplitude convention, divided by the
        # sub-Nyquist energy fraction of the sampled window.
        prefactor = math.sqrt(s) if norm == "l2" else 1.0
        prefactor /= math.sqrt(_retained_mass(s, dt))
        bands.append((start, stop, prefactor))

    ff = morlet_fourier_factor(OMEGA0)
    # The distance to the nearer edge, min(t, n - 1 - t), then the cone.
    coi = np.arange(n, dtype=float)
    np.subtract(n - 1, coi[n // 2 :], out=coi[n // 2 :])
    np.maximum(coi, 1e-8, out=coi)
    coi *= ff / math.sqrt(2.0) * dt
    times = np.arange(n, dtype=float)
    times *= dt
    times += ts.t0
    return Scalogram(
        scales=scales,
        times=times,
        coi=coi,
        sample_rate=ts.sample_rate,
        norm=norm,
        signal_variance=variance,
        series=x,
        spec=spec,
        n_fft=n_fft,
        freq_step=freq_step,
        bands=bands,
    )


def _background_shape(sg: Scalogram, background: str):
    """Background spectrum per scale and the lag-1 coefficient it used.

    A red background estimates the coefficient from the samples that
    ``sg`` was built from.
    """
    if background not in BACKGROUNDS:
        raise ValidationError(f"unknown background {background!r}")
    if background == "white":
        return np.ones(sg.scales.size), None
    ar1 = _estimate_ar1(sg._series)
    freq_norm = sg.periods ** -1.0 / sg.sample_rate  # cycles per sample
    shape = (1.0 - ar1 * ar1) / (
        1.0 + ar1 * ar1 - 2.0 * ar1 * np.cos(2.0 * math.pi * freq_norm)
    )
    return shape, ar1


def _estimate_ar1(series: np.ndarray) -> float:
    """Lag-1 autocorrelation of ``series``, clipped to [0, 0.999999].

    The sums are numpy's pairwise sums of the products, not ``np.dot``,
    whose BLAS kernel may group them differently on each CPU.
    """
    x = series - series.mean()
    denom = float(np.sum(x * x))
    if denom == 0.0:
        return 0.0
    rho = float(np.sum(x[1:] * x[:-1])) / denom
    return min(max(rho, 0.0), 0.999999)


def _mean_power_scale(sg: Scalogram) -> np.ndarray:
    """Expected |W|^2 of unit-variance white noise at each scale."""
    dt = 1.0 / sg.sample_rate
    if sg.norm == "l2":
        return np.full(sg.scales.size, dt)
    return dt / sg.scales


def _chi2_ppf(p, dof):
    """Chi-squared quantile; the expression ``scipy.stats.chi2.ppf``
    evaluates, without importing ``scipy.stats``."""
    # Deferred: scipy.special costs about half of ``import wavescope``.
    from scipy.special import gammaincinv

    return 2.0 * gammaincinv(dof / 2.0, p)


def global_power(sg: Scalogram, background: str = "white") -> GlobalPower:
    """Time-averaged power outside the cone, with significance curve.

    Every ladder scale is reported (see default_scales).  The
    significance threshold at SIGNIFICANCE_LEVEL uses the chi-squared law
    with the effective degrees of freedom of time averaging.  A red
    background estimates its lag-1 coefficient from the samples that
    ``sg`` was built from, O(n), and reports it as ``ar1``; a white one
    reports None.  The samples averaged per scale are
    ``sg.power_summary().counts``.

    The power comes from ``sg.power_summary()``: a record kept on ``sg``
    by an earlier pass is reused without a transform, otherwise one pass
    streams the rows, builds no coefficients, (scale, time) grid, mask or
    heat map, and takes O(S n_fft log n_fft) time and O(n_fft) working
    memory.
    """
    shape, ar1 = _background_shape(sg, background)
    summary = sg.power_summary()
    base = sg.signal_variance * _mean_power_scale(sg) * shape
    dt = 1.0 / sg.sample_rate
    n_avg = summary.counts.astype(float)
    dof = 2.0 * np.sqrt(1.0 + (n_avg * dt / (MORLET_GAMMA * sg.scales)) ** 2)
    signif = base * _chi2_ppf(SIGNIFICANCE_LEVEL, dof) / dof
    return GlobalPower(
        scales=sg.scales.copy(),
        periods=sg.periods,
        power=summary.mean_power.copy(),
        significance_95=signif,
        ar1=ar1,
    )


def dominant_periods(gp: GlobalPower, max_count: int | None = None) -> list[float]:
    """Periods of interior local power maxima, strongest first.

    A spectrum with no interior local maximum yields an empty list.  Equal
    powers are broken toward the shorter period.  ``max_count`` keeps the
    strongest that many; a negative count is refused.
    """
    if max_count is not None and max_count < 0:
        raise ValidationError(f"max_count must be >= 0, got {max_count}")
    p = gp.power
    if p.size < 3:
        return []
    interior = np.flatnonzero((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])) + 1
    order = sorted(interior, key=lambda i: (-p[i], gp.periods[i]))
    periods = [float(gp.periods[i]) for i in order]
    return periods if max_count is None else periods[:max_count]


def phase_at_scale(sg: Scalogram, scale: float) -> PhaseSeries:
    """Phase series of the row nearest the requested scale.

    Proximity is measured on the logarithmic scale axis and the actually
    used scale is reported back; no silent substitution: a scale that is
    not a finite positive number is refused, and ScaleOutOfRangeError
    refuses one more than an octave below the smallest scale or above the
    largest.  Only that row is evaluated: one inverse FFT, O(n_fft) memory.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValidationError(f"scale must be a finite positive number, got {scale}")
    lo, hi = float(sg.scales[0]), float(sg.scales[-1])
    if not 0.5 * lo <= scale <= 2.0 * hi:
        raise ScaleOutOfRangeError(
            f"scale {scale:g} s lies more than an octave outside the ladder "
            f"[{lo:g}, {hi:g}] s"
        )
    idx = int(np.argmin(np.abs(np.log(sg.scales) - math.log(scale))))
    row = next(sg.rows((idx,)))
    return PhaseSeries(
        scale=float(sg.scales[idx]),
        period=float(sg.periods[idx]),
        times=sg.times,
        phase=np.angle(row),
        sample_rate=sg.sample_rate,
    )


def phase_difference(a: PhaseSeries, b: PhaseSeries) -> PhaseComparison:
    """Wrapped phase difference a - b and synchronization intervals.

    Both series must have equal length and stem from the same scale up to
    one ladder bin (2**(1/8)).  An interval counts as synchronized when
    the difference stays within 0.2 rad of its median (computed in a
    wrap-safe frame) for at least three characteristic periods.
    """
    if a.phase.size != b.phase.size:
        raise LengthMismatchError(
            f"series lengths differ: {a.phase.size} vs {b.phase.size}"
        )
    if a.sample_rate != b.sample_rate:
        raise LengthMismatchError("series sample rates differ")
    if abs(math.log2(a.scale / b.scale)) > 1.0 / SUBOCTAVES + 1e-9:
        raise LengthMismatchError(
            f"scales differ by more than one bin: {a.scale:g} vs {b.scale:g}"
        )
    delta = _wrap(a.phase - b.phase)
    # Median in a frame centered on the circular mean, immune to the
    # +-pi wrap of the raw values.
    center = float(np.angle(np.mean(np.exp(1j * delta))))
    deviations = _wrap(delta - center)
    median = float(_wrap(center + float(np.median(deviations))))
    inside = np.abs(_wrap(delta - median)) < SYNC_BAND_RAD

    period = 0.5 * (a.period + b.period)
    min_duration_s = SYNC_MIN_PERIODS * period
    min_samples = max(int(math.ceil(min_duration_s * a.sample_rate)), 1)
    edges = np.flatnonzero(np.diff(inside, prepend=False, append=False)).reshape(-1, 2)
    segments = [(lo, hi) for lo, hi in edges.tolist() if hi - lo >= min_samples]
    return PhaseComparison(
        delta=delta,
        times=a.times,
        median=median,
        segments=segments,
        min_duration_s=min_duration_s,
    )
