"""Synthetic signals with known scaling, spectral or dynamical ground truth.

Every generator is deterministic for a given (parameters, seed) pair and
returns a :class:`~wavescope.signal_core.TimeSeries`.  The closed-form
generalized Hurst exponents of the cascade live here next to the
generator they describe.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmbeddingError, NyquistError, ValidationError
from .signal_core import TimeSeries

__all__ = [
    "BounceParams",
    "CascadeParams",
    "gen_fbm",
    "gen_power_law_noise",
    "gen_sine_mix",
    "gen_bouncing_ball",
    "gen_binomial_cascade",
    "bounce_map_trajectory",
    "bounce_map_jacobian",
    "cascade_hurst",
]

#: Ring-down time constant of the rendered impact response, seconds.
IMPACT_RINGDOWN_S = 2e-3

#: Map impacts discarded before a bouncing-ball series is rendered.
RENDER_BURN_IN = 100

#: Most samples (or impacts) a generator makes.  At this size gen_fbm's
#: working memory, about 7 n floats, is 0.9 GiB.  A larger request is
#: refused with ValidationError before anything is allocated.
MAX_SAMPLES = 2**24


def _check_size(n: int, what: str) -> None:
    if n > MAX_SAMPLES:
        raise ValidationError(f"{what} = {n} exceeds MAX_SAMPLES = {MAX_SAMPLES}")


@dataclass(frozen=True)
class BounceParams:
    """Parameters of the sinusoidally driven impact map.

    The map advances the drive phase by the (dimensionless) impact
    velocity and updates the velocity with a restitution loss plus a
    kick from the drive:

        phi[k+1] = phi[k] + v[k]            (mod 2 pi)
        v[k+1]   = restitution * v[k] - amplitude * cos(phi[k+1])

    ``amplitude = 0`` collapses to pure geometric decay of ``v``.
    """

    amplitude: float
    drive_freq: float
    restitution: float
    n_impacts: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.amplitude < math.inf:
            raise ValidationError("amplitude must be finite and >= 0")
        if not 0.0 < self.drive_freq < math.inf:
            raise ValidationError("drive_freq must be finite and positive")
        if not 0.0 < self.restitution < 1.0:
            raise ValidationError("restitution must lie in (0, 1)")
        if self.n_impacts < 1:
            raise ValidationError("n_impacts must be >= 1")
        _check_size(self.n_impacts, "n_impacts")


@dataclass(frozen=True)
class CascadeParams:
    """Binomial multiplicative cascade: weight ``a`` to the left half at
    every dyadic refinement.  The construction is deterministic."""

    a: float
    levels: int

    def __post_init__(self):
        if not 0.5 < self.a < 1.0:
            raise ValidationError("cascade weight a must lie in (0.5, 1)")
        if self.levels < 1:
            raise ValidationError("levels must be >= 1")
        # Compared as an exponent: 2**levels itself may be too big to build.
        if self.levels > math.log2(MAX_SAMPLES):
            raise ValidationError(
                f"levels = {self.levels} gives more than MAX_SAMPLES = {MAX_SAMPLES} samples"
            )


def cascade_hurst(a: float, q: float) -> float:
    """Generalized Hurst exponent of the binomial cascade.

    h(q) = 1/q - ln(a**q + (1-a)**q) / (q ln 2), with the continuous
    q -> 0 limit -(ln a + ln(1-a)) / (2 ln 2).
    """
    b = 1.0 - a
    if q == 0:
        return -(math.log(a) + math.log(b)) / (2.0 * math.log(2.0))
    return 1.0 / q - math.log(a**q + b**q) / (q * math.log(2.0))


def _fgn_autocovariance(hurst: float, max_lag: int) -> np.ndarray:
    k = np.arange(max_lag + 1, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * (
        np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h
    )


def _circulant_gaussian(cov: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a stationary Gaussian vector by circulant embedding.

    ``cov`` holds autocovariances for lags 0..m with m >= n - 1.  The
    embedding size is 2m; eigenvalues of the circulant must be
    non-negative for the construction to be exact.

    One complex 2m buffer holds the circulant row, its spectrum, the
    random spectrum and the inverse transform in turn, so the working
    memory is that buffer plus the 2m eigenvalues: 48 m bytes.  Returns a
    new n-sample array.
    """
    size = 2 * (cov.size - 1)
    half = size // 2
    # The row is built as complex: numpy's FFT of a real array casts it,
    # so the eigenvalues keep their bytes.
    buf = np.zeros(size, dtype=complex)
    buf.real[: half + 1] = cov
    buf.real[half + 1 :] = cov[-2:0:-1]
    del cov
    np.fft.fft(buf, out=buf)
    spectrum = buf.real
    if spectrum.min() < -1e-9 * spectrum.max():
        raise EmbeddingError(
            f"circulant embedding not non-negative definite "
            f"(min eigenvalue {spectrum.min():.3e})"
        )
    # All 2m eigenvalues are kept, though z reads only 0..m.  Freeing this
    # 16 m-byte array raises glibc's adaptive heap-trim threshold to 32 m
    # bytes, above the two complex scratch arrays that numpy's FFT
    # allocates and frees on every call, so later transforms of fewer than
    # m points reuse heap pages.  With half of it, a Morlet pass at 2^18
    # samples after gen_fbm(2^20) faulted 16 MiB in anew on every row and
    # ran about 30 % slower.
    lam = np.clip(spectrum, 0.0, None)
    z = buf
    z[0] = math.sqrt(lam[0]) * rng.standard_normal()
    z[half] = math.sqrt(lam[half]) * rng.standard_normal()
    # The draws go where the mirror image is written last: re, then im.
    draws = z[half + 1 :].view(float)
    rng.standard_normal(out=draws[: half - 1])
    rng.standard_normal(out=draws[half - 1 :])
    z.real[1:half] = draws[: half - 1]
    z.imag[1:half] = draws[half - 1 :]
    scale = lam[1:half]
    scale /= 2.0
    z[1:half] *= np.sqrt(scale, out=scale)
    np.conjugate(z[1:half][::-1], out=z[half + 1 :])
    np.fft.ifft(z, out=z)
    return math.sqrt(size) * z.real[:n]


def gen_fbm(
    hurst: float,
    n: int,
    seed: int = 0,
    sample_rate: float = 1.0,
) -> TimeSeries:
    """Fractional Brownian motion as the running sum of exact fGn.

    The increments are drawn by circulant embedding of the fGn
    autocovariance, which reproduces the target covariance exactly (no
    truncation).  Should the embedding spectrum come out negative, the
    embedding is retried once at double size before failing.

    Requires ``n`` to be a power of two and at least 256.  O(n log n) time;
    the working memory is about 7 n floats: one complex 2n-point buffer,
    its 2n eigenvalues and the n samples, summed in place.
    """
    if not 0.0 < hurst < 1.0:
        raise ValidationError("hurst must lie in (0, 1)")
    if n < 256 or n & (n - 1):
        raise ValidationError("n must be a power of two, at least 256")
    _check_size(n, "n")
    rng = np.random.default_rng(seed)
    for max_lag in (n, 2 * n):
        try:
            fgn = _circulant_gaussian(_fgn_autocovariance(hurst, max_lag), n, rng)
            break
        except EmbeddingError:
            if max_lag == 2 * n:
                raise
    samples = np.cumsum(fgn, out=fgn)
    return TimeSeries(samples, sample_rate, label=f"fbm(H={hurst:g}, seed={seed})")


def fourier_noise(amplitude: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit-variance noise whose bin k = 1..n/2 has amplitude[k - 1]; n = 2 * size."""
    half = amplitude.size
    re = rng.standard_normal(half)
    im = rng.standard_normal(half)
    spec = np.zeros(half + 1, dtype=complex)
    spec[1:half] = amplitude[: half - 1] * (re[: half - 1] + 1j * im[: half - 1])
    spec[half] = amplitude[half - 1] * re[half - 1]
    samples = np.fft.irfft(spec, n=2 * half)
    samples /= samples.std()
    return samples


def gen_power_law_noise(
    beta: float,
    n: int,
    seed: int = 0,
    sample_rate: float = 1.0,
) -> TimeSeries:
    """Gaussian noise with one-sided power spectrum proportional to f**-beta.

    Synthesized in the Fourier domain: independent complex coefficients
    scaled by f**(-beta/2), zero DC, then inverse transformed and
    normalized to unit variance.
    """
    if not 0.0 <= beta <= 8.0:
        raise ValidationError("beta must lie in [0, 8]")
    if n < 8 or n & (n - 1):
        raise ValidationError("n must be a power of two, at least 8")
    _check_size(n, "n")
    freqs = np.arange(1, n // 2 + 1, dtype=float) / n
    samples = fourier_noise(freqs ** (-beta / 2.0), np.random.default_rng(seed))
    return TimeSeries(
        samples, sample_rate, label=f"powerlaw(beta={beta:g}, seed={seed})"
    )


def gen_sine_mix(
    components: Sequence[tuple[float, float, float]],
    sample_rate: float,
    n: int,
) -> TimeSeries:
    """Sum of sinusoids given as (period_s, amplitude, phase_rad) triples.

    Raises NyquistError if any period is at or below two samples.
    """
    if not components:
        raise ValidationError("need at least one component")
    if n < 2:
        raise ValidationError("need at least two samples")
    _check_size(n, "n")
    if not sample_rate > 0:
        raise ValidationError("sample_rate must be positive")
    t = np.arange(n) / sample_rate
    samples = np.zeros(n)
    for period, amplitude, phase in components:
        if period <= 2.0 / sample_rate:
            raise NyquistError(
                f"period {period:g} s is not resolvable at {sample_rate:g} Hz"
            )
        samples += amplitude * np.sin(2.0 * math.pi * t / period + phase)
    label = "+".join(f"{p:g}s" for p, _, _ in components)
    return TimeSeries(samples, sample_rate, label=f"sines({label})")


def bounce_map_trajectory(
    p: BounceParams, n: int | None = None, burn_in: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Iterate the impact map; returns (phases, velocities) after burn-in.

    The initial condition is drawn from the seeded generator, so the
    trajectory is reproducible bit for bit.  Requires ``n >= 1`` and
    ``burn_in >= 0``.  The map is iterated on Python floats: the burn-in
    keeps nothing, and the n kept impacts fill two ``array('d')`` buffers
    that the returned arrays share.  O(burn_in + n) time, O(n) memory.
    """
    n = p.n_impacts if n is None else n
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if burn_in < 0:
        raise ValidationError(f"burn_in must be >= 0, got {burn_in}")
    rng = np.random.default_rng(p.seed)
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    v = float(rng.uniform(math.pi, 3.0 * math.pi))
    r, a, two_pi = p.restitution, p.amplitude, 2.0 * math.pi
    for _ in range(burn_in):
        phi = (phi + v) % two_pi
        v = r * v - a * math.cos(phi)
    phis = array("d", [0.0]) * n
    vs = array("d", [0.0]) * n
    for k in range(n):
        phi = (phi + v) % two_pi
        v = r * v - a * math.cos(phi)
        phis[k] = phi
        vs[k] = v
    return np.frombuffer(phis), np.frombuffer(vs)


def bounce_map_jacobian(phi_next: float, p: BounceParams) -> np.ndarray:
    """Jacobian of one impact-map step, evaluated at the updated phase."""
    s = p.amplitude * math.sin(phi_next)
    return np.array([[1.0, 1.0], [s, p.restitution + s]])


def gen_bouncing_ball(p: BounceParams, sample_rate: float | None = None) -> TimeSeries:
    """Impact train of the driven bouncing map rendered as a time series.

    The map runs RENDER_BURN_IN impacts before the ``p.n_impacts`` that are
    rendered.  Each impact contributes a spike whose height is the impact
    speed, followed by an exponential ring-down with a 2 ms time constant.
    Time between impacts is the phase advance divided by the drive angular
    frequency; a small positive floor keeps degenerate (chattering)
    trajectories renderable.  A rendering longer than MAX_SAMPLES is
    refused before its samples are allocated.
    """
    if sample_rate is None:
        sample_rate = 64.0 * p.drive_freq
    if not sample_rate > 0:
        raise ValidationError("sample_rate must be positive")
    phis, vs = bounce_map_trajectory(p, burn_in=RENDER_BURN_IN)
    omega = 2.0 * math.pi * p.drive_freq
    gaps = np.maximum(np.abs(vs), 1e-3 * math.pi) / omega
    impact_times = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    duration = impact_times[-1] + 5.0 * IMPACT_RINGDOWN_S
    span = duration * sample_rate
    # The length is ceil(span) + 1 samples, checked on the float: an
    # infinite span has no ceil.
    if span > MAX_SAMPLES - 1:
        raise ValidationError(
            f"rendering at {sample_rate:g} Hz needs more than MAX_SAMPLES = "
            f"{MAX_SAMPLES} samples"
        )
    n_samples = int(math.ceil(span)) + 1
    impulses = np.zeros(n_samples)
    idx = np.minimum(np.round(impact_times * sample_rate).astype(int), n_samples - 1)
    np.add.at(impulses, idx, np.abs(vs))
    # Deferred: scipy.signal costs about half of ``import wavescope``.
    from scipy.signal import lfilter

    decay = math.exp(-1.0 / (sample_rate * IMPACT_RINGDOWN_S))
    samples = lfilter([1.0], [1.0, -decay], impulses)
    return TimeSeries(
        samples,
        sample_rate,
        label=f"bounce(A={p.amplitude:g}, r={p.restitution:g}, seed={p.seed})",
    )


def gen_binomial_cascade(p: CascadeParams) -> TimeSeries:
    """Deterministic binomial measure of length 2**levels at unit rate.

    Element i receives weight a**popcount(i) * (1-a)**(levels-popcount(i)),
    the standard dyadic multiplicative construction whose generalized Hurst
    exponents are given by :func:`cascade_hurst`.
    """
    bits = np.bitwise_count(np.arange(2**p.levels, dtype=np.uint64)).astype(np.int64)
    samples = (p.a**bits) * ((1.0 - p.a) ** (p.levels - bits))
    return TimeSeries(
        samples, 1.0, label=f"cascade(a={p.a:g}, levels={p.levels})"
    )
