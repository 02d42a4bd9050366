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
    "gen_fbm",
    "gen_power_law_noise",
    "gen_sine_mix",
    "gen_bouncing_ball",
    "gen_binomial_cascade",
    "bounce_map_trajectory",
    "cascade_hurst",
]

#: Ring-down time constant of the rendered impact response, seconds.
IMPACT_RINGDOWN_S = 2e-3

#: Map impacts discarded before a bouncing-ball series is rendered.
RENDER_BURN_IN = 100

#: Most samples (or impacts) a generator makes.  At this size gen_fbm
#: holds about 12 n floats at its transforms, 1.5 GiB.  A larger request
#: is refused with ValidationError before anything is allocated.
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


def cascade_hurst(a: float, q: float) -> float:
    """Generalized Hurst exponent of the binomial cascade.

    h(q) = 1/q - ln(a**q + (1-a)**q) / (q ln 2), with the continuous
    q -> 0 limit -(ln a + ln(1-a)) / (2 ln 2).
    """
    b = 1.0 - a
    if q == 0:
        return -(math.log(a) + math.log(b)) / (2.0 * math.log(2.0))
    return 1.0 / q - math.log(a**q + b**q) / (q * math.log(2.0))


#: Lags per block of _fgn_autocovariance: its temporaries stay at 256 KiB
#: each, whatever the length.
_COV_BLOCK = 2**15


def _fgn_autocovariance(hurst: float, max_lag: int) -> np.ndarray:
    """fGn autocovariances for lags 0..max_lag, filled block by block so
    that no temporary grows with max_lag.  Each block raises |k| to 2H
    once for k = lo - 1 .. hi, the lags its second differences read."""
    two_h = 2.0 * hurst
    cov = np.empty(max_lag + 1)
    for lo in range(0, max_lag + 1, _COV_BLOCK):
        hi = min(lo + _COV_BLOCK, max_lag + 1)
        p = np.abs(np.arange(lo - 1, hi + 1, dtype=float)) ** two_h
        cov[lo:hi] = 0.5 * (p[2:] - 2.0 * p[1:-1] + p[:-2])
    return cov


def _circulant_gaussian(cov: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a stationary Gaussian vector by circulant embedding.

    ``cov`` holds autocovariances for lags 0..m with m >= n - 1.  The
    embedding size is 2m; eigenvalues of the circulant must be
    non-negative for the construction to be exact.

    One complex 2m buffer holds the circulant row, its spectrum, the
    random spectrum and the inverse transform in turn.  The eigenvalues
    stay in its real part, each bin's sqrt(lambda / 2) goes to the unused
    imaginary part of the same bin, and the draws fill the mirrored half.
    So at either transform only the buffer's 32 m bytes are live, which
    tracemalloc sees, and numpy's two FFT scratch arrays of the same
    size, which it does not: 96 m bytes.  Returns a new n-sample array.
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
    # Bins 0..m of the spectrum are read, clipped at zero in place.
    lam = spectrum[: half + 1]
    np.clip(lam, 0.0, None, out=lam)
    scale = np.divide(lam[1:half], 2.0, out=buf.imag[1:half])
    np.sqrt(scale, out=scale)
    z = buf
    z[0] = math.sqrt(lam[0]) * rng.standard_normal()
    z[half] = math.sqrt(lam[half]) * rng.standard_normal()
    # The draws go where the mirror image is written last: re, then im.
    draws = z[half + 1 :].view(float)
    rng.standard_normal(out=draws[: half - 1])
    rng.standard_normal(out=draws[half - 1 :])
    # Part by part, the product (re + i im) * scale of each bin.
    np.multiply(draws[: half - 1], scale, out=z.real[1:half])
    np.multiply(draws[half - 1 :], scale, out=scale)
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
    truncation).  The embedding is non-negative definite for 0 < H < 1,
    so an eigenvalue below -1e-9 of the largest comes from rounding in
    the autocovariance's second difference, which cancels for H near 1.
    Such a draw raises EmbeddingError; twice the lags round worse, so no
    larger embedding is tried.  Of H in {0.001, 0.01, 0.9, 0.95, ...,
    0.9999} at n = 2^8 .. 2^21 (x86-64, numpy 2.4), H >= 0.9999 was
    refused from 2^17, 0.999 from 2^18, 0.985 from 2^19, 0.97 from 2^20
    (``gen_fbm(0.97, 2**20)``) and 0.95 at 2^21.

    Requires ``n`` to be a power of two and at least 256.  O(n log n)
    time.  Memory, in 8-byte floats: at either transform, one complex
    2n-point buffer (4 n) and numpy's two FFT scratch arrays of its size
    (8 n), about 12 n in all.  tracemalloc sees about 5 n, not the
    scratch: the buffer with the n + 1 autocovariances it is filled from,
    then the buffer with the n samples, summed in place.  The resident
    growth also depends on the allocator: under glibc 2.36, freed blocks
    below its mmap threshold stay in the heap, and 2^20 samples grew a
    fresh process's RSS by 12.4 n.
    """
    if not 0.0 < hurst < 1.0:
        raise ValidationError("hurst must lie in (0, 1)")
    if n < 256 or n & (n - 1):
        raise ValidationError("n must be a power of two, at least 256")
    _check_size(n, "n")
    rng = np.random.default_rng(seed)
    fgn = _circulant_gaussian(_fgn_autocovariance(hurst, n), n, rng)
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


def _ring_down(impulses: np.ndarray, decay: float) -> np.ndarray:
    """y[k] = decay * y[k-1] + impulses[k] with y[-1] = 0, for impulses >= 0.

    These are the bits of ``scipy.signal.lfilter([1], [1, -decay], x)``.
    Its transposed direct form computes y = z + 1*x and then
    z = 0*x - (-decay)*y, so each sample is exactly fl(fl(decay*y) + x),
    and where x = 0 it is fl(decay*y).  So y is decay everywhere, zero
    before the first impulse, each impulse sample s holds
    decay * y[s-1] + x[s], and an in-place multiply.accumulate from s up
    to the next impulse applies fl(decay*y) in sequence.  O(samples) time
    plus one Python step per impulse sample.
    """
    y = np.full(impulses.size, decay)
    starts = np.flatnonzero(impulses)
    y[: starts[0] if starts.size else y.size] = 0.0
    ends = np.append(starts[1:], y.size)
    prev = 0.0
    for s, e, x in zip(starts.tolist(), ends.tolist(), impulses[starts].tolist()):
        y[s] = decay * prev + x
        run = y[s:e]
        np.multiply.accumulate(run, out=run)
        prev = float(run[-1])
    return y


def gen_bouncing_ball(p: BounceParams, sample_rate: float | None = None) -> TimeSeries:
    """Impact train of the driven bouncing map rendered as a time series.

    The map runs RENDER_BURN_IN impacts before the ``p.n_impacts`` that are
    rendered.  Each impact contributes a spike whose height is the impact
    speed, followed by an exponential ring-down with a 2 ms time constant.
    Time between impacts is the phase advance divided by the drive angular
    frequency; a small positive floor keeps degenerate (chattering)
    trajectories renderable.  A rendering longer than MAX_SAMPLES is
    refused before its samples are allocated.

    O(samples) time plus two Python costs per impact: the map on floats,
    about 0.47 s per 10^6 impacts, and one ring-down step per impact
    sample, about 3 us.  A warm render of 10^5 impacts takes 0.3-0.4 s,
    against 0.12-0.14 s with scipy.signal.lfilter, whose import alone
    takes about 0.9 s and 70 MiB; one of MAX_SAMPLES = 2^24 impacts takes
    about a minute.  Memory: the impulse train and the output, 16 bytes
    per sample, and O(impacts) for the map.
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
    decay = math.exp(-1.0 / (sample_rate * IMPACT_RINGDOWN_S))
    return TimeSeries(
        _ring_down(impulses, decay),
        sample_rate,
        label=f"bounce(A={p.amplitude:g}, r={p.restitution:g}, seed={p.seed})",
    )


def gen_binomial_cascade(a: float, levels: int) -> TimeSeries:
    """Deterministic binomial measure of length 2**levels at unit rate.

    The cascade gives weight ``a`` to the left half at every dyadic
    refinement, so element i receives a**popcount(i) *
    (1-a)**(levels-popcount(i)), the standard multiplicative construction
    whose generalized Hurst exponents are given by :func:`cascade_hurst`.
    Requires 0.5 < a < 1 and 1 <= levels <= log2(MAX_SAMPLES); a request
    outside is refused with ValidationError before anything is allocated.
    """
    if not 0.5 < a < 1.0:
        raise ValidationError("cascade weight a must lie in (0.5, 1)")
    if levels < 1:
        raise ValidationError("levels must be >= 1")
    # Compared as an exponent: 2**levels itself may be too big to build.
    if levels > math.log2(MAX_SAMPLES):
        raise ValidationError(
            f"levels = {levels} gives more than MAX_SAMPLES = {MAX_SAMPLES} samples"
        )
    bits = np.bitwise_count(np.arange(2**levels, dtype=np.uint64)).astype(np.int64)
    samples = (a**bits) * ((1.0 - a) ** (levels - bits))
    return TimeSeries(samples, 1.0, label=f"cascade(a={a:g}, levels={levels})")
