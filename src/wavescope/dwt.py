"""Orthogonal Daubechies wavelet transform with symmetric edges.

The compactly supported Daubechies family is built by spectral
factorization, for 1 to MAX_VANISHING_MOMENTS vanishing moments; above
that the root finding no longer keeps the filter orthogonal.  Naming
follows tap count in user-facing strings: the 4-tap member (two vanishing
moments, annihilates constant and linear trends exactly) is the default
detrending wavelet throughout the package; the 8-tap member (four
vanishing moments) is selectable wherever a :class:`WaveletSpec` is
accepted.

The one edge policy is symmetric reflection: the signal is mirrored at
its ends, as often as a signal shorter than the filter needs, and the
coefficient arrays are slightly redundant, with no wrap-around artifacts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import TooShortError, ValidationError

__all__ = [
    "WaveletSpec",
    "DwtDecomposition",
    "daubechies",
    "dwt_decompose",
    "dwt_reconstruct",
    "dwt_max_level",
    "denoise",
    "extract_fluctuation",
]

#: The rules denoise applies to the detail levels.
DENOISE_RULES = ("kill_details", "soft_threshold")

#: Most vanishing moments daubechies builds.  Up to here the factorized
#: filter is orthogonal within 1e-12 (max_k |sum_n h[n] h[n+2k] - delta_k|
#: was 5.9e-13 at 21 and 1.2e-12 at 22); higher orders lose it, to 0.04
#: at 50, while the sum check still passes.
MAX_VANISHING_MOMENTS = 21


@lru_cache(maxsize=32)
def _daubechies_scaling_filter(vanishing_moments: int) -> tuple[float, ...]:
    """Minimum-phase Daubechies scaling filter with ``sum(h) = sqrt(2)``.

    Constructed by factoring the Daubechies half-band polynomial: the
    binomial part contributes the ((1+z)/2)^p zeros at z=-1, the remainder
    keeps only the roots inside the unit circle.
    """
    p = vanishing_moments
    if p == 1:
        s = 1.0 / math.sqrt(2.0)
        return (s, s)
    # P(y) = sum_k C(p-1+k, k) y^k, ascending powers.
    binom = [math.comb(p - 1 + k, k) for k in range(p)]
    yroots = np.roots(binom[::-1])
    poly = np.poly1d([1.0])
    for _ in range(p):
        poly = poly * np.poly1d([0.5, 0.5])
    for y in yroots:
        # y = (2 - z - 1/z)/4  =>  z^2 + (4y - 2) z + 1 = 0
        zpair = np.roots([1.0, 4.0 * y - 2.0, 1.0])
        z0 = zpair[np.argmin(np.abs(zpair))]
        poly = poly * np.poly1d([1.0, -z0])
    h = np.real(poly.coeffs)
    h *= math.sqrt(2.0) / h.sum()
    return tuple(float(c) for c in h)


@dataclass(frozen=True)
class WaveletSpec:
    """Orthogonal wavelet described by its scaling filter.

    ``scaling`` sums to sqrt(2) to within 1e-12 and ``wavelet`` is its
    quadrature mirror, so the pair forms an exact two-channel orthogonal
    bank.  ``support`` is the filter length, 2 * vanishing_moments.
    """

    vanishing_moments: int
    scaling: np.ndarray = field(repr=False)
    wavelet: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "scaling", np.asarray(self.scaling, dtype=float))
        object.__setattr__(self, "wavelet", np.asarray(self.wavelet, dtype=float))
        if self.vanishing_moments < 1:
            raise ValidationError("vanishing_moments must be >= 1")
        if abs(self.scaling.sum() - math.sqrt(2.0)) > 1e-12:
            raise ValidationError("scaling filter does not sum to sqrt(2)")

    @property
    def support(self) -> int:
        return self.scaling.size


def daubechies(vanishing_moments: int = 2) -> WaveletSpec:
    """Daubechies wavelet with the given number of vanishing moments.

    ``daubechies(2)`` is the 4-tap filter used for detrending by default;
    ``daubechies(4)`` is the 8-tap variant.  Orders above
    MAX_VANISHING_MOMENTS are refused.
    """
    if not 1 <= vanishing_moments <= MAX_VANISHING_MOMENTS:
        raise ValidationError(
            f"vanishing_moments must lie in [1, {MAX_VANISHING_MOMENTS}], "
            f"got {vanishing_moments}"
        )
    h = np.asarray(_daubechies_scaling_filter(vanishing_moments))
    # Quadrature mirror: g[k] = (-1)^k h[L-1-k].
    L = h.size
    g = ((-1.0) ** np.arange(L)) * h[::-1]
    return WaveletSpec(vanishing_moments=vanishing_moments, scaling=h, wavelet=g)


@dataclass
class DwtDecomposition:
    """Multi-level DWT coefficient pyramid.

    ``details[j-1]`` holds level-j detail coefficients (level 1 is the
    finest), or None for a band that :func:`dwt_reconstruct` leaves out,
    so the depth is ``len(details)``; ``approx`` is the coarsest
    approximation.  ``lengths[k]`` is the signal length entering level
    k+1, needed to invert the symmetric edges.
    """

    approx: np.ndarray
    details: list[np.ndarray | None]
    lengths: list[int]
    spec: WaveletSpec


def _analysis(x: np.ndarray, filters: Sequence[np.ndarray]):
    """One analysis step: ``x`` filtered by each of ``filters`` and
    downsampled by two, one compact array per filter."""
    L = filters[0].size
    ext = np.pad(x, L - 1, mode="symmetric")
    return [np.correlate(ext, f, mode="valid")[1::2].copy() for f in filters]


def _synthesis(a, d, spec: WaveletSpec, out_len: int):
    """Inverse of one analysis step; ``d`` is None for a dropped band."""
    h, g = spec.scaling, spec.wavelet
    L = h.size
    up = np.zeros(2 * a.size - 1)
    up[::2] = a
    rec = np.convolve(up, h)
    if d is not None:
        up[::2] = d
        rec += np.convolve(up, g)
    return rec[L - 2 : L - 2 + out_len]


def dwt_max_level(n: int, spec: WaveletSpec) -> int:
    """Deepest level at which a segment still spans the filter support."""
    if n < spec.support:
        return 0
    return int(math.floor(math.log2(n / (spec.support - 1))))


def _check_analysis(x: np.ndarray, levels: int) -> None:
    """Raise as :func:`dwt_decompose` documents when ``x`` cannot be
    analysed down to ``levels``."""
    if x.ndim != 1:
        raise ValidationError("input must be one-dimensional")
    if levels < 1:
        raise ValidationError("levels must be >= 1")
    # x.size < 2**levels, compared without building 2**levels, which a
    # huge level count would make too big to form or to print.
    if levels >= x.size.bit_length():
        raise TooShortError(f"need at least 2**{levels} samples, got {x.size}")


def dwt_decompose(x: np.ndarray, spec: WaveletSpec, levels: int) -> DwtDecomposition:
    """Multi-level discrete wavelet decomposition with symmetric edges.

    Requires ``len(x) >= 2**levels``.
    """
    approx = np.asarray(x, dtype=float)
    _check_analysis(approx, levels)
    details: list[np.ndarray] = []
    lengths: list[int] = []
    for _ in range(levels):
        lengths.append(approx.size)
        approx, d = _analysis(approx, (spec.scaling, spec.wavelet))
        details.append(d)
    return DwtDecomposition(approx=approx, details=details, lengths=lengths, spec=spec)


def dwt_reconstruct(decomp: DwtDecomposition) -> np.ndarray:
    """Invert a decomposition; a detail band that is None is left out.

    With every band present this reproduces the input to machine
    precision.  A subset of the bands is reconstructed by setting the
    others to None, or the approximation to zeros.
    """
    cur = decomp.approx
    for d, size in zip(reversed(decomp.details), reversed(decomp.lengths)):
        cur = _synthesis(cur, d, decomp.spec, size)
    return cur


def denoise(
    x: np.ndarray,
    spec: WaveletSpec | None = None,
    levels: int | None = None,
    rule: str = "kill_details",
    kill_count: int | None = None,
) -> np.ndarray:
    """Suppress broadband noise while keeping the dominant oscillation.

    ``kill_details`` zeroes the finest ``kill_count`` detail levels
    (default: half of the decomposition depth, rounded up).  The
    ``soft_threshold`` rule instead shrinks every detail coefficient by the
    universal threshold ``sigma * sqrt(2 ln n)`` with the noise scale
    estimated from the finest level's median absolute value.

    The transform has symmetric edges.  For an L-tap wavelet this takes
    O(L n) time.  The killed bands are freed before synthesis and a shrunk
    band after its step, so the working memory is about 3 n floats for
    ``kill_details`` (4 n for ``soft_threshold``): the kept detail bands,
    one upsampled band and two convolutions of one synthesis step.
    """
    if rule not in DENOISE_RULES:
        raise ValidationError(f"unknown denoise rule {rule!r}")
    x = np.asarray(x, dtype=float)
    spec = spec if spec is not None else daubechies(2)
    if levels is None:
        levels = max(1, dwt_max_level(x.size, spec) - 2)
    decomp = dwt_decompose(x, spec, levels)
    if rule == "kill_details":
        kill = math.ceil(levels / 2) if kill_count is None else kill_count
        if not 0 <= kill <= levels:
            raise ValidationError(f"kill_count must lie in [0, {levels}]")
        decomp.details[:kill] = [None] * kill
        return dwt_reconstruct(decomp)
    sigma = np.median(np.abs(decomp.details[0])) / 0.6745
    thr = sigma * math.sqrt(2.0 * math.log(max(x.size, 2)))
    cur = decomp.approx
    while decomp.details:  # a band leaves the pyramid as its step takes it
        d = decomp.details.pop()
        d = np.sign(d) * np.maximum(np.abs(d) - thr, 0.0)
        cur = _synthesis(cur, d, spec, decomp.lengths.pop())
    return cur


def extract_fluctuation(
    values: np.ndarray, spec: WaveletSpec, levels: Sequence[int]
) -> Iterator[np.ndarray]:
    """Bandpass fluctuation of a profile around its trend at each of
    ``levels``, an ascending sequence of levels >= 1.

    The trend is the wavelet approximation at the level.  To keep edge
    distortion symmetric, the residual is computed on the profile and on
    its time reversal and the two are averaged after re-reversal.

    The arguments are checked at the call, and the result is an iterator
    that builds one array per level, in order, when it is asked for the
    next: a caller that reduces each array before asking for the next
    holds O(1) length-n arrays.  Each direction is decomposed once, down
    to the deepest level (Mallat's pyramid), and the trend is synthesised
    from the approximation alone: O(n log n) time for n samples and about
    5.5 length-n arrays of working memory, the first-level approximations
    of both pyramids, one synthesis step and the two residuals.
    """
    values = np.asarray(values, dtype=float)
    levels = [operator.index(j) for j in levels]
    if not levels or levels[0] < 1 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValidationError("levels must be ascending and >= 1")
    _check_analysis(values, levels[-1])
    # Both pyramids advance together; each level's reversed residual is
    # folded into the forward one in place, and no name holds a level's
    # array once it is handed out.
    fwd = _residuals(values, spec, levels)
    rev = _residuals(values[::-1], spec, levels)
    return (_fold(next(fwd), next(rev)) for _ in levels)


def _fold(fwd: np.ndarray, rev: np.ndarray) -> np.ndarray:
    """Average ``fwd`` with the re-reversed ``rev``, in ``fwd``."""
    fwd += rev[::-1]
    fwd *= 0.5
    return fwd


def _residuals(values, spec: WaveletSpec, levels: list[int]):
    """``values`` minus its trend at each of ``levels``, from one pass of
    approximations: the trend is synthesised from the approximation alone."""
    lengths: list[int] = []
    approx = values
    for level in range(1, levels[-1] + 1):
        lengths.append(approx.size)
        (approx,) = _analysis(approx, (spec.scaling,))
        if level in levels:
            trend = approx
            for size in reversed(lengths):
                trend = _synthesis(trend, None, spec, size)
            yield values - trend
