"""The orthogonal 4-tap Daubechies wavelet transform with symmetric edges.

The package has one wavelet: the minimum-phase Daubechies filter with
two vanishing moments, whose scaling filter SCALING has 4 taps
(SUPPORT).  Its quadrature mirror, WAVELET, annihilates constant and
linear trends exactly; it is the MFDFA's detrending wavelet and the one
that denoise uses.

The one edge policy is symmetric reflection: the signal is mirrored at
its ends, as often as a signal shorter than the filter needs, and the
coefficient arrays are slightly redundant, with no wrap-around artifacts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import TooShortError, ValidationError

__all__ = [
    "DwtDecomposition",
    "dwt_decompose",
    "dwt_reconstruct",
    "dwt_max_level",
    "denoise",
    "extract_fluctuation",
]

#: The rules denoise applies to the detail levels.
DENOISE_RULES = ("kill_details", "soft_threshold")

#: The scaling filter, (1 + √3, 3 + √3, 3 - √3, 1 - √3) / (4 √2) in the
#: bits that the filter's spectral factorization gave; the closed form
#: rounds three of the four taps one unit in the last place away.  It sums
#: to sqrt(2) and has unit energy.
SCALING = np.array(
    [0.48296291314453416, 0.8365163037378078, 0.2241438680420134, -0.12940952255126037]
)
SCALING.flags.writeable = False

#: The quadrature mirror of SCALING, g[k] = (-1)^k h[L-1-k]: the wavelet
#: filter, with two vanishing moments.
WAVELET = (-1.0) ** np.arange(SCALING.size) * SCALING[::-1]
WAVELET.flags.writeable = False

#: The filter length.
SUPPORT = SCALING.size


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


def _analysis(x: np.ndarray, filters: Sequence[np.ndarray]):
    """One analysis step: ``x`` filtered by each of ``filters`` and
    downsampled by two, one compact array per filter."""
    ext = np.pad(x, SUPPORT - 1, mode="symmetric")
    return [np.correlate(ext, f, mode="valid")[1::2].copy() for f in filters]


def _synthesis(a, d, out_len: int):
    """Inverse of one analysis step; ``d`` is None for a dropped band."""
    up = np.zeros(2 * a.size - 1)
    up[::2] = a
    rec = np.convolve(up, SCALING)
    if d is not None:
        up[::2] = d
        rec += np.convolve(up, WAVELET)
    return rec[SUPPORT - 2 : SUPPORT - 2 + out_len]


def dwt_max_level(n: int) -> int:
    """Deepest level at which a segment still spans the filter support."""
    if n < SUPPORT:
        return 0
    return int(math.floor(math.log2(n / (SUPPORT - 1))))


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


def dwt_decompose(x: np.ndarray, levels: int) -> DwtDecomposition:
    """Multi-level discrete wavelet decomposition with symmetric edges.

    Requires ``len(x) >= 2**levels``.
    """
    approx = np.asarray(x, dtype=float)
    _check_analysis(approx, levels)
    details: list[np.ndarray] = []
    lengths: list[int] = []
    for _ in range(levels):
        lengths.append(approx.size)
        approx, d = _analysis(approx, (SCALING, WAVELET))
        details.append(d)
    return DwtDecomposition(approx=approx, details=details, lengths=lengths)


def dwt_reconstruct(decomp: DwtDecomposition) -> np.ndarray:
    """Invert a decomposition; a detail band that is None is left out.

    With every band present this reproduces the input to machine
    precision.  A subset of the bands is reconstructed by setting the
    others to None, or the approximation to zeros.
    """
    cur = decomp.approx
    for d, size in zip(reversed(decomp.details), reversed(decomp.lengths)):
        cur = _synthesis(cur, d, size)
    return cur


def denoise(x: np.ndarray, rule: str = "kill_details") -> np.ndarray:
    """Suppress broadband noise while keeping the dominant oscillation.

    The series is decomposed to ``max(1, dwt_max_level(n) - 2)`` levels.
    ``kill_details`` zeroes the finest half of them, rounded up.  The
    ``soft_threshold`` rule instead shrinks every detail coefficient by the
    universal threshold ``sigma * sqrt(2 ln n)`` with the noise scale
    estimated from the finest level's median absolute value.

    The transform has symmetric edges and takes O(n) time.  The killed
    bands are freed before synthesis and a shrunk band after its step, so
    the working memory is about 3 n floats for ``kill_details`` (4 n for
    ``soft_threshold``): the kept detail bands, one upsampled band and two
    convolutions of one synthesis step.
    """
    if rule not in DENOISE_RULES:
        raise ValidationError(f"unknown denoise rule {rule!r}")
    x = np.asarray(x, dtype=float)
    levels = max(1, dwt_max_level(x.size) - 2)
    decomp = dwt_decompose(x, levels)
    if rule == "kill_details":
        kill = math.ceil(levels / 2)
        decomp.details[:kill] = [None] * kill
        return dwt_reconstruct(decomp)
    sigma = np.median(np.abs(decomp.details[0])) / 0.6745
    thr = sigma * math.sqrt(2.0 * math.log(max(x.size, 2)))
    cur = decomp.approx
    while decomp.details:  # a band leaves the pyramid as its step takes it
        d = decomp.details.pop()
        d = np.sign(d) * np.maximum(np.abs(d) - thr, 0.0)
        cur = _synthesis(cur, d, decomp.lengths.pop())
    return cur


def extract_fluctuation(values: np.ndarray, levels: Sequence[int]) -> Iterator[np.ndarray]:
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
    fwd = _residuals(values, levels)
    rev = _residuals(values[::-1], levels)
    return (_fold(next(fwd), next(rev)) for _ in levels)


def _fold(fwd: np.ndarray, rev: np.ndarray) -> np.ndarray:
    """Average ``fwd`` with the re-reversed ``rev``, in ``fwd``."""
    fwd += rev[::-1]
    fwd *= 0.5
    return fwd


def _residuals(values, levels: list[int]):
    """``values`` minus its trend at each of ``levels``, from one pass of
    approximations: the trend is synthesised from the approximation alone."""
    lengths: list[int] = []
    approx = values
    for level in range(1, levels[-1] + 1):
        lengths.append(approx.size)
        (approx,) = _analysis(approx, (SCALING,))
        if level in levels:
            trend = approx
            for size in reversed(lengths):
                trend = _synthesis(trend, None, size)
            yield values - trend
