"""Largest Lyapunov exponent estimation for series and for the impact map.

The series estimator follows the divergence-tracing recipe: delay
embedding, nearest neighbor per point outside a Theiler exclusion window,
then the average log separation as a function of forward iteration.  The
slope of its initial linear region is the exponent.  The sign is the
primary deliverable; magnitudes are meaningful only when the linear
region is clean, which the fit diagnostics report.  The embedding
dimension check (false nearest neighbors) reuses the estimator's pairs.

For the impact map itself the exponent comes from tangent-space norm
growth along the trajectory, which serves as the ground-truth oracle for
the series estimator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmbeddingQualityWarning,
    InsufficientNeighborsError,
    ValidationError,
)
from .signal_core import TimeSeries, fit_line
from .synth import BounceParams, bounce_map_trajectory

__all__ = [
    "EmbeddingConfig",
    "LyapunovResult",
    "estimate_delay",
    "largest_lyapunov",
    "map_lyapunov",
]

#: Autocorrelation level treated as the zero crossing.  Sample ACFs of
#: long-memory signals approach zero without a sign change, so the first
#: drop below this floor is used as the crossing by convention.
ACF_ZERO_LEVEL = 0.05

#: Bins per axis of the joint histogram behind the mutual information
#: that estimate_delay falls back on.
MI_BINS = 16

#: Least r-squared of the fitted prefix of a divergence curve; a prefix
#: within 0.005 of the best r-squared also passes (see _linear_region).
R2_FLOOR = 0.95

#: Neighbor distance amplification that marks a false nearest neighbor.
FNN_THRESHOLD = 15.0
FNN_WARN_FRACTION = 0.10

#: Rows per kd-tree query in the neighbor search; bounds the candidate
#: arrays a query holds whatever the number of embedded points.
_QUERY_ROWS = 1024


@dataclass(frozen=True)
class EmbeddingConfig:
    """Delay-embedding layout for the divergence estimator.

    ``theiler`` defaults to dim * delay; ``max_iter`` caps how far pairs
    are traced and defaults to a length-based heuristic.
    """

    dim: int = 5
    delay: int = 1
    theiler: int | None = None
    max_iter: int | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError("embedding dim must be >= 2")
        if self.delay < 1:
            raise ValidationError("delay must be >= 1")
        if self.theiler is not None and self.theiler < 0:
            raise ValidationError("theiler window must be >= 0")

    def theiler_window(self) -> int:
        return self.dim * self.delay if self.theiler is None else self.theiler


@dataclass(frozen=True)
class LyapunovResult:
    """Divergence slope and fit diagnostics of one caller-given embedding."""

    exponent: float
    fit_range: tuple[int, int]
    r_squared: float
    n_pairs: int
    divergence: np.ndarray

    @property
    def positive(self) -> bool:
        return self.exponent > 0


def _autocorr(x: np.ndarray, max_lag: int) -> np.ndarray:
    x = x - x.mean()
    n = x.size
    nfft = 1 << int(math.ceil(math.log2(2 * n)))
    spec = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(spec * np.conj(spec))[: max_lag + 1]
    if acov[0] <= 0:
        raise ValidationError("constant signal has no autocorrelation structure")
    return acov / acov[0]


def _mutual_information(x: np.ndarray, lag: int) -> float:
    a = x[:-lag]
    b = x[lag:]
    joint, _, _ = np.histogram2d(a, b, bins=MI_BINS)
    joint /= joint.sum()
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    return float(np.sum(joint[mask] * np.log(joint[mask] / (pa @ pb)[mask])))


def estimate_delay(ts: TimeSeries) -> int:
    """Embedding delay of ``ts`` from the autocorrelation zero crossing.

    Returns the first lag where the sample ACF drops below 0.05 (the
    documented zero-crossing convention).  If that never happens within
    N/4 lags, falls back to the first local minimum of the lag-binned
    mutual information, computed lag by lag and stopped there; with no
    such minimum, to the lag where the ACF is smallest.  At least 256
    samples are required.

    Cost: O(N log N) for the ACF, plus O(N) per mutual-information lag up
    to the stop lag L (the minimum plus one, else N/4); memory O(N).
    """
    data = ts.samples
    if data.size < 256:
        raise ValidationError("need at least 256 samples to estimate a delay")
    max_lag = data.size // 4
    rho = _autocorr(data, max_lag)
    below = np.flatnonzero(rho[1:] < ACF_ZERO_LEVEL)
    if below.size:
        return int(below[0] + 1)
    # mi(lag - 1) is a local minimum when it is below mi(lag - 2) and not
    # above mi(lag); only the last three values are needed.
    before = prev = math.nan
    for lag in range(1, max_lag + 1):
        cur = _mutual_information(data, lag)
        if prev < before and prev <= cur:
            return lag - 1
        before, prev = prev, cur
    return int(np.argmin(rho[1:]) + 1)


def _embed(x: np.ndarray, dim: int, delay: int) -> np.ndarray:
    m = x.size - (dim - 1) * delay
    idx = np.arange(m)[:, None] + delay * np.arange(dim)[None, :]
    return x[idx]


def _split_sse(k: np.ndarray, y: np.ndarray, min_len: int) -> np.ndarray:
    """Two-segment residual sum of squares at each breakpoint b in
    min_len..n - min_len, the segments being [0, b) and [b, n).

    Closed form from prefix sums of the centred k, y, k^2, ky and y^2,
    O(n) time and memory.  Its rounding error is a small multiple of
    eps * n * sum(y^2), which is what the knee screen's tolerance covers.
    """
    kc = k - k.mean()
    yc = y - y.mean()
    sums = np.zeros((6, k.size + 1))
    sums[0, 1:] = 1.0
    for row, term in enumerate((kc, yc, kc * kc, kc * yc, yc * yc), start=1):
        sums[row, 1:] = term
    np.cumsum(sums, axis=1, out=sums)
    b = np.arange(min_len, k.size - min_len + 1)

    def sse(seg):
        cnt, sk, sy, skk, sky, syy = seg
        sxx = skk - sk * sk / cnt
        sxy = sky - sk * sy / cnt
        return syy - sy * sy / cnt - sxy * sxy / sxx

    return sse(sums[:, b]) + sse(sums[:, -1:] - sums[:, b])


def _linear_region(k: np.ndarray, y: np.ndarray):
    """Initial linear region of the divergence curve.

    Divergence curves rise linearly until neighbor separations reach the
    attractor size, then flatten.  A two-segment least-squares breakpoint
    locates that knee; the fit window is then the prefix (anchored at the
    first traced iteration) ending at or before the knee with the highest
    r-squared, which keeps knee curvature from tilting the slope.  Flat
    or oscillating curves have no knee worth speaking of; the same rule
    then returns a near-zero slope, which is the honest answer.

    The knee is the breakpoint whose two ``fit_line`` fits leave the
    smallest total residual, the first such on a tie.  ``_split_sse``
    screens every breakpoint in O(n); only those within 1e-9 sum(y^2) of
    the screened minimum, far above its rounding error, are refitted with
    ``fit_line`` and ranked, so the pick has ``fit_line``'s bits.  The
    tolerance scales with the uncentred sum because ``fit_line``'s
    residuals round on the scale of y, not of y - mean(y): scaled on the
    centred sum, ulp-scale ramps on a constant lost their knee.  An
    all-zero curve has a zero tolerance and refits every breakpoint.
    O(n) time for n points, plus two fits of O(n) per screened breakpoint
    and one fit per prefix length up to the trimmed knee.
    """
    start = 1 if y.size > 5 else 0
    kk = k[start:]
    yy = y[start:]
    n = yy.size
    min_len = 4
    if n <= 2 * min_len:
        slope, _, r2, _ = fit_line(kk, yy)
        return slope, (int(kk[0]), int(kk[-1])), r2

    def sse(lo: int, hi: int) -> float:
        return fit_line(kk[lo:hi], yy[lo:hi])[3]

    screened = _split_sse(kk, yy, min_len)
    tol = 1e-9 * float(np.sum(yy * yy))
    candidates = min_len + np.flatnonzero(screened <= screened.min() + tol)
    knee, knee_sse = min(
        ((b, sse(0, b) + sse(b, n)) for b in candidates.tolist()),
        key=lambda t: t[1],
    )
    # A knee only exists when breaking the curve in two explains it far
    # better than one line does.  Oscillating or flat curves fail this
    # test, and for those the whole-curve trend is the right slope: the
    # mean of an oscillation, not its rising quarter-wave.
    if knee_sse > 0.5 * sse(0, n):
        slope, _, r2, _ = fit_line(kk, yy)
        return slope, (int(kk[0]), int(kk[-1])), r2
    # The breakpoint tends to land past the bend (the long flat side
    # dominates the cost), so trim the prefix where the local slope first
    # sags below 85% of the initial slope, two-point smoothed.
    prefix_end = knee
    inc = np.diff(yy[: knee + 1])
    s0 = float(np.mean(inc[:3]))
    if s0 > 0:
        for i in range(inc.size - 1):
            if 0.5 * (inc[i] + inc[i + 1]) < 0.85 * s0:
                prefix_end = max(min_len, i + 1)
                break
    lengths = range(min_len, prefix_end + 1)
    r2_by_len = {m: fit_line(kk[:m], yy[:m])[2] for m in lengths}
    top = max(r2_by_len.values())
    floor_eff = max(R2_FLOOR, top - 0.005)
    passing = [m for m in lengths if r2_by_len[m] >= floor_eff]
    if passing:
        best = max(passing)
    else:
        best = max(m for m in lengths if r2_by_len[m] >= top - 0.005)
    slope, _, r2, _ = fit_line(kk[:best], yy[:best])
    return slope, (int(kk[0]), int(kk[best - 1])), r2


def _first_partner(tree, emb, rows, k, theiler, floor):
    """Nearest of each row's ``k`` nearest neighbors outside the Theiler
    window and above the separation floor, with its distance; -1 where
    none qualifies.

    The tree is asked about ``_QUERY_ROWS`` rows at a time, so a call holds
    O(min(u, _QUERY_ROWS) k) candidates for u rows; each row's pick reads
    only its own distance-sorted list, so it does not depend on the split.
    """
    partner = np.empty(rows.size, dtype=np.intp)
    sep = np.empty(rows.size)
    for lo in range(0, rows.size, _QUERY_ROWS):
        block = rows[lo : lo + _QUERY_ROWS]
        dist, idx = tree.query(emb[block], k=k + 1)
        ok = (np.abs(idx[:, 1:] - block[:, None]) > theiler) & (dist[:, 1:] > floor)
        first = 1 + np.argmax(ok, axis=1)  # column 0 is the point itself
        at = np.arange(block.size)
        partner[lo : lo + block.size] = np.where(ok.any(axis=1), idx[at, first], -1)
        sep[lo : lo + block.size] = dist[at, first]
    return partner, sep


def _divergence(x, dim, delay, pairs_a, pairs_b, max_iter):
    """Mean log separation of the embedded pairs over 0..max_iter steps;
    -inf at a step where every pair coincides.

    Row p of the embedding difference at step k has column j equal to
    x[pairs_a[p] + s] - x[pairs_b[p] + s] at shift s = k + j delay, so
    steps k and k + delay share dim - 1 shifts.  The steps are walked one
    residue class mod ``delay`` at a time, in order, with the class's
    current dim squared shifted differences held in a ring of rows: the
    first step of a class gathers all dim shifts, every later one gathers
    only its last.  That is (max_iter + 1) + min(delay, max_iter + 1)
    (dim - 1) gathers instead of (max_iter + 1) dim.  Each step sums the
    ring rows in column order, j = 0 to dim - 1, into one reused pairs
    buffer and takes its square root there.  O(max_iter pairs dim) time,
    O(pairs dim) memory.
    """
    steps = max_iter + 1
    divergence = np.empty(steps)
    ring = np.empty((dim, pairs_a.size))
    d = np.empty(pairs_a.size)
    for first in range(min(delay, steps)):
        for i, k in enumerate(range(first, steps, delay)):
            # Column j holds shift index t = i + j of the class, in slot t % dim.
            for j in range(dim) if i == 0 else (dim - 1,):
                xs = x[k + j * delay :]
                row = ring[(i + j) % dim]
                np.subtract(xs[pairs_a], xs[pairs_b], out=row)
                np.multiply(row, row, out=row)
            np.add(ring[i % dim], ring[(i + 1) % dim], out=d)
            for j in range(2, dim):
                np.add(d, ring[(i + j) % dim], out=d)
            np.sqrt(d, out=d)
            # Without a coincident pair the log runs in place: the same
            # values in the same order as the copy d[d > 0], so the same mean.
            if d.min() > 0:
                divergence[k] = float(np.mean(np.log(d, out=d)))
            elif d.max() > 0:
                divergence[k] = float(np.mean(np.log(d[d > 0])))
            else:
                divergence[k] = -np.inf
    return divergence


def largest_lyapunov(
    ts: TimeSeries, config: EmbeddingConfig | None = None
) -> LyapunovResult:
    """Largest Lyapunov exponent of a scalar series, in 1/seconds.

    A flat or contracting divergence curve yields a non-positive slope;
    the estimate's sign is its robust content.  Requires at least 1000
    samples.  Raises InsufficientNeighborsError when fewer than 10 valid
    neighbor pairs exist, naming the cause: points with no partner outside
    the Theiler window among their k nearest (k = min(2 * theiler + 3, 64,
    m - 1)), and, where the separation floor of 1e-9 std alone dropped
    enough of those partners, that the series repeats itself to rounding;
    or pairs too close to the end to trace.  A
    false-nearest-neighbor fraction above 10%, measured over the
    estimator's own partner pairs, triggers EmbeddingQualityWarning.

    Cost for m embedded points: the embedding and kd-tree O(m dim)
    memory, O(m log m) time to build; the first neighbor pass (two
    candidates per point) O(m log m); the second pass, over the u points
    the first left without a partner, O(u k log m) time.  Both passes ask
    the tree 1024 rows at a time, so their candidates take
    O(min(u, 1024) k) memory.  The divergence trace reads the series
    itself once the embedding and tree are freed: (max_iter + 1) +
    min(delay, max_iter + 1) (dim - 1) gathers of pairs values,
    O(max_iter * pairs * dim) time and O(pairs * dim) memory.  The knee
    search on the traced curve screens every breakpoint in O(max_iter)
    and refits only the c breakpoints the screen keeps (one or a few on
    a divergence curve, every one on an all-zero curve), then fits each
    prefix up to the trimmed knee p: O(max_iter c + p^2) time, where
    fitting every breakpoint took O(max_iter^2) on its own.
    """
    config = config if config is not None else EmbeddingConfig()
    x = ts.samples
    n = x.size
    if n < 1000:
        raise ValidationError("need at least 1000 samples")
    if (config.dim - 1) * config.delay >= n // 2:
        raise ValidationError("embedding window exceeds half the series")
    theiler = config.theiler_window()

    emb = _embed(x, config.dim, config.delay)
    m = emb.shape[0]
    max_iter = config.max_iter
    if max_iter is None:
        max_iter = int(min(300, m // 4))
    if max_iter < 8:
        raise ValidationError("series too short for divergence tracing")

    # Deferred: scipy.spatial costs about a fifth of ``import wavescope``,
    # and only this estimator needs it.
    from scipy.spatial import cKDTree

    tree = cKDTree(emb)
    # Enough candidates to jump the Theiler window in ordinary data, but
    # capped so the query stays affordable on long series.
    k_query = min(2 * theiler + 3, 64, m - 1)
    # Separations at rounding-noise scale carry no dynamics (they arise
    # from exact repeats of a periodic signal), so such pairs are skipped.
    floor = 1e-9 * float(np.std(x))
    rows = np.arange(m)
    # Most rows find their partner among the two nearest candidates; only
    # the rest pay for the full candidate list.  Both passes read the same
    # distance-sorted list, so the pick does not depend on the split.
    partner, sep = _first_partner(tree, emb, rows, 2, theiler, floor)
    unresolved = np.flatnonzero(partner < 0)
    if unresolved.size:
        partner[unresolved], sep[unresolved] = _first_partner(
            tree, emb, unresolved, k_query, theiler, floor
        )
    found = partner >= 0
    # False nearest neighbors among these pairs; both points need the
    # (dim+1)-th delay coordinate.
    ext = config.dim * config.delay
    has_ext = found & (rows < m - config.delay) & (partner < m - config.delay)
    if np.count_nonzero(has_ext) >= 32:
        extra = np.abs(x[rows[has_ext] + ext] - x[partner[has_ext] + ext])
        fnn = np.mean(extra / sep[has_ext] > FNN_THRESHOLD)
        if fnn > FNN_WARN_FRACTION:
            warnings.warn(
                f"false-nearest-neighbor fraction {fnn:.1%} at dim={config.dim}; "
                "consider a larger embedding dimension",
                EmbeddingQualityWarning,
                stacklevel=2,
            )

    valid = np.flatnonzero(found)
    if valid.size < 10:
        # The points the floor alone left without a partner: each has
        # candidates outside the window, and all of them lie at or below it.
        unfloored, _ = _first_partner(
            tree, emb, np.flatnonzero(~found), k_query, theiler, -1.0
        )
        repeats = np.count_nonzero(unfloored >= 0)
        cause = (
            f"; for {repeats} of them every candidate outside the window lies "
            f"at or below the separation floor {floor:.3g} (1e-9 std): the "
            "series repeats itself to rounding, as an exactly periodic signal does"
            if valid.size + repeats >= 10
            else ""
        )
        raise InsufficientNeighborsError(
            f"only {valid.size} of {m} embedded points have a neighbor outside "
            f"the Theiler window of {theiler} samples among their {k_query} "
            f"nearest (need >= 10); {m - valid.size} have none{cause}"
        )
    # Both trajectories must stay inside the embedding for the full trace.
    n_found = valid.size
    valid = valid[(valid < m - max_iter) & (partner[valid] < m - max_iter)]
    if valid.size < 10:
        raise InsufficientNeighborsError(
            f"only {valid.size} of {n_found} neighbor pairs stay inside the "
            f"embedding for max_iter = {max_iter} steps (need >= 10); the "
            "series is too short for divergence tracing"
        )

    # The trace reads the series itself; free the embedding and the tree.
    del emb, tree
    divergence = _divergence(x, config.dim, config.delay, valid, partner[valid], max_iter)
    steps = np.arange(max_iter + 1)
    usable = np.isfinite(divergence)
    slope, fit_range, r2 = _linear_region(steps[usable], divergence[usable])
    return LyapunovResult(
        exponent=float(slope * ts.sample_rate),
        fit_range=fit_range,
        r_squared=r2,
        n_pairs=int(valid.size),
        divergence=divergence,
    )


#: Veltkamp's splitting constant for doubles, 2**27 + 1: ``a`` splits
#: exactly into a 26-bit high part and a remainder of at most 26 bits.
_SPLIT = 134217729.0
#: Bounds on |a|, |b| and |a * b| inside which the split cannot overflow
#: and the rounding error of ``a * b`` is itself an exact double.
_FMA_MAX = 2.0**900
_FMA_MIN = 2.0**-900


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c with a single rounding.

    The common case runs on floats: ``p = a * b`` and its exact rounding
    error ``e`` come from Dekker's (1971) error-free product on
    Veltkamp-split halves, so ``p + e + c`` is exactly ``a * b + c``, and
    ``math.fsum`` (Shewchuk's correctly rounded summation) rounds it once.
    That path is taken only when it is provably exact and finite:
    ``|a|``, ``|b|`` and ``|p|`` at most 2**900, ``|p|`` at least 2**-900
    and ``c`` finite.  Everything else (zero or subnormal products, an
    exact-zero result, non-finite or huge inputs) goes through exact
    integer arithmetic: every finite double is an integer over a power of
    two, so the sum is one exact fraction, and CPython's int / int true
    division rounds it correctly.  An exact zero takes the IEEE sign: that
    of ``a * b + c`` when the product is a zero, else +0.0.  Non-finite
    inputs raise from ``float.as_integer_ratio`` (ValueError for NaN,
    OverflowError for an infinity); a result beyond the largest double
    raises OverflowError.  About 0.3 us per call on the float path, 0.7 us
    on the exact one (CPython 3.11, one core of a 2-core x86-64 host).
    """
    p = a * b
    if (
        _FMA_MIN <= abs(p) <= _FMA_MAX
        and abs(a) <= _FMA_MAX
        and abs(b) <= _FMA_MAX
        and math.isfinite(c)
    ):
        t = _SPLIT * a
        ah = t - (t - a)
        al = a - ah
        t = _SPLIT * b
        bh = t - (t - b)
        bl = b - bh
        e = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
        r = math.fsum((p, e, c))
        if r:
            return r
    return _fma_exact(a, b, c)


def _fma_exact(a: float, b: float, c: float) -> float:
    """The exact-integer form of ``_fma``, for every case its float path
    does not cover."""
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    cn, cd = c.as_integer_ratio()
    num = an * bn * cd + cn * ad * bd
    if num == 0:
        return a * b + c if an == 0 or bn == 0 else 0.0
    return num / (ad * bd * cd)


def map_lyapunov(p: BounceParams, burn_in: int = 1000) -> float:
    """Largest exponent of the impact map via tangent norm growth, per impact.

    With zero drive amplitude the phase direction is neutral and the
    dynamics reduce to pure velocity contraction, so the exponent is
    log(restitution) exactly; that branch is returned in closed form.
    Requires ``p.n_impacts`` >= 10**4 for the iterated estimate.

    The tangent vector is advanced on scalars by the map's Jacobian
    [[1, 1], [s, r + s]] with s = A sin(phi): the second row is the
    exactly rounded fma(s, u0, (r + s) u1), which gives the bits of the
    2x2 matrix product under a BLAS that evaluates that row with a fused
    multiply-add, as OpenBLAS does.  ``_fma`` computes it on floats
    (Dekker's error-free product, then ``math.fsum``) whenever the
    product and its factors lie within 2**±900, which holds on every
    impact of the benchmark presets; other cases fall back to exact
    integer arithmetic.  The loop runs on Python floats (the phases read
    through the array's buffer), about 0.55 us per impact on one core of
    a 2-core x86-64 host.  Time is O(burn_in + n_impacts); memory is
    O(n_impacts), the trajectory's phases held in one array.
    """
    if p.amplitude == 0.0:
        return math.log(p.restitution)
    n = p.n_impacts
    if n < 10_000:
        raise ValidationError("need at least 10**4 impacts for the map estimate")
    # Extra leading impacts let the tangent vector align with the leading
    # direction before accumulation starts.
    align = 200
    phis, _ = bounce_map_trajectory(p, n=align + n, burn_in=burn_in)
    a, r = p.amplitude, p.restitution
    u0 = u1 = 1.0 / math.sqrt(2.0)
    log_sum = 0.0
    for k, phi in enumerate(memoryview(phis)):
        s = a * math.sin(phi)
        u0, u1 = u0 + u1, _fma(s, u0, (r + s) * u1)
        norm = math.hypot(u0, u1)
        u0 /= norm
        u1 /= norm
        if k >= align:
            log_sum += math.log(norm)
    return log_sum / n
