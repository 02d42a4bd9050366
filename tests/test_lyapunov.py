import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.spatial

from wavescope import (
    EmbeddingQualityWarning,
    InsufficientNeighborsError,
    ValidationError,
)
from wavescope import lyapunov
from wavescope.lyapunov import (
    EmbeddingConfig,
    estimate_delay,
    largest_lyapunov,
    map_lyapunov,
)
from wavescope.signal_core import TimeSeries, fit_line
from wavescope.synth import (
    BounceParams,
    bounce_map_trajectory,
    gen_bouncing_ball,
    gen_fbm,
)

from map_oracle import bounce_map_jacobian


def _logistic(n, x0=0.3, burn=200):
    x = x0
    for _ in range(burn):
        x = 4.0 * x * (1.0 - x)
    out = np.empty(n)
    for i in range(n):
        x = 4.0 * x * (1.0 - x)
        out[i] = x
    return TimeSeries(out, 1.0)


# ------------------------------------------------------------ delay choice


def test_estimate_delay_sine_quarter_period():
    rate, f0, n = 100.0, 2.3, 2048
    t = np.arange(n) / rate
    ts = TimeSeries(np.sin(2 * np.pi * f0 * t), rate)
    tau = estimate_delay(ts)
    quarter = rate / f0 / 4.0
    assert abs(tau - quarter) <= 1.0


def test_estimate_delay_white_noise_is_one():
    rng = np.random.default_rng(0)
    ts = TimeSeries(rng.standard_normal(2048), 1.0)
    assert estimate_delay(ts) == 1


def test_estimate_delay_ar1_matches_analytic():
    # AR(1) with a = 0.9: rho(k) = 0.9^k drops below 0.05 at k = 29
    rng = np.random.default_rng(1)
    n = 2**15
    x = np.empty(n)
    x[0] = rng.standard_normal()
    eps = rng.standard_normal(n)
    for i in range(1, n):
        x[i] = 0.9 * x[i - 1] + eps[i]
    tau = estimate_delay(TimeSeries(x, 1.0))
    # sample ACF noise near the threshold crossing moves the lag a little
    analytic = math.ceil(math.log(0.05) / math.log(0.9))
    assert abs(tau - analytic) <= 5


def test_estimate_delay_needs_samples():
    with pytest.raises(ValidationError):
        estimate_delay(TimeSeries(np.arange(100.0), 1.0))


def test_mutual_information_scan_stops_at_first_minimum(monkeypatch):
    # The ACF of this realisation never drops below 0.05, so the delay is
    # the first local minimum of the mutual information, at lag 75; the
    # scan needs lag 76 to see it and nothing beyond.
    calls = []
    real = lyapunov._mutual_information

    def counting(x, lag, *args, **kwargs):
        calls.append(lag)
        return real(x, lag, *args, **kwargs)

    monkeypatch.setattr(lyapunov, "_mutual_information", counting)
    assert estimate_delay(gen_fbm(0.7, 2**14, seed=1)) == 75
    assert calls == list(range(1, 77))


# ------------------------------------------------------- embedding config


def test_embedding_config_validation():
    with pytest.raises(ValidationError):
        EmbeddingConfig(dim=1)
    with pytest.raises(ValidationError):
        EmbeddingConfig(dim=3, delay=0)
    cfg = EmbeddingConfig(dim=4, delay=3)
    assert cfg.theiler_window() == 12


# --------------------------------------------------------- exponent signs


def test_logistic_map_exponent_is_ln2():
    res = largest_lyapunov(_logistic(5000), EmbeddingConfig(dim=2, delay=1))
    assert res.exponent == pytest.approx(math.log(2.0), abs=0.02)
    assert res.positive
    assert res.r_squared > 0.99


def test_sinusoid_is_not_flagged_chaotic():
    rate, f0, n = 100.0, 2.3, 4000
    t = np.arange(n) / rate
    ts = TimeSeries(np.sin(2 * np.pi * f0 * t), rate)
    res = largest_lyapunov(ts, EmbeddingConfig(dim=5, delay=estimate_delay(ts)))
    assert abs(res.exponent) / f0 <= 0.05


def test_result_is_deterministic():
    ts = _logistic(3000)
    cfg = EmbeddingConfig(dim=2, delay=1)
    a = largest_lyapunov(ts, cfg)
    b = largest_lyapunov(ts, cfg)
    assert a.exponent == b.exponent
    assert a.fit_range == b.fit_range
    assert np.array_equal(a.divergence, b.divergence)


def test_too_short_series_rejected():
    with pytest.raises(ValidationError):
        largest_lyapunov(TimeSeries(np.random.default_rng(0).standard_normal(500), 1.0))


def test_no_valid_pairs_when_theiler_exceeds_span():
    # dim=5, delay=100 on 1000 samples: the Theiler exclusion (500) is wider
    # than the index range that survives trace trimming, so no pair is usable
    rng = np.random.default_rng(3)
    ts = TimeSeries(rng.standard_normal(1000), 1.0)
    with pytest.raises(InsufficientNeighborsError, match="max_iter = 150 steps"):
        largest_lyapunov(ts, EmbeddingConfig(dim=5, delay=100))


def test_missing_partners_name_the_window_and_the_cap():
    # On a ramp every point's 64 nearest neighbors are its 32 predecessors
    # and successors, all inside a 100-sample Theiler window.
    ts = TimeSeries(np.arange(2000.0), 1.0)
    with pytest.raises(
        InsufficientNeighborsError,
        match=r"only 0 of 1999 .* Theiler window of 100 samples among their 64 "
        r"nearest .* 1999 have none",
    ):
        largest_lyapunov(ts, EmbeddingConfig(dim=2, delay=1, theiler=100))


def test_exact_repeats_are_named_as_the_cause():
    # A 300-sample period tiled 20 times: every candidate outside the
    # Theiler window is an exact repeat, dropped by the 1e-9 std floor.
    # The ramp's candidates all lie inside its window, so it names none.
    tiled = np.tile(np.random.default_rng(0).standard_normal(300), 20)
    with pytest.raises(InsufficientNeighborsError) as refused:
        largest_lyapunov(TimeSeries(tiled, 100.0), EmbeddingConfig(dim=3, delay=2))
    assert re.fullmatch(
        r"only 0 of 5996 .* Theiler window of 6 samples among their 15 nearest "
        r"\(need >= 10\); 5996 have none; for 5996 of them every candidate "
        r"outside the window lies at or below the separation floor \S+ "
        r"\(1e-9 std\): the series repeats itself to rounding, .*",
        str(refused.value),
    )
    with pytest.raises(InsufficientNeighborsError) as ramp:
        largest_lyapunov(TimeSeries(np.arange(2000.0), 1.0), EmbeddingConfig(2, 1, 100))
    assert str(ramp.value).endswith("1999 have none")


def test_fnn_warning_on_undersized_embedding():
    ts = _logistic(4000)
    with pytest.warns(EmbeddingQualityWarning):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            largest_lyapunov(ts, EmbeddingConfig(dim=2, delay=7))


# ------------------------------------------------------ neighbor search


def _brute_force_divergence(x, dim, delay):
    """Partner search and divergence curve from the full distance matrix.

    Also returns each point's partner rank in its sorted candidate list
    (0 where no candidate within the cap qualifies).
    """
    m = x.size - (dim - 1) * delay
    emb = x[np.arange(m)[:, None] + delay * np.arange(dim)[None, :]]
    theiler = dim * delay
    max_iter = min(300, m // 4)
    k = min(2 * theiler + 3, 64, m - 1)
    floor = 1e-9 * np.std(x)
    dist = np.sqrt(((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2))
    a, b = [], []
    ranks = np.zeros(m, dtype=int)
    for i in range(m):
        # column 0 of the sorted row is the point itself
        order = np.argsort(dist[i], kind="stable")[1 : k + 1]
        for rank, j in enumerate(order, start=1):
            if abs(j - i) > theiler and dist[i, j] > floor:
                ranks[i] = rank
                if i < m - max_iter and j < m - max_iter:
                    a.append(i)
                    b.append(j)
                break
    a, b = np.array(a), np.array(b)
    divergence = np.array(
        [
            np.mean(np.log(np.linalg.norm(emb[a + s] - emb[b + s], axis=1)))
            for s in range(max_iter + 1)
        ]
    )
    return a.size, divergence, ranks


def test_neighbor_search_matches_brute_force():
    # The logistic map finds nearly every partner among the two nearest
    # candidates.  On the smooth fBm, with a 33-sample Theiler window, most
    # points' nearest neighbors are their own temporal neighbors: the
    # partner lies deeper in the list, and for a few not within the cap.
    cases = [(_logistic(1000), 2, 1), (gen_fbm(0.7, 1024, seed=0), 3, 11)]
    for ts, dim, delay in cases:
        res = largest_lyapunov(ts, EmbeddingConfig(dim=dim, delay=delay))
        n_pairs, divergence, ranks = _brute_force_divergence(ts.samples, dim, delay)
        assert res.n_pairs == n_pairs
        np.testing.assert_allclose(res.divergence, divergence, rtol=1e-12, atol=0)
    unresolved = ranks == 0
    assert np.mean(unresolved | (ranks > 2)) >= 0.10
    assert np.any(unresolved)


def test_one_tree_and_bounded_queries(monkeypatch):
    # dim * delay = 1000: a query that grew with the Theiler window would
    # ask for about a thousand neighbors per point.  largest_lyapunov
    # imports cKDTree from scipy.spatial when it is called.
    trees, queries = [], []

    class CountingTree(scipy.spatial.cKDTree):
        def __init__(self, data, *args, **kwargs):
            super().__init__(data, *args, **kwargs)
            trees.append(self)

        def query(self, x, k=1, *args, **kwargs):
            dist, idx = super().query(x, k, *args, **kwargs)
            queries.append((k, np.array(x), dist, idx))
            return dist, idx

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    ts = TimeSeries(np.random.default_rng(0).standard_normal(20_000), 1.0)
    dim, delay = 5, 200
    largest_lyapunov(ts, EmbeddingConfig(dim=dim, delay=delay))
    assert len(trees) == 1
    # Each pass asks in blocks of at most _QUERY_ROWS rows, every k = 3
    # block before the first k = 65 one.
    ks = [q[0] for q in queries]
    n1 = ks.count(3)
    assert 0 < n1 < len(ks) and ks == [3] * n1 + [65] * (len(ks) - n1)
    assert max(q[1].shape[0] for q in queries) <= lyapunov._QUERY_ROWS
    pts1, dist1, idx1 = (np.concatenate([q[i] for q in queries[:n1]]) for i in (1, 2, 3))
    pts2 = np.concatenate([q[1] for q in queries[n1:]])
    # Pass 1 asks about every embedded point, in order; pass 2 about
    # exactly those without a partner outside the window among their two
    # nearest.
    m = ts.samples.size - (dim - 1) * delay
    rows = np.arange(m)
    np.testing.assert_array_equal(pts1, ts.samples[rows[:, None] + delay * np.arange(dim)])
    floor = 1e-9 * np.std(ts.samples)
    ok = (np.abs(idx1[:, 1:] - rows[:, None]) > 1000) & (dist1[:, 1:] > floor)
    unresolved = ~ok.any(axis=1)
    assert 0 < np.count_nonzero(unresolved) < rows.size
    np.testing.assert_array_equal(pts2, pts1[unresolved])


def test_neighbor_query_memory_is_bounded_by_the_block():
    # The pinned 2**14 fBm with its estimated delay (75): the second pass
    # asks for k = 64 neighbors of about 16k points.  Asked all at once,
    # the candidate arrays alone are about 50 x 8 m dim bytes; asked
    # _QUERY_ROWS rows at a time the traced peak reads about 6 (this
    # module imports scipy.spatial, so its import is not traced).
    ts = gen_fbm(0.7, 2**14, seed=1)
    dim, delay = 5, 75
    m = ts.samples.size - (dim - 1) * delay
    tracemalloc.start()
    try:
        largest_lyapunov(ts, EmbeddingConfig(dim=dim, delay=delay))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * m * dim, peak / (8 * m * dim)


# ------------------------------------------------------ divergence trace


def _gathered_divergence(x, dim, delay, pairs_a, pairs_b, max_iter):
    """The divergence curve from whole embedding rows gathered per step.

    Each pair's squared distance sums its coordinates' squares in column
    order, so the bytes do not depend on how a numpy reduction groups
    its terms."""
    m = x.size - (dim - 1) * delay
    emb = x[np.arange(m)[:, None] + delay * np.arange(dim)[None, :]]
    divergence = np.empty(max_iter + 1)
    for k in range(max_iter + 1):
        diff = emb[pairs_a + k] - emb[pairs_b + k]
        sq = diff[:, 0] * diff[:, 0]
        for j in range(1, dim):
            sq = sq + diff[:, j] * diff[:, j]
        d = np.sqrt(sq)
        nz = d > 0
        divergence[k] = np.mean(np.log(d[nz])) if np.any(nz) else -np.inf
    return divergence


def _noisy_bounce(amplitude, restitution):
    ts = gen_bouncing_ball(BounceParams(amplitude, 25.0, restitution, 400, seed=2))
    rng = np.random.default_rng(99)
    noise = 0.01 * float(np.std(ts.samples)) * rng.standard_normal(ts.samples.size)
    return TimeSeries(ts.samples + noise, ts.sample_rate)


@pytest.mark.parametrize(
    "make_ts, config",
    [
        (lambda: _logistic(5000), EmbeddingConfig(dim=2, delay=1)),
        (lambda: _logistic(4000), EmbeddingConfig(dim=3, delay=2, theiler=40, max_iter=60)),
        (lambda: gen_fbm(0.7, 2**12, seed=3), EmbeddingConfig(dim=4, delay=6)),
        (lambda: _noisy_bounce(9.0, 0.7), EmbeddingConfig(dim=5, delay=8)),
        # 41 steps in residue classes of 14 and 13 steps mod 3.
        (lambda: _logistic(4000), EmbeddingConfig(dim=2, delay=3, max_iter=40)),
        # 26 steps, each alone in its residue class mod 40.
        (lambda: gen_fbm(0.7, 2**12, seed=3), EmbeddingConfig(dim=3, delay=40, max_iter=25)),
    ],
    ids=["logistic", "logistic-explicit", "fbm", "bounce", "dim2-uneven", "delay-past-trace"],
)
def test_divergence_matches_gathered_rows_bytes(monkeypatch, make_ts, config):
    ts = make_ts()
    traced = []
    real = lyapunov._divergence

    def recording(*args):
        traced.append(args)
        return real(*args)

    monkeypatch.setattr(lyapunov, "_divergence", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmbeddingQualityWarning)
        res = largest_lyapunov(ts, config)
    ((x, dim, delay, pairs_a, pairs_b, max_iter),) = traced
    assert (dim, delay, pairs_a.size) == (config.dim, config.delay, res.n_pairs)
    expected = _gathered_divergence(x, dim, delay, pairs_a, pairs_b, max_iter)
    assert res.divergence.tobytes() == expected.tobytes()


def test_divergence_of_coincident_pairs():
    # Pairs that coincide drop out of the mean; a step where all do is -inf.
    x = np.random.default_rng(5).standard_normal(400)
    x[100:140] = x[200:240]
    a = np.array([100, 101, 5, 7])
    b = np.array([200, 201, 50, 70])
    for pairs_a, pairs_b in ((a, b), (a[:2], b[:2])):
        got = lyapunov._divergence(x, 3, 4, pairs_a, pairs_b, 40)
        expected = _gathered_divergence(x, 3, 4, pairs_a, pairs_b, 40)
        assert got.tobytes() == expected.tobytes()
    assert np.isneginf(got[0]) and np.isfinite(got[-1])


class _CountingSeries(np.ndarray):
    """A series that counts the gathers made from it and its views."""

    gathers = 0

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            _CountingSeries.gathers += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("dim, delay", [(2, 1), (5, 8), (5, 75), (3, 7), (4, 400)])
def test_divergence_gathers_each_shift_once_per_residue_class(monkeypatch, dim, delay):
    # Steps k and k + delay share dim - 1 shifts: (max_iter + 1) +
    # min(delay, max_iter + 1) (dim - 1) shifted differences, two gathers
    # each, instead of (max_iter + 1) dim.
    rng = np.random.default_rng(7)
    x = rng.standard_normal(3000)
    max_iter = 300
    pairs_a = rng.integers(0, 400, 50)
    pairs_b = rng.integers(400, 800, 50)
    monkeypatch.setattr(_CountingSeries, "gathers", 0)
    got = lyapunov._divergence(x.view(_CountingSeries), dim, delay, pairs_a, pairs_b, max_iter)
    steps = max_iter + 1
    assert _CountingSeries.gathers == 2 * (steps + min(delay, steps) * (dim - 1))
    expected = _gathered_divergence(x, dim, delay, pairs_a, pairs_b, max_iter)
    assert got.tobytes() == expected.tobytes()


def test_lyapunov_peak_memory_is_linear_in_points_times_dim():
    # The embedding, the tree and the neighbor queries each hold O(m dim)
    # bytes; the trace adds a ring of dim rows of pairs values and one
    # pairs buffer whatever max_iter is.
    # The traced peak reads about 2.8 x 8 m dim bytes here (the kd-tree's
    # own nodes are C++ allocations that tracemalloc does not see); a
    # pairs x dim copy per step read 3.5-3.8, and per-step copies of the
    # pairs' embedding rows push it past 5.
    dim = 5
    for n in (2**12, 2**14):
        ts = _logistic(n)
        m = n - (dim - 1)
        tracemalloc.start()
        try:
            largest_lyapunov(ts, EmbeddingConfig(dim=dim, delay=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * m * dim, (n, peak / (8 * m * dim))


# ------------------------------------------------------------ knee search


def _all_breakpoints_region(k, y):
    """The linear region with both fits of every breakpoint made by
    fit_line, as before the closed-form screen."""
    start = 1 if y.size > 5 else 0
    kk = k[start:]
    yy = y[start:]
    n = yy.size
    min_len = 4
    if n <= 2 * min_len:
        slope, _, r2, _ = fit_line(kk, yy)
        return slope, (int(kk[0]), int(kk[-1])), r2

    def sse(lo, hi):
        return fit_line(kk[lo:hi], yy[lo:hi])[3]

    knee, knee_sse = min(
        ((b, sse(0, b) + sse(b, n)) for b in range(min_len, n - min_len + 1)),
        key=lambda t: t[1],
    )
    if knee_sse > 0.5 * sse(0, n):
        slope, _, r2, _ = fit_line(kk, yy)
        return slope, (int(kk[0]), int(kk[-1])), r2
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
    floor_eff = max(lyapunov.R2_FLOOR, top - 0.005)
    passing = [m for m in lengths if r2_by_len[m] >= floor_eff]
    if passing:
        best = max(passing)
    else:
        best = max(m for m in lengths if r2_by_len[m] >= top - 0.005)
    slope, _, r2, _ = fit_line(kk[:best], yy[:best])
    return slope, (int(kk[0]), int(kk[best - 1])), r2


def _assert_same_region(k, y):
    assert repr(lyapunov._linear_region(k, y)) == repr(_all_breakpoints_region(k, y)), (
        k.size,
        y[:4],
    )


#: The presets of test_bounce_presets_sign_matches_map_oracle.
_ACCEPTANCE_PRESETS = (
    (3.6, 0.45), (4.0, 0.45), (4.0, 0.55), (5.2, 0.6), (5.2, 0.65),
    (6.0, 0.8), (7.0, 0.9), (8.0, 0.85), (9.0, 0.7), (10.0, 0.8),
)


def test_knee_screen_keeps_every_pick_on_estimator_curves():
    # The divergence curves of the ten acceptance presets and of three
    # 2**12 fBm realisations, cut where largest_lyapunov cuts them.
    curves = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmbeddingQualityWarning)
        for amplitude, restitution in _ACCEPTANCE_PRESETS:
            ts = _noisy_bounce(amplitude, restitution)
            res = largest_lyapunov(ts, EmbeddingConfig(dim=5, delay=estimate_delay(ts)))
            curves.append(res.divergence)
        for seed in range(3):
            res = largest_lyapunov(gen_fbm(0.7, 2**12, seed=seed), EmbeddingConfig(dim=4, delay=6))
            curves.append(res.divergence)
    for divergence in curves:
        usable = np.isfinite(divergence)
        _assert_same_region(np.arange(divergence.size)[usable], divergence[usable])


def _adversarial_curves():
    """Curves whose screened totals tie or sit at rounding scale."""
    k = np.arange(121)
    yield k, np.zeros(k.size)
    for c in (1e-300, 1.0, 3.7, -2.5e8):
        yield k, np.full(k.size, c)
    # Ramps one ulp-scale step per iteration on a constant.
    for c in (0.3, 1.7, 2.9, 11.0, 1e6):
        yield k, np.log(c) + 1e-16 * k
        yield k, c + math.ulp(c) * (k % 3)
    # A step of 1e-12 at a few places.
    for at in (5, 6, 60, 114, 116):
        yield k, 1.0 + 1e-12 * (k >= at)
    yield k, (-1.0) ** k
    yield k, 1.0 + 1e-15 * (-1.0) ** k
    yield k, np.where(k % 2, 0.0, 1e-300)
    # Exact lines: every breakpoint leaves no residual at all.
    for slope, intercept in ((0.5, 0.0), (-3.0, 2.0), (0.1, 7.3), (1e-12, 0.0)):
        yield k, slope * k + intercept
    # Shapes whose breakpoints tie exactly, and rounded curves.
    yield k, -np.abs(k - 60.0)
    yield k, np.minimum(k, 40.0)
    yield k, np.round(np.log1p(k), 1)
    yield k, np.round(np.minimum(k, 25.0) * 0.3, 0)
    yield k, np.floor(np.sqrt(k))
    # Gaps in k, where largest_lyapunov drops -inf steps.
    gaps = k[(k % 7 != 3) | (k > 80)]
    yield gaps, np.minimum(gaps, 30.0) * 0.05
    yield gaps, np.zeros(gaps.size)


def test_knee_screen_keeps_every_pick_on_adversarial_curves():
    for k, y in _adversarial_curves():
        _assert_same_region(k, y)


def test_knee_screen_keeps_every_pick_from_9_to_301_points():
    # A derandomized knee curve with a ripple, cut to lengths from the
    # shortest that searches for a knee to the longest the default trace
    # gives: every length up to 60, where the breakpoints are few, then
    # every eighth.  Every length costs the reference about 4 s.
    k = np.arange(301)
    full = np.log1p(np.minimum(k, 90) / 6.0) + 0.02 * np.sin(1.3 * k) + 0.01 * np.cos(0.37 * k)
    for n in [*range(9, 61), *range(61, 301, 8), 301]:
        _assert_same_region(k[:n], full[:n])


def test_knee_search_refits_only_the_screened_breakpoints(monkeypatch):
    # The A = 10, r = 0.8 preset: past its first step, its 301-step curve
    # has 300 points and 293 breakpoints, which an unscreened search fits
    # twice each.
    fits, screens = [], []
    real_fit, real_screen = lyapunov.fit_line, lyapunov._split_sse

    def counting_fit(x, y):
        fits.append((int(x[0]), int(x[-1])))
        return real_fit(x, y)

    def recording_screen(k, y, min_len):
        out = real_screen(k, y, min_len)
        tol = 1e-9 * float(np.sum(y * y))
        screens.append((k, min_len + np.flatnonzero(out <= out.min() + tol)))
        return out

    real_divergence = lyapunov._divergence
    monkeypatch.setattr(lyapunov, "fit_line", counting_fit)
    monkeypatch.setattr(lyapunov, "_split_sse", recording_screen)
    monkeypatch.setattr(
        lyapunov, "_divergence", lambda x, *args: real_divergence(x.view(_CountingSeries), *args)
    )
    monkeypatch.setattr(_CountingSeries, "gathers", 0)
    ts = _noisy_bounce(10.0, 0.8)
    delay = estimate_delay(ts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmbeddingQualityWarning)
        res = largest_lyapunov(ts, EmbeddingConfig(dim=5, delay=delay))
    ((kk, candidates),) = screens
    n = kk.size
    assert n == 300 and res.divergence.size == 301
    # The knee search's fits come first, a pair per screened breakpoint,
    # and the whole-curve fit that tests the knee ends them.
    first, last = int(kk[0]), int(kk[-1])
    whole = fits.index((first, last))
    pairs = [((first, int(kk[b - 1])), (int(kk[b]), last)) for b in candidates.tolist()]
    assert fits[:whole] == [f for pair in pairs for f in pair]
    assert 1 <= candidates.size <= 4 and n - 7 == 293
    steps = res.divergence.size
    assert _CountingSeries.gathers == 2 * (steps + min(delay, steps) * (5 - 1))


# ------------------------------------------------------------- map oracle


def test_map_lyapunov_zero_amplitude_closed_form():
    # with no drive the map contracts by the restitution factor each impact
    for r in (0.3, 0.5, 0.9):
        p = BounceParams(0.0, 25.0, r, 100_000, seed=0)
        assert map_lyapunov(p) == pytest.approx(math.log(r), abs=1e-12)


def test_map_lyapunov_zero_amplitude_ignores_length_and_seed():
    vals = {
        map_lyapunov(BounceParams(0.0, 25.0, 0.6, n, seed=s))
        for n, s in ((10_000, 0), (50_000, 3), (200_000, 7))
    }
    assert len(vals) == 1


def test_map_lyapunov_deterministic():
    p = BounceParams(7.0, 25.0, 0.9, 20_000, seed=4)
    a = map_lyapunov(p)
    b = map_lyapunov(p)
    assert a == b


def test_map_lyapunov_needs_enough_impacts():
    with pytest.raises(ValidationError):
        map_lyapunov(BounceParams(5.0, 25.0, 0.5, 5_000, seed=0))


def test_map_lyapunov_sign_structure():
    # weak drive: stable orbit; strong drive: chaos
    lam_lo = map_lyapunov(BounceParams(3.6, 25.0, 0.45, 50_000, seed=1), burn_in=5000)
    lam_hi = map_lyapunov(BounceParams(8.0, 25.0, 0.85, 50_000, seed=1), burn_in=5000)
    assert lam_lo < -0.1
    assert lam_hi > 0.1


def _map_lyapunov_by_matrix_product(p, n, burn_in):
    """The impact-map exponent with the tangent advanced by the 2x2
    Jacobian matrix product, row by row on Python floats, the second row
    evaluated as an FMA kernel does, fma(s, u0, (r + s) u1), exactly
    rounded through Fraction.  No BLAS kernel takes part, so the oracle's
    bits are the same on every host."""
    phis, _ = bounce_map_trajectory(p, n=200 + n, burn_in=burn_in)
    u0 = u1 = 1.0 / math.sqrt(2.0)
    log_sum = 0.0
    for k, phi in enumerate(phis.tolist()):
        (a, b), (s, r_plus_s) = bounce_map_jacobian(phi, p).tolist()
        u0, u1 = a * u0 + b * u1, _exactly_rounded_fma(s, u0, r_plus_s * u1)
        norm = math.hypot(u0, u1)
        u0 /= norm
        u1 /= norm
        if k >= 200:
            log_sum += math.log(norm)
    return log_sum / n


@pytest.mark.parametrize("amplitude, restitution", [(3.6, 0.45), (4.0, 0.55), (7.0, 0.9)])
def test_map_lyapunov_scalar_tangent_matches_matrix_product(amplitude, restitution):
    # The product rounds its second row once, as a fused multiply-add does;
    # on the first two presets plain s * u0 + (r + s) * u1 changes the bits.
    p = BounceParams(amplitude, 25.0, restitution, 10_000, seed=2)
    expected = _map_lyapunov_by_matrix_product(p, 10_000, 5000)
    assert repr(map_lyapunov(p, burn_in=5000)) == repr(expected)


# ------------------------------------------------------------ exact fma


def _exactly_rounded_fma(a, b, c):
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def test_fma_is_exactly_rounded_on_random_triples():
    rng = np.random.default_rng(7)
    n = 12_000
    a = rng.standard_normal(n) * 2.0 ** rng.integers(-60, 60, n)
    b = rng.standard_normal(n) * 2.0 ** rng.integers(-60, 60, n)
    c = rng.standard_normal(n) * 2.0 ** rng.integers(-120, 120, n)
    # A third of the addends nearly cancel the product, where a second
    # rounding shows most.
    near = rng.random(n) < 1 / 3
    c[near] = -(a[near] * b[near]) * (1.0 + rng.standard_normal(near.sum()) * 2.0**-30)
    plain_differs = 0
    for ai, bi, ci in zip(a.tolist(), b.tolist(), c.tolist()):
        got = lyapunov._fma(ai, bi, ci)
        assert got == _exactly_rounded_fma(ai, bi, ci), (ai, bi, ci)
        plain_differs += got != ai * bi + ci
    assert plain_differs > 1000


@pytest.mark.parametrize(
    "a, b, c, sign",
    [
        (0.0, 1.0, 0.0, 1.0),
        (-0.0, 1.0, 0.0, 1.0),
        (-0.0, 1.0, -0.0, -1.0),
        (0.0, -3.0, -0.0, -1.0),
        (-0.0, -3.0, -0.0, 1.0),
        (1.0, 1.0, -1.0, 1.0),
        (-2.0, 3.0, 6.0, 1.0),
        # Not exact zeros: the product's own rounding error survives, and
        # results below the smallest subnormal round to a signed zero.
        (0.1, 0.1, -(0.1 * 0.1), None),
        (2.0**-600, 2.0**-600, -0.0, 1.0),
        (-(2.0**-600), 2.0**-600, 0.0, -1.0),
    ],
)
def test_fma_signed_zeros_follow_ieee(a, b, c, sign):
    got = lyapunov._fma(a, b, c)
    assert got == _exactly_rounded_fma(a, b, c)
    if sign is None:
        assert got != 0.0
    else:
        assert got == 0.0 and math.copysign(1.0, got) == sign


@pytest.fixture
def fma_fallbacks(monkeypatch):
    """Record each call that ``_fma`` hands to its exact-integer form."""
    calls = []
    exact = lyapunov._fma_exact

    def counted(a, b, c):
        calls.append((a, b, c))
        return exact(a, b, c)

    monkeypatch.setattr(lyapunov, "_fma_exact", counted)
    return calls


def _guard_triples(seed, ea, eb, n=300):
    """Random signed triples with a = m1 2**ea and b = m2 2**eb, where
    m1, m2 lie in [1.25, 1.4] so that |a * b| stays clear of a power of
    two; c cancels the product exactly, nearly, or not at all."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size=(2, n))
    a = (sign[0] * rng.uniform(1.25, 1.4, n) * 2.0**ea).tolist()
    b = (sign[1] * rng.uniform(1.25, 1.4, n) * 2.0**eb).tolist()
    triples = []
    for i, (ai, bi) in enumerate(zip(a, b)):
        p = ai * bi
        kind = i % 3
        if kind == 0:
            c = -p
        elif kind == 1:
            c = -p * (1.0 + rng.standard_normal() * 2.0 ** -int(rng.integers(20, 60)))
        else:
            c = p * rng.standard_normal() * 2.0 ** int(rng.integers(-60, 60))
        triples.append((ai, bi, c))
    return triples


@pytest.mark.parametrize(
    "ea, eb, fast",
    [
        # |a * b| just below and just above 2**900.
        (449, 449, True),
        (450, 450, False),
        # |a * b| just above and just below 2**-900.
        (-450, -450, True),
        (-451, -451, False),
        # A moderate product of a factor at or beyond 2**900.
        (899, -905, True),
        (900, -905, False),
        (-905, 899, True),
        (-905, 900, False),
        # A subnormal factor whose product is inside the guard.
        (-1060, 890, True),
        # Products whose rounding error is subnormal, and products that are
        # themselves subnormal: the results of c = -p are subnormal too.
        (-490, -490, False),
        (-520, -520, False),
        (-540, -530, False),
    ],
)
def test_fma_guard_edges_match_the_exact_oracle(fma_fallbacks, ea, eb, fast):
    triples = _guard_triples(abs(ea) * 10_000 + abs(eb), ea, eb)
    for a, b, c in triples:
        assert lyapunov._fma(a, b, c) == _exactly_rounded_fma(a, b, c), (a, b, c)
    if fast:
        # Only exact-zero results leave the float path inside the guard.
        assert all(_exactly_rounded_fma(*t) == 0.0 for t in fma_fallbacks)
    else:
        assert fma_fallbacks == triples


@pytest.mark.parametrize(
    "a, b, c",
    [
        (1 + 2.0**-30, 1 + 2.0**-30, 2.0**-53),
        (1 + 2.0**-30, 1 - 2.0**-30, 3 * 2.0**-53),
        (-(1 + 2.0**-30) * 2.0**400, (1 + 2.0**-30) * 2.0**-300, -(2.0**47)),
        ((1 + 2.0**-30) * 2.0**-450, (1 + 2.0**-30) * 2.0**-400, 2.0**-903),
    ],
)
def test_fma_breaks_halfway_ties_that_two_roundings_miss(a, b, c):
    # fl(a * b) + c lands exactly halfway between two doubles and ties to
    # even, while the exact a * b + c lies just past the halfway point.
    got = lyapunov._fma(a, b, c)
    assert got == _exactly_rounded_fma(a, b, c)
    assert abs((a * b + c) - got) == math.ulp(got)


@pytest.mark.parametrize(
    "a, b, c",
    [
        (2.0**485, 2.0**485, 1.7976931348623157e308),
        (-(2.0**485), 2.0**485, -1.7976931348623157e308),
        (-1.7976931348623157e308, 2.0, 0.0),
    ],
)
def test_fma_overflowing_result_raises_overflow_error(a, b, c):
    with pytest.raises(OverflowError):
        lyapunov._fma(a, b, c)


def test_fma_at_the_largest_double_does_not_overflow():
    big = 1.7976931348623157e308
    assert lyapunov._fma(2.0**450, 2.0**450, big) == big
    assert lyapunov._fma(2.0**450, -(2.0**450), big) == _exactly_rounded_fma(
        2.0**450, -(2.0**450), big
    )


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fma_non_finite_arguments_raise(position, bad):
    # float.as_integer_ratio raises ValueError for NaN, OverflowError for
    # an infinity.
    args = [1.5, -2.0, 0.25]
    args[position] = bad
    with pytest.raises(ValueError if math.isnan(bad) else OverflowError):
        lyapunov._fma(*args)
    if position < 2:
        # A zero times a non-finite factor raises too.
        args[1 - position] = 0.0
        with pytest.raises(ValueError if math.isnan(bad) else OverflowError):
            lyapunov._fma(*args)


def test_map_lyapunov_takes_the_float_fma_path(fma_fallbacks):
    # The A = 9, r = 0.7 benchmark preset: 100,200 fma calls, none of
    # which should need the exact-integer form.
    map_lyapunov(BounceParams(9.0, 25.0, 0.7, 100_000, seed=2), burn_in=5000)
    assert len(fma_fallbacks) <= 5


#: The numpy and scipy versions the map exponents below were pinned on.
_PINNED_VERSIONS = ("2.4.6", "1.17.1")


@pytest.mark.parametrize(
    "amplitude, restitution, exponent",
    [
        (3.6, 0.45, "-0x1.98d7b7823c28ap-2"),
        (5.2, 0.6, "-0x1.0589d8db2a783p-2"),
        (9.0, 0.7, "0x1.870e9130ebfc9p+0"),
        (10.0, 0.8, "0x1.9c78a22c1181cp+0"),
    ],
)
def test_map_lyapunov_benchmark_presets_are_pinned(amplitude, restitution, exponent):
    versions = (np.__version__, scipy.__version__)
    if versions != _PINNED_VERSIONS:
        pytest.skip(
            "map exponents pinned on numpy/scipy %s/%s, running %s/%s"
            % (*_PINNED_VERSIONS, *versions)
        )
    p = BounceParams(amplitude, 25.0, restitution, 100_000, seed=2)
    assert map_lyapunov(p, burn_in=5000).hex() == exponent
