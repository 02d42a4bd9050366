import math
import warnings

import numpy as np
import pytest

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
from wavescope.signal_core import TimeSeries
from wavescope.synth import BounceParams


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
    with pytest.raises(InsufficientNeighborsError):
        largest_lyapunov(ts, EmbeddingConfig(dim=5, delay=100))


def test_fnn_warning_on_undersized_embedding():
    ts = _logistic(4000)
    with pytest.warns(EmbeddingQualityWarning):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            largest_lyapunov(ts, EmbeddingConfig(dim=2, delay=7))


# ------------------------------------------------------ neighbor search


def _brute_force_divergence(x, dim, delay):
    """Partner search and divergence curve from the full distance matrix."""
    m = x.size - (dim - 1) * delay
    emb = x[np.arange(m)[:, None] + delay * np.arange(dim)[None, :]]
    theiler = dim * delay
    max_iter = min(300, m // 4)
    k = min(2 * theiler + 3, 64, m - 1)
    floor = 1e-9 * np.std(x)
    dist = np.sqrt(((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2))
    a, b = [], []
    for i in range(m):
        # column 0 of the sorted row is the point itself
        for j in np.argsort(dist[i], kind="stable")[1 : k + 1]:
            if abs(j - i) > theiler and dist[i, j] > floor:
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
    return a.size, divergence


def test_neighbor_search_matches_brute_force():
    ts = _logistic(1000)
    res = largest_lyapunov(ts, EmbeddingConfig(dim=2, delay=1))
    n_pairs, divergence = _brute_force_divergence(ts.samples, 2, 1)
    assert res.n_pairs == n_pairs
    np.testing.assert_allclose(res.divergence, divergence, rtol=1e-12, atol=0)


def test_one_tree_and_bounded_queries(monkeypatch):
    # dim * delay = 1000: a query that grew with the Theiler window would
    # ask for about a thousand neighbors per point.
    trees, ks = [], []

    class CountingTree(lyapunov.cKDTree):
        def __init__(self, data, *args, **kwargs):
            super().__init__(data, *args, **kwargs)
            trees.append(self)

        def query(self, x, k=1, *args, **kwargs):
            ks.append(k)
            return super().query(x, k, *args, **kwargs)

    monkeypatch.setattr(lyapunov, "cKDTree", CountingTree)
    ts = TimeSeries(np.random.default_rng(0).standard_normal(20_000), 1.0)
    largest_lyapunov(ts, EmbeddingConfig(dim=5, delay=200))
    assert len(trees) == 1
    assert ks and max(ks) <= 65


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
