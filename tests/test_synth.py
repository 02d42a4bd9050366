import hashlib
import math
import platform
import tracemalloc

import numpy as np
import pytest
import scipy

from wavescope import EmbeddingError, NyquistError, ValidationError, synth
from wavescope.lyapunov import map_lyapunov
from wavescope.synth import (
    MAX_SAMPLES,
    BounceParams,
    bounce_map_trajectory,
    cascade_hurst,
    gen_binomial_cascade,
    gen_bouncing_ball,
    gen_fbm,
    gen_power_law_noise,
    gen_sine_mix,
)

from map_oracle import bounce_map_jacobian


# ---------------------------------------------------------------- fbm / fgn


def test_fbm_requires_power_of_two():
    with pytest.raises(ValidationError):
        gen_fbm(0.5, 1000)
    with pytest.raises(ValidationError):
        gen_fbm(0.5, 128)  # below the 256 minimum


def test_fbm_hurst_range():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValidationError):
            gen_fbm(bad, 1024)


def test_a_refused_embedding_is_not_retried(monkeypatch):
    # At H = 0.9999 and 2^17 samples the second difference in the fGn
    # autocovariance cancels enough to give the circulant an eigenvalue
    # of -4.2e-9 of the largest, below the -1e-9 floor.  Twice the lags
    # round worse (-1.3e-8), so one embedding is made and refused.
    lags = []
    real = synth._circulant_gaussian

    def counting(cov, n, rng):
        lags.append(cov.size - 1)
        return real(cov, n, rng)

    monkeypatch.setattr(synth, "_circulant_gaussian", counting)
    with pytest.raises(EmbeddingError, match="not non-negative definite"):
        gen_fbm(0.9999, 2**17)
    assert lags == [2**17]


def test_fbm_deterministic_per_seed():
    a = gen_fbm(0.7, 1024, seed=5)
    b = gen_fbm(0.7, 1024, seed=5)
    c = gen_fbm(0.7, 1024, seed=6)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_fbm_starts_near_origin_and_grows():
    ts = gen_fbm(0.5, 4096, seed=1)
    # a path, not noise: variance of the second half exceeds the first a lot
    assert np.var(ts.samples[2048:]) > np.var(ts.samples[:64])


def test_fbm_increment_scaling_matches_hurst():
    # E|B(t+k) - B(t)|^2 = c * k^{2H}; regress over dyadic lags
    H = 0.7
    ts = gen_fbm(H, 2**15, seed=3)
    x = ts.samples
    lags = np.array([1, 2, 4, 8, 16, 32])
    m2 = np.array([np.mean((x[k:] - x[:-k]) ** 2) for k in lags])
    slope = np.polyfit(np.log(lags), np.log(m2), 1)[0]
    assert slope / 2.0 == pytest.approx(H, abs=0.05)


@pytest.mark.parametrize("n", [2**12, 2**14])
def test_fbm_working_memory_is_five_floats_per_sample(n):
    # Documented bound: one complex 2n-point buffer (4 n floats) with the
    # n + 1 autocovariances it is filled from, then with the n returned
    # samples, about 5 n floats.  The eigenvalues in an array of their own
    # read 7-8 n; the bound is 5.25 n floats.  An untraced call first pays
    # the one-time costs (lazy imports, FFT plans), so that the bound also
    # holds when this test runs alone.
    gen_fbm(0.7, n, seed=1)
    tracemalloc.start()
    try:
        gen_fbm(0.7, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.25 * 8 * n


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="measured under glibc's malloc")
def test_fbm_resident_growth_per_sample_is_bounded(fresh_python):
    # From 2^16 to 2^18 samples a fresh process's peak RSS grows by the
    # 4 n-float buffer and numpy's two FFT scratch arrays of its size at
    # a transform, 12 n floats or 96 B per sample; it read 95-97 B.  A 2n
    # eigenvalue array kept beside them reads 110-112 B.
    growth = [
        fresh_python(f"synth.gen_fbm(0.7, {n}, seed=1)", "from wavescope import synth").maxrss_kib
        for n in (2**16, 2**18)
    ]
    assert (growth[1] - growth[0]) * 1024 / (2**18 - 2**16) <= 100


#: The numpy and scipy versions the digest below was pinned on.
_PINNED_VERSIONS = ("2.4.6", "1.17.1")


def test_fbm_samples_are_pinned():
    # sha256 over the samples of every (n, H, seed) below: the circulant
    # embedding keeps its bytes however its buffers are laid out.
    versions = (np.__version__, scipy.__version__)
    if versions != _PINNED_VERSIONS:
        pytest.skip(
            "samples pinned on numpy/scipy %s/%s, running %s/%s"
            % (*_PINNED_VERSIONS, *versions)
        )
    digest = hashlib.sha256()
    for k in range(8, 17):
        for hurst in (0.2, 0.5, 0.6, 0.7, 0.9):
            for seed in (0, 1):
                digest.update(gen_fbm(hurst, 2**k, seed=seed).samples.tobytes())
    assert digest.hexdigest() == "98249a438eb9c2c3f218505eba7635d56f45b4c15e2a8f1a46f5be08485ed109"


def test_fgn_lag1_autocorr_sample_agreement():
    H = 0.8
    x = np.diff(gen_fbm(H, 2**15, seed=2).samples)
    x = x - x.mean()
    rho = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
    # lag-1 autocorrelation of fractional Gaussian noise: 2**(2H-1) - 1
    assert rho == pytest.approx(2.0 ** (2 * H - 1) - 1.0, abs=0.03)


# ------------------------------------------------------------ colored noise


def test_power_law_noise_unit_variance():
    for beta in (0.0, 1.0, 3.0, 7.0):
        ts = gen_power_law_noise(beta, 4096, seed=0)
        assert np.std(ts.samples) == pytest.approx(1.0, rel=1e-9)


def test_power_law_noise_validates_beta_and_n():
    with pytest.raises(ValidationError):
        gen_power_law_noise(-0.5, 1024)
    with pytest.raises(ValidationError):
        gen_power_law_noise(9.0, 1024)
    with pytest.raises(ValidationError):
        gen_power_law_noise(2.0, 1000)


def test_power_law_noise_slope():
    ts = gen_power_law_noise(2.0, 2**14, seed=4, sample_rate=1000.0)
    from wavescope.spectral import fit_power_law, power_spectrum

    fit = fit_power_law(power_spectrum(ts), 2.0, 200.0)
    assert fit.slope == pytest.approx(-2.0, abs=0.15)


# ----------------------------------------------------------------- sine mix


def test_sine_mix_exact_values():
    ts = gen_sine_mix([(0.5, 2.0, 0.3)], 100.0, 64)
    t = np.arange(64) / 100.0
    want = 2.0 * np.sin(2.0 * math.pi * t / 0.5 + 0.3)
    assert np.allclose(ts.samples, want)


def test_sine_mix_superposition():
    comps = [(0.5, 1.0, 0.0), (0.2, 0.5, 1.0)]
    both = gen_sine_mix(comps, 200.0, 128).samples
    parts = sum(gen_sine_mix([c], 200.0, 128).samples for c in comps)
    assert np.allclose(both, parts)


def test_sine_mix_rejects_subnyquist_period():
    with pytest.raises(NyquistError):
        gen_sine_mix([(0.001, 1.0, 0.0)], 100.0, 64)  # 1 kHz tone at 100 Hz


# -------------------------------------------------------------- bounce map


def test_bounce_map_trajectory_deterministic():
    p = BounceParams(7.0, 25.0, 0.9, 500, seed=3)
    a_phi, a_v = bounce_map_trajectory(p)
    b_phi, b_v = bounce_map_trajectory(p)
    assert np.array_equal(a_phi, b_phi)
    assert np.array_equal(a_v, b_v)


@pytest.mark.parametrize("n, burn_in", [(10, -3), (10, -1), (0, 0), (-2, 5)])
def test_bounce_map_trajectory_rejects_negative_burn_in_and_empty_runs(n, burn_in):
    # Without the check a negative burn-in leaves np.empty slots unwritten.
    p = BounceParams(7.0, 25.0, 0.9, 500, seed=3)
    with pytest.raises(ValidationError, match="burn_in" if burn_in < 0 else "n must"):
        bounce_map_trajectory(p, n=n, burn_in=burn_in)
    if burn_in < 0:
        with pytest.raises(ValidationError, match="burn_in"):
            map_lyapunov(BounceParams(7.0, 25.0, 0.9, 10_000, seed=3), burn_in=burn_in)


def test_bounce_map_update_rule():
    # one explicit step of phi' = phi + v (mod 2 pi), v' = r v - A cos(phi')
    p = BounceParams(2.0, 25.0, 0.5, 10, seed=0)
    phis, vs = bounce_map_trajectory(p, n=2, burn_in=0)
    phi1 = math.fmod(phis[0] + vs[0], 2.0 * math.pi)
    if phi1 < 0:
        phi1 += 2.0 * math.pi
    v1 = 0.5 * vs[0] - 2.0 * math.cos(phi1)
    assert phis[1] == pytest.approx(phi1, abs=1e-12)
    assert vs[1] == pytest.approx(v1, abs=1e-12)


def test_bounce_map_jacobian_matches_finite_difference():
    p = BounceParams(5.0, 25.0, 0.7, 10, seed=0)
    phi, v = 1.234, 3.456
    eps = 1e-7

    def step(phi, v):
        phi_next = math.fmod(phi + v, 2.0 * math.pi)
        return phi_next, p.restitution * v - p.amplitude * math.cos(phi_next)

    phi1, v1 = step(phi, v)
    J = bounce_map_jacobian(phi1, p)
    num = np.empty((2, 2))
    for j, (dphi, dv) in enumerate(((eps, 0.0), (0.0, eps))):
        p2, v2 = step(phi + dphi, v + dv)
        dp = p2 - phi1
        # unwrap across the 2 pi seam if the perturbation crossed it
        if dp > math.pi:
            dp -= 2.0 * math.pi
        elif dp < -math.pi:
            dp += 2.0 * math.pi
        num[0, j] = dp / eps
        num[1, j] = (v2 - v1) / eps
    assert np.allclose(J, num, atol=1e-5)


def test_bouncing_ball_render_defaults():
    p = BounceParams(7.0, 25.0, 0.9, 50, seed=1)
    ts = gen_bouncing_ball(p)
    assert ts.sample_rate == pytest.approx(64 * 25.0)
    assert np.all(np.isfinite(ts.samples))
    assert ts.samples.std() > 0


def test_bouncing_ball_ring_down_has_the_bits_of_lfilter(monkeypatch):
    # The ring-down is scipy.signal.lfilter([1], [1, -decay]) bit for bit on
    # the benchmark's four presets, 200 seeded draws and one map whose speeds
    # all vanish, so that no sample carries an impulse.
    from scipy.signal import lfilter

    from wavescope import synth

    sets = [BounceParams(a, 25.0, r, 400, seed=2)
            for a, r in ((3.6, 0.45), (5.2, 0.6), (9.0, 0.7), (10.0, 0.8))]
    rng = np.random.default_rng(24)
    for _ in range(200):
        sets.append(BounceParams(
            float(rng.uniform(0.0, 12.0)), float(rng.uniform(5.0, 60.0)),
            float(rng.uniform(0.05, 0.98)), int(rng.integers(1, 200)),
            seed=int(rng.integers(0, 1000)),
        ))
    sets.append(BounceParams(0.0, 25.0, 1e-300, 5))
    own, inputs = synth._ring_down, []

    def reference(impulses, decay):
        inputs.append(impulses)
        return lfilter([1.0], [1.0, -decay], impulses)

    shared = 0
    for p in sets:
        for rate in (None, 300.0, 5000.0):
            got = gen_bouncing_ball(p, rate).samples
            monkeypatch.setattr(synth, "_ring_down", reference)
            want = gen_bouncing_ball(p, rate).samples
            monkeypatch.setattr(synth, "_ring_down", own)
            assert got.tobytes() == want.tobytes(), (p, rate)
            # Impacts that round to one sample are summed there first.
            shared += 0 < np.count_nonzero(inputs.pop()) < p.n_impacts
    assert shared >= 200
    assert not gen_bouncing_ball(sets[-1]).samples.any()


def test_bouncing_ball_param_validation():
    with pytest.raises(ValidationError):
        BounceParams(1.0, 25.0, 1.2, 100)  # restitution >= 1
    with pytest.raises(ValidationError):
        BounceParams(1.0, -25.0, 0.5, 100)
    with pytest.raises(ValidationError):
        BounceParams(1.0, 25.0, 0.5, 0)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
def test_bounce_params_refuse_non_finite_amplitude(amplitude):
    # NaN and +inf pass a bare `amplitude < 0`; the map exponent's tangent
    # loop then runs on non-finite values.
    with pytest.raises(ValidationError, match="amplitude"):
        BounceParams(amplitude, 25.0, 0.5, 100)


@pytest.mark.parametrize("drive_freq", [math.nan, math.inf])
def test_bounce_params_refuse_non_finite_drive_freq(drive_freq):
    with pytest.raises(ValidationError, match="drive_freq"):
        BounceParams(1.0, drive_freq, 0.5, 100)


# ----------------------------------------------------------------- cascade


def test_cascade_length_and_positivity():
    ts = gen_binomial_cascade(0.75, 10)
    assert ts.samples.size == 2**10
    assert np.all(ts.samples > 0)


@pytest.mark.parametrize("a", [0.55, 0.75, 0.9])
def test_cascade_weights_follow_the_bit_count_of_the_index(a):
    # Element i carries a**k * (1-a)**(levels-k), k the number of 1 bits in i.
    levels = 10
    k = np.array([bin(i).count("1") for i in range(2**levels)], dtype=np.int64)
    want = a**k * (1.0 - a) ** (levels - k)
    got = gen_binomial_cascade(a, levels).samples
    assert got.tobytes() == want.tobytes()


def test_cascade_mass_conservation():
    # each split only redistributes mass; the total stays at one
    for levels in (8, 12):
        x = gen_binomial_cascade(0.6, levels).samples
        assert x.sum() == pytest.approx(1.0, rel=1e-9)


def test_cascade_hurst_closed_form_values():
    # h(q) = 1/q - log2(a^q + (1-a)^q) / q
    a = 0.75
    for q in (-5.0, -2.0, 2.0, 5.0):
        want = 1.0 / q - math.log2(a**q + (1 - a) ** q) / q
        assert cascade_hurst(a, q) == pytest.approx(want)


def test_cascade_hurst_q_zero_limit():
    # continuous through q = 0: compare against +-1e-6 neighborhood
    a = 0.7
    h0 = cascade_hurst(a, 0.0)
    assert h0 == pytest.approx(cascade_hurst(a, 1e-6), abs=1e-4)
    assert h0 == pytest.approx(cascade_hurst(a, -1e-6), abs=1e-4)


def test_cascade_weight_validation():
    with pytest.raises(ValidationError):
        gen_binomial_cascade(0.5, 10)  # a = 1/2 degenerates to uniform
    with pytest.raises(ValidationError):
        gen_binomial_cascade(1.0, 10)
    with pytest.raises(ValidationError):
        gen_binomial_cascade(0.75, 0)


# ------------------------------------------------------------- input size


def test_generators_refuse_more_than_max_samples():
    # 2**70 samples fail at once even without the limit, so these
    # refusals allocate nothing whether or not the limit is in place.
    for make in (
        lambda: gen_fbm(0.5, 2**70),
        lambda: gen_power_law_noise(1.0, 2**70),
        lambda: gen_sine_mix([(1.0, 1.0, 0.0)], 10.0, 2**70),
        lambda: gen_binomial_cascade(0.7, 70),
        lambda: gen_bouncing_ball(BounceParams(7.0, 25.0, 0.9, 50, seed=3), 1e300),
        lambda: gen_bouncing_ball(BounceParams(7.0, 25.0, 0.9, 50, seed=3), math.inf),
    ):
        with pytest.raises(ValidationError, match="MAX_SAMPLES"):
            make()


class _Reached(Exception):
    pass


def _stop_at_arange(n, **kwargs):
    raise _Reached(n)


def test_param_objects_take_max_samples_and_refuse_one_more(monkeypatch):
    # 24 levels pass the check and reach the index array of MAX_SAMPLES
    # entries, which is stopped before it is allocated; 25 are refused.
    monkeypatch.setattr(np, "arange", _stop_at_arange)
    with pytest.raises(_Reached) as reached:
        gen_binomial_cascade(0.7, 24)
    assert reached.value.args == (MAX_SAMPLES,)
    monkeypatch.undo()
    with pytest.raises(ValidationError, match="MAX_SAMPLES"):
        gen_binomial_cascade(0.7, 25)
    assert BounceParams(7.0, 25.0, 0.9, MAX_SAMPLES).n_impacts == MAX_SAMPLES
    with pytest.raises(ValidationError, match="MAX_SAMPLES"):
        BounceParams(7.0, 25.0, 0.9, MAX_SAMPLES + 1)
