"""End-to-end checks of the released analysis contracts.

Every test here pins a user-facing behavior against an oracle that does
not depend on the implementation: closed-form exponents, brute-force
reimplementations in plain Python, exactly synthesized spectra, or byte
comparison of repeated runs.  The tolerances are part of the contract;
they are asserted as written rather than tuned to the code.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from wavescope.cli import run, validate_config
from wavescope.cwt import (
    SYNC_BAND_RAD,
    cwt_morlet,
    global_power,
    morlet_fourier_factor,
    phase_at_scale,
    phase_difference,
)
from wavescope.dwt import (
    daubechies,
    denoise,
    dwt_decompose,
    dwt_max_level,
    dwt_reconstruct,
    extract_fluctuation,
)
from wavescope.errors import BoundaryValueError
from wavescope.lyapunov import (
    EmbeddingConfig,
    estimate_delay,
    largest_lyapunov,
    map_lyapunov,
)
from wavescope.mfdfa import fluctuation_function, generalized_hurst
from wavescope.signal_core import TimeSeries, profile
from wavescope.spectral import (
    dominant_frequency,
    fit_power_law,
    fractal_dimension,
    heisenberg_fit,
    hurst_from_alpha,
    power_spectrum,
)
from wavescope.synth import (
    BounceParams,
    cascade_hurst,
    gen_binomial_cascade,
    gen_bouncing_ball,
    gen_fbm,
    gen_power_law_noise,
    gen_sine_mix,
)


def _increment_hurst(path_samples):
    """h(q) table of a record's increments, default scales and fit band."""
    incr = np.diff(np.asarray(path_samples, dtype=float))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return generalized_hurst(fluctuation_function(profile(incr)))


# 1 ------------------------------------------------------- Hurst recovery


@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
def test_fbm_hurst_recovery(hurst):
    errors = []
    for seed in range(10):
        start = time.monotonic()
        table = _increment_hurst(gen_fbm(hurst, 2**16, seed=seed).samples)
        elapsed = time.monotonic() - start
        err = abs(table.hurst_at(2.0) - hurst)
        assert err <= 0.1, f"seed {seed}: h(2) off by {err:.3f}"
        assert elapsed <= 60.0
        errors.append(err)
    assert float(np.mean(errors)) <= 0.05


# 2 ------------------------------------------------- multifractal cascade


def test_cascade_hurst_spectrum_matches_closed_form():
    ts = gen_binomial_cascade(0.75, 16)
    table = generalized_hurst(
        fluctuation_function(profile(ts.samples)), fit_range=(16.0, 4096.0)
    )
    for q in (-5.0, -2.0, 2.0, 5.0):
        expected = cascade_hurst(0.75, q)
        assert abs(table.hurst_at(q) - expected) <= 0.1
    assert table.hurst_at(-10.0) - table.hurst_at(10.0) >= 0.4


# 3 ------------------------------------------------- monofractal flatness


def test_monofractal_hurst_is_flat_in_q():
    table = _increment_hurst(gen_fbm(0.5, 2**16, seed=0).samples)
    spread = float(np.max(np.abs(table.hurst - table.hurst_at(2.0))))
    assert spread < 0.15


# 4 --------------------------------------------- brute-force equivalence


def test_fluctuation_function_matches_naive_reimplementation():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(4096)
    prof = profile(x)
    table = fluctuation_function(prof)

    levels = range(1, table.scales.size + 1)
    flucts = extract_fluctuation(prof, daubechies(2), levels)
    for col, (fluct, scale) in enumerate(zip(flucts, table.scales)):
        n = fluct.size
        s = int(scale)
        m = n // s
        variances = []
        for j in range(m):
            seg = fluct[j * s : (j + 1) * s]
            variances.append(sum(float(v) * float(v) for v in seg) / s)
        offset = n - m * s
        for j in range(m):
            seg = fluct[offset + j * s : offset + (j + 1) * s]
            variances.append(sum(float(v) * float(v) for v in seg) / s)
        v = np.array(variances)
        for row, q in enumerate(table.q_values):
            if q == 0.0:
                naive = math.exp(0.5 * float(np.mean(np.log(v))))
            else:
                naive = float(np.mean(v ** (q / 2.0))) ** (1.0 / q)
            got = table.fluctuation[row, col]
            assert got == pytest.approx(naive, rel=1e-9), (q, s)


# 5 ------------------------------------------------------ period detection


def test_four_tones_peak_at_their_scales():
    rate, n = 5000.0, 2**16
    comps = [
        (0.018, 0.7, 0.0),
        (0.049, 1.5, 0.8),
        (0.226, 0.7, 1.6),
        (0.578, 1.3, 2.4),
    ]
    sg = cwt_morlet(gen_sine_mix(comps, rate, n))
    gp = global_power(sg)
    p = gp.power
    maxima = [i for i in range(1, p.size - 1) if p[i] > p[i - 1] and p[i] > p[i + 1]]
    factor = morlet_fourier_factor(sg.omega0)
    log_scales = np.log(sg.scales)
    for period, _, _ in comps:
        idx = int(np.argmin(np.abs(log_scales - math.log(period / factor))))
        assert any(abs(i - idx) <= 1 for i in maxima), f"{period*1e3:.0f} ms tone"
    # the two largest-amplitude tones clear the 95% background curve
    for period in (0.049, 0.578):
        idx = int(np.argmin(np.abs(log_scales - math.log(period / factor))))
        assert p[idx] > gp.significance_95[idx]


# 6 ------------------------------------------------ significance calibration


def test_white_noise_false_positive_rate():
    fractions = []
    for seed in range(100):
        x = np.random.default_rng(seed).standard_normal(512)
        sg = cwt_morlet(TimeSeries(x, 1.0))
        # White background, l2 norm: |W|^2 is variance * dt * chi2_2 / 2,
        # whose 95 % point is variance * dt * ln 20 at every scale.
        threshold = sg.signal_variance / sg.sample_rate * math.log(20.0)
        usable = sg.periods[:, None] <= sg.coi[None, :]
        rows = sg.rows(range(sg.scales.size))
        flagged = sum(
            np.count_nonzero((np.abs(row) ** 2 > threshold) & m) for row, m in zip(rows, usable)
        )
        fractions.append(flagged / usable.sum())
    assert float(np.mean(fractions)) <= 0.10


# 7 --------------------------------------------------- spectral slope fits


def test_power_law_slopes_and_regime_flags():
    n = 2**14
    band = (0.002, 0.2)
    for beta, tol, own, other in (
        (5.0 / 3.0, 0.15, "neutral", "dissipation"),
        (7.0, 0.3, "dissipation", "neutral"),
    ):
        slopes = []
        for seed in range(32):
            ps = power_spectrum(gen_power_law_noise(beta, n, seed=seed))
            slopes.append(fit_power_law(ps, *band).slope)
            assert heisenberg_fit(ps, *band, regime=own).matches
            assert not heisenberg_fit(ps, *band, regime=other).matches
        assert abs(float(np.mean(slopes)) + beta) <= tol


# 8 ----------------------------------------- Fourier vs fluctuation Hurst


@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
def test_spectral_alpha_agrees_with_h2(hurst):
    for seed in range(3):
        path = gen_fbm(hurst, 2**16, seed=seed)
        ps = power_spectrum(path, window="hann")
        fit = fit_power_law(ps, 0.002, 0.1)
        h_spectral = hurst_from_alpha(-fit.slope)
        h2 = _increment_hurst(path.samples).hurst_at(2.0)
        assert abs(h_spectral - h2) <= 0.1


# 9 ----------------------------------------------------- Lyapunov exponents


def test_logistic_map_lyapunov_is_ln2():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = 0.1 + 0.8 * rng.random()
        for _ in range(200):
            x = 4.0 * x * (1.0 - x)
        samples = np.empty(5000)
        for i in range(5000):
            x = 4.0 * x * (1.0 - x)
            samples[i] = x
        res = largest_lyapunov(
            TimeSeries(samples, 1.0), EmbeddingConfig(dim=2, delay=1)
        )
        assert res.exponent == pytest.approx(0.693, abs=0.02)


def test_sinusoid_lyapunov_is_flat():
    rate, f0, n = 100.0, 2.3, 4000
    t = np.arange(n) / rate
    ts = TimeSeries(np.sin(2 * np.pi * f0 * t), rate)
    res = largest_lyapunov(ts, EmbeddingConfig(dim=5, delay=estimate_delay(ts)))
    assert abs(res.exponent) / f0 <= 0.05


def test_bounce_presets_sign_matches_map_oracle():
    presets = [
        (3.6, 0.45),
        (4.0, 0.45),
        (4.0, 0.55),
        (5.2, 0.6),
        (5.2, 0.65),
        (6.0, 0.8),
        (7.0, 0.9),
        (8.0, 0.85),
        (9.0, 0.7),
        (10.0, 0.8),
    ]
    drive = 25.0
    matches = 0
    for amplitude, restitution in presets:
        oracle = map_lyapunov(
            BounceParams(amplitude, drive, restitution, 100_000, seed=2),
            burn_in=5000,
        )
        ts = gen_bouncing_ball(BounceParams(amplitude, drive, restitution, 400, seed=2))
        rng = np.random.default_rng(99)
        noisy = ts.samples + 0.01 * float(np.std(ts.samples)) * rng.standard_normal(
            ts.samples.size
        )
        nts = TimeSeries(noisy, ts.sample_rate)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = largest_lyapunov(
                nts, EmbeddingConfig(dim=5, delay=estimate_delay(nts))
            )
        # sensor-scale noise floors the divergence fit; a drive-period
        # exponent below 0.05 is indistinguishable from a stable orbit
        estimated_chaotic = res.exponent / drive > 0.05
        matches += estimated_chaotic == (oracle > 0.0)
    assert matches >= 9


# 10 ------------------------------------------------------- DWT contracts


def test_perfect_reconstruction_on_random_signals():
    rng = np.random.default_rng(5)
    for _ in range(100):
        vm = int(rng.integers(1, 9))
        levels = int(rng.integers(1, 5))
        spec = daubechies(vm)
        if rng.random() < 0.5:
            n = int(rng.integers(16, 130)) * 2**levels
        else:
            n = int(rng.integers(256, 2048))
        levels = min(levels, dwt_max_level(n, spec))
        x = rng.standard_normal(n)
        rec = dwt_reconstruct(dwt_decompose(x, spec, levels))
        assert np.max(np.abs(rec - x)) <= 1e-10 * np.max(np.abs(x))


def test_linear_ramp_has_zero_interior_details():
    x = np.linspace(0.0, 5.0, 1024)
    spec = daubechies(4)
    dec = dwt_decompose(x, spec, 3)
    bound = 1e-10 * float(np.max(np.abs(x)))
    for d in dec.details:
        interior = d[spec.support : d.size - spec.support]
        assert np.max(np.abs(interior)) <= bound


def test_denoise_keeps_dominant_peak_at_equal_noise_power():
    rate, n = 100.0, 4096
    t = np.arange(n) / rate
    clean = np.sin(2 * np.pi * 2.0 * t)
    rng = np.random.default_rng(8)
    noisy = clean + math.sqrt(0.5) * rng.standard_normal(n)  # SNR 0 dB
    for rule in ("kill_details", "soft_threshold"):
        cleaned = denoise(noisy, rule=rule)
        ps = power_spectrum(TimeSeries(cleaned, rate))
        assert abs(dominant_frequency(ps) - 2.0) <= rate / n


# 11 ------------------------------------------------ phase synchronization


def test_phase_locked_pair_and_detuned_drift():
    rate, n, period = 200.0, 2**13, 0.578
    scale = period / morlet_fourier_factor(6.0)
    base = phase_at_scale(cwt_morlet(gen_sine_mix([(period, 1.0, 0.0)], rate, n)), scale)

    offset = phase_at_scale(
        cwt_morlet(gen_sine_mix([(period, 1.0, math.pi / 4)], rate, n)), scale
    )
    locked = phase_difference(offset, base)
    assert locked.median == pytest.approx(math.pi / 4, abs=0.05)
    assert locked.segments == [(0, n)]

    detuned = phase_at_scale(
        cwt_morlet(gen_sine_mix([(period / 1.01, 1.0, 0.0)], rate, n)), scale
    )
    drifting = phase_difference(detuned, base)
    # the difference sweeps 2*pi*df*t; it can stay inside the +-band for at
    # most 2*band / (2*pi*df) seconds
    df = 0.01 / period
    bound = 2.0 * SYNC_BAND_RAD / (2.0 * math.pi * df)
    longest = max(((e - s) / rate for s, e in drifting.segments), default=0.0)
    assert longest <= bound * 1.1


# 12 -------------------------------------------------- fractal dimension


def test_fractal_dimension_branch_table():
    assert fractal_dimension(0.5) == 1.25
    assert fractal_dimension(2.0) == 1.5
    assert fractal_dimension(5.0) == 1.0
    for beta in (1.0, 3.0):
        with pytest.raises(BoundaryValueError):
            fractal_dimension(beta)
    # Hurst exponents typical of measured records map into (1, 2)
    for hurst in np.linspace(0.0543, 0.7344, 16):
        d = fractal_dimension(2.0 * hurst + 1.0)
        assert 1.0 < d < 2.0


# 13 ------------------------------------------------------- determinism


def test_repeated_runs_are_byte_identical(tmp_path):
    raw = {
        "input": {
            "kind": "synth",
            "synth": {"kind": "fbm", "hurst": 0.6, "n": 4096, "sample_rate": 10.0},
        },
        "pipeline": [
            {"stage": "spectrum"},
            {"stage": "fit", "f_lo": 0.02, "f_hi": 1.0},
            {"stage": "mfdfa", "difference": True},
        ],
        "output_dir": "placeholder",
        "formats": {"csv": True, "json": True, "svg": True},
    }
    dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = validate_config({**raw, "output_dir": str(out)})
        run(cfg)
        dirs.append(out)
    a, b = dirs
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b and names_a
    assert any(name.endswith(".json") for name in names_a)
    assert any(name.endswith(".csv") for name in names_a)
    for name in names_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    report = json.loads((a / "report.json").read_text())
    assert report["exit_code"] == 0
