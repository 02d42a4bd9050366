import tracemalloc

import numpy as np
import pytest

from wavescope import (
    BoundaryValueError,
    InsufficientBandError,
    OutOfRangeError,
    ValidationError,
)
from wavescope.signal_core import TimeSeries, load_csv, write_csv
from wavescope.spectral import (
    DISSIPATION_SLOPE,
    NEUTRAL_CASCADE_SLOPE,
    PowerSpectrum,
    dominant_frequency,
    fit_power_law,
    fractal_dimension,
    heisenberg_fit,
    hurst_from_alpha,
    power_spectrum,
)
from wavescope.synth import gen_fbm


def _tone(freq, rate, n, amp=1.0):
    t = np.arange(n) / rate
    return TimeSeries(amp * np.sin(2 * np.pi * freq * t), rate)


def test_power_spectrum_parseval():
    rng = np.random.default_rng(0)
    ts = TimeSeries(rng.standard_normal(1024) + 0.3, 10.0)
    ps = power_spectrum(ts, window="none")
    # one-sided density integrates back to the mean square (DC included)
    assert np.sum(ps.power) * ps.sample_rate / ps.n == pytest.approx(
        np.mean(ts.samples**2), rel=1e-9
    )


def test_power_spectrum_frequency_axis():
    ps = power_spectrum(_tone(5.0, 100.0, 256))
    assert ps.freqs[0] == 0.0
    assert ps.freqs[-1] == pytest.approx(50.0)
    assert np.diff(ps.freqs) == pytest.approx(np.full(128, 100.0 / 256))


def test_dominant_frequency_pure_tone():
    rate, n = 200.0, 1024
    f0 = 25.0 * rate / n * 8  # align on a bin
    ps = power_spectrum(_tone(f0, rate, n))
    assert dominant_frequency(ps) == pytest.approx(f0, abs=rate / n)


def test_dominant_frequency_ignores_dc():
    ts = TimeSeries(np.sin(2 * np.pi * 5.0 * np.arange(512) / 100.0) + 50.0, 100.0)
    ps = power_spectrum(ts)
    assert dominant_frequency(ps) == pytest.approx(5.0, abs=2 * 100.0 / 512)


def test_fit_power_law_exact_synthetic():
    freqs = np.linspace(0.0, 10.0, 513)
    power = np.zeros_like(freqs)
    power[1:] = 3.0 * freqs[1:] ** -2.0
    ps = PowerSpectrum(freqs, power, n=1024, sample_rate=20.0)
    fit = fit_power_law(ps, 0.05, 9.0)
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.alpha_abs == pytest.approx(2.0, abs=1e-9)


def test_fit_power_law_band_respected():
    freqs = np.linspace(0.0, 10.0, 513)
    power = np.ones_like(freqs)
    sel = freqs >= 1.0
    power[sel] = freqs[sel] ** -3.0
    ps = PowerSpectrum(freqs, power, n=1024, sample_rate=20.0)
    fit = fit_power_law(ps, 1.2, 9.0)
    assert fit.slope == pytest.approx(-3.0, abs=0.02)
    assert fit.band == (1.2, 9.0)


def test_fit_power_law_insufficient_band():
    ps = power_spectrum(_tone(5.0, 100.0, 256))
    with pytest.raises(InsufficientBandError):
        fit_power_law(ps, 49.0, 50.0)
    with pytest.raises(ValidationError):
        fit_power_law(ps, 10.0, 2.0)  # inverted band


def test_hurst_alpha_round_trip():
    for H in (0.1, 0.35, 0.5, 0.72, 0.9):
        assert hurst_from_alpha(2.0 * H + 1.0) == pytest.approx(H)


def test_hurst_from_alpha_domain():
    # valid only on the nonstationary branch 1 < alpha < 3
    with pytest.raises(OutOfRangeError):
        hurst_from_alpha(1.0)
    with pytest.raises(OutOfRangeError):
        hurst_from_alpha(3.0)
    with pytest.raises(OutOfRangeError):
        hurst_from_alpha(0.5)
    assert hurst_from_alpha(2.0) == pytest.approx(0.5)


def test_fractal_dimension_branch_table():
    assert fractal_dimension(0.5) == pytest.approx(1.25)
    assert fractal_dimension(2.0) == pytest.approx(1.5)
    assert fractal_dimension(5.0) == pytest.approx(1.0)


def test_fractal_dimension_boundaries_rejected():
    for beta in (1.0, 3.0):
        with pytest.raises(BoundaryValueError):
            fractal_dimension(beta)
    with pytest.raises(ValidationError):
        fractal_dimension(-0.1)


def test_heisenberg_presets():
    assert NEUTRAL_CASCADE_SLOPE == pytest.approx(-5.0 / 3.0)
    assert DISSIPATION_SLOPE == pytest.approx(-7.0)
    freqs = np.linspace(0.0, 10.0, 513)
    power = np.zeros_like(freqs)
    power[1:] = freqs[1:] ** (-5.0 / 3.0)
    ps = PowerSpectrum(freqs, power, n=1024, sample_rate=20.0)
    res = heisenberg_fit(ps, 0.05, 9.0, regime="neutral")
    assert res.matches
    assert res.target == pytest.approx(-5.0 / 3.0)
    res7 = heisenberg_fit(ps, 0.05, 9.0, regime="dissipation")
    assert not res7.matches


def test_heisenberg_numeric_regime():
    freqs = np.linspace(0.0, 10.0, 513)
    power = np.zeros_like(freqs)
    power[1:] = freqs[1:] ** -2.5
    ps = PowerSpectrum(freqs, power, n=1024, sample_rate=20.0)
    res = heisenberg_fit(ps, 0.05, 9.0, regime=-2.5, rel_tolerance=0.05)
    assert res.matches
    assert res.tolerance == pytest.approx(0.125)


def test_heisenberg_rejects_a_negative_tolerance():
    # |slope - target| <= -0.1 * |target| could never hold.
    ps = power_spectrum(_tone(5.0, 100.0, 256))
    assert heisenberg_fit(ps, 1.0, 40.0, rel_tolerance=0.0).tolerance == 0.0
    with pytest.raises(ValidationError, match="rel_tolerance"):
        heisenberg_fit(ps, 1.0, 40.0, rel_tolerance=-0.1)


def test_heisenberg_rejects_unknown_regime():
    ps = power_spectrum(_tone(5.0, 100.0, 256))
    with pytest.raises(ValidationError):
        heisenberg_fit(ps, 1.0, 40.0, regime="inertial")


def _traced_peak(fn):
    """The tracemalloc peak of ``fn()``, after one untraced call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [2**12, 2**14])
def test_input_and_spectral_stage_memory_is_linear_in_n(tmp_path, n):
    # Documented bounds, in bytes per sample (measured): load_csv of a
    # write_csv file about 4 floats (32-34), power_spectrum 3 (24.1),
    # 5 with hann (40.1), and fit_power_law and heisenberg_fit about 5
    # floats per bin of the n/2 + 1 (19.7 per sample).
    ts = gen_fbm(0.5, n, seed=1, sample_rate=1.0)
    path = tmp_path / "x.csv"
    write_csv(ts, path)
    ps = power_spectrum(ts)
    bounds = {
        "load_csv": (lambda: load_csv(path), 4.5 * 8),
        "spectrum": (lambda: power_spectrum(ts), 3.5 * 8),
        "hann": (lambda: power_spectrum(ts, window="hann"), 5.5 * 8),
        "fit": (lambda: fit_power_law(ps, 0.002, 0.4), 3 * 8),
        "heisenberg": (lambda: heisenberg_fit(ps, 0.002, 0.4), 3 * 8),
    }
    per_sample = {name: _traced_peak(fn) / n for name, (fn, _) in bounds.items()}
    assert all(per_sample[name] <= bound for name, (_, bound) in bounds.items()), per_sample
