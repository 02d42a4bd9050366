import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

# cwt imports scipy.special on first use; load it here, before any test
# traces memory, so that no trace counts the import.
import scipy.special  # noqa: F401

from wavescope import (
    LengthMismatchError,
    ScaleOutOfRangeError,
    ValidationError,
)
from wavescope import cwt as cwtmod
from wavescope.cwt import (
    MORLET_GAMMA,
    SUBOCTAVES,
    GlobalPower,
    PhaseSeries,
    cwt_morlet,
    default_scales,
    dominant_periods,
    global_power,
    morlet_fourier_factor,
    phase_at_scale,
    phase_difference,
)
from wavescope.signal_core import TimeSeries
from wavescope.synth import gen_sine_mix


def _tone(period, rate, n, amp=1.0, phase=0.0):
    return gen_sine_mix([(period, amp, phase)], rate, n)


def _rows(sg):
    """Every row of ``sg`` in scale order, one pass."""
    return sg.rows(range(sg.scales.size))


def _grid(sg):
    """The S x n coefficients, copied row by row from one pass."""
    return np.array([row.copy() for row in _rows(sg)])


def _reliable_mask(sg):
    """Boolean (scale, time) grid, True outside the cone of influence."""
    return sg.periods[:, None] <= sg.coi[None, :]


def test_fourier_factor_value():
    # omega0=6: 4 pi / (6 + sqrt(38)) = 1.03304...
    assert morlet_fourier_factor(6.0) == pytest.approx(1.033044, abs=1e-5)


def test_default_scale_ladder():
    scales = default_scales(1024, 100.0)
    dt = 0.01
    assert scales[0] == pytest.approx(2 * dt)
    assert scales[-1] <= 1024 * dt / 4 * (1 + 1e-9)
    ratios = scales[1:] / scales[:-1]
    assert np.allclose(ratios, 2 ** (1.0 / SUBOCTAVES))


def test_scalogram_peak_scale_tracks_the_period():
    rate, n, period = 200.0, 2048, 0.4
    sg = cwt_morlet(_tone(period, rate, n))
    mean_power = [np.mean(np.abs(row[n // 4 : 3 * n // 4]) ** 2) for row in _rows(sg)]
    ridge = int(np.argmax(mean_power))
    assert sg.periods[ridge] == pytest.approx(period, rel=2 ** (1.0 / SUBOCTAVES) - 1)


def test_direct_convolution_oracle():
    # interior coefficients equal the discretized continuous correlation
    # W(s, t) = integral x(t') s^{-1/2} psi*((t' - t)/s) dt'
    rng = np.random.default_rng(12)
    rate, n = 50.0, 256
    ts = TimeSeries(rng.standard_normal(n), rate)
    dt = 1.0 / rate
    s = 8 * dt
    sg = cwt_morlet(ts)
    assert sg.scales[16] == s  # 2 dt * 2**(16 / SUBOCTAVES)
    x = ts.samples - ts.samples.mean()
    half = int(6 * s / dt)  # 6 sigma truncation, tail mass ~ 1e-8
    k = np.arange(-half, half + 1)
    eta = k * dt / s
    psi = (math.pi**-0.25) * np.exp(1j * 6.0 * eta) * np.exp(-0.5 * eta * eta)
    direct = np.empty(n, dtype=complex)
    for t in range(n):
        lo = max(0, t - half)
        hi = min(n, t + half + 1)
        win = x[lo:hi]
        direct[t] = np.sum(win * np.conj(psi[(lo - t) + half : (hi - t) + half])) * (
            dt / math.sqrt(s)
        )
    interior = slice(half, n - half)
    got = next(sg.rows([16]))[interior]
    want = direct[interior]
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def test_coi_shape_and_reliable_mask():
    sg = cwt_morlet(_tone(0.5, 100.0, 512))
    coi = sg.coi
    n = coi.size
    # rises from the edges, peaks in the middle, symmetric
    assert coi[0] <= coi[5] <= coi[n // 2]
    assert np.allclose(coi, coi[::-1], rtol=1e-9, atol=1e-12)
    mask = _reliable_mask(sg)
    assert mask.shape == (sg.scales.size, n)
    # the smallest scale survives near the center, the largest does not
    assert mask[0, n // 2]
    assert not mask[-1, 0]


@pytest.mark.parametrize("n", range(2, 8))
def test_series_shorter_than_the_ladder_is_refused(n):
    # The ladder runs from 2 dt to n dt / 4, so it is empty below 8 samples.
    with pytest.raises(ValidationError, match="at least 8 samples"):
        cwt_morlet(TimeSeries(np.arange(float(n)), 10.0))
    assert cwt_morlet(TimeSeries(np.arange(8.0), 10.0)).scales.tolist() == [0.2]


def test_omega0_and_norm_validation():
    # omega0 is the constant OMEGA0, not a parameter; norm has two choices.
    ts = _tone(0.5, 100.0, 256)
    with pytest.raises(TypeError):
        cwt_morlet(ts, omega0=6.0)
    with pytest.raises(ValidationError):
        cwt_morlet(ts, norm="l1")


def test_the_scalogram_reads_the_one_omega0():
    sg = cwt_morlet(_tone(0.5, 100.0, 256))
    assert cwtmod.OMEGA0 == 6.0
    assert sg.fourier_factor == morlet_fourier_factor(6.0)
    assert not hasattr(sg, "omega0")


def _full_grid_cwt(ts, scales, norm):
    """Reference: the omega0 = 6 window evaluated and applied on the whole
    frequency grid, every row inverted and scaled at its padded length."""
    x = ts.samples - ts.samples.mean()
    n, dt = x.size, ts.dt
    n_fft = 1 << int(math.ceil(math.log2(2 * n)))
    padded = np.zeros(n_fft)
    padded[:n] = x
    spec = np.fft.fft(padded)
    omega = 2.0 * math.pi * np.fft.fftfreq(n_fft, d=dt)
    coeffs = np.empty((len(scales), n), dtype=complex)
    for i, s in enumerate(scales):
        arg = s * omega - 6.0
        window = np.where(omega > 0, np.exp(-0.5 * arg * arg), 0.0)
        window = window * (math.pi**-0.25) * math.sqrt(2.0 * math.pi)
        prefactor = math.sqrt(s) if norm == "l2" else 1.0
        retained = 0.5 * (math.erf(s * math.pi / dt - 6.0) + math.erf(6.0))
        prefactor /= math.sqrt(retained)
        row = np.fft.ifft(spec * window) * prefactor
        coeffs[i] = row[:n]
    return coeffs


@pytest.mark.parametrize(
    "n, norm, edge_scales",
    [
        (600, "l2", False),
        (777, "l2", False),
        (600, "eq4", False),
        (777, "eq4", True),
        (600, "l2", True),
    ],
)
def test_band_limited_window_matches_full_grid_bytes(n, norm, edge_scales):
    # Bytes, not a tolerance: the band only skips products with a window
    # that is exactly zero, so even the signs of zero must agree.  With
    # ``edge_scales`` one pass reads only the ladder's first and last rows,
    # the widest band and the narrowest.
    rate = 20.0
    ts = TimeSeries(np.random.default_rng(n).standard_normal(n), rate)
    scales = default_scales(n, rate)
    sg = cwt_morlet(ts, norm=norm)
    want = _full_grid_cwt(ts, scales, norm)
    read = [0, scales.size - 1] if edge_scales else range(scales.size)
    got = [row.tobytes() for row in sg.rows(read)]
    assert got == [want[i].tobytes() for i in read]


@pytest.mark.parametrize("n", [2**12, 2**14])
def test_cwt_working_memory_is_linear_in_the_padded_length(n):
    # Documented bound: the transform and a pass reading every row hold
    # O(n_fft) working arrays; 8 complex arrays of n_fft = 2 n leave
    # headroom.
    ts = TimeSeries(np.random.default_rng(1).standard_normal(n), 1.0)
    tracemalloc.start()
    try:
        sg = cwt_morlet(ts)
        for _ in _rows(sg):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * (2 * n)


@pytest.mark.parametrize("n", [2**12, 2**14])
def test_streamed_global_power_holds_no_scalogram(n):
    # Transform and reduction together, rows evaluated as they stream:
    # O(n_fft) working memory with no S x n term.  The coefficients alone
    # would take 16 S n bytes, more than 4 times this bound at S >= 73.
    ts = TimeSeries(np.random.default_rng(1).standard_normal(n), 1.0)
    n_fft = 2 * n
    tracemalloc.start()
    try:
        sg = cwt_morlet(ts)
        global_power(sg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 16 * sg.scales.size * n > 4 * (8 * 16 * n_fft)
    assert peak <= 8 * 16 * n_fft


@pytest.mark.parametrize("n", [2**14, 2**16])
def test_scalogram_pass_holds_one_row_buffer(n):
    # A pass inverts every row in place in one complex n_fft buffer and
    # takes each cone mean over a slice.  A fresh inverse-FFT output per
    # row beside the windowed spectrum would peak near 4 buffers.
    ts = TimeSeries(np.random.default_rng(1).standard_normal(n), 1.0)
    sg = cwt_morlet(ts)
    n_fft = 2 * n
    tracemalloc.start()
    try:
        sg.power_summary()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 16 * n_fft


@pytest.mark.parametrize("n", [2**14, 2**16])
def test_each_inverse_fft_sees_the_half_spectrum_the_row_buffer_and_o_n(monkeypatch, n):
    # Live traced memory as each row's inverse FFT starts, transform
    # included: the positive half of the spectrum (8 n_fft bytes), the row
    # buffer (16 n_fft), the times and the cone (2 n floats), one float
    # per sample to spare and the heat-map record.  About 64.5-67.5 n
    # bytes at 2^16.  A full spectrum, or a band's frequencies and window
    # kept through the FFT (up to 8 n_fft bytes at the smallest scales),
    # would add 16 n or more; before, the calls read 104-113 n.
    ts = TimeSeries(np.random.default_rng(1).standard_normal(n), 1.0)
    n_fft = 2 * n
    live = []
    real = np.fft.ifft

    def recording(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recording)
    tracemalloc.start()
    try:
        sg = cwt_morlet(ts)
        sg.power_summary(heatmap=True)
    finally:
        tracemalloc.stop()
    record = 2 * 8 * sg.scales.size * 192
    assert len(live) == sg.scales.size
    assert max(live) <= 8 * n_fft + 16 * n_fft + 3 * 8 * n + record, max(live) / n


@pytest.mark.parametrize("n", [600, 777])
def test_the_scalogram_holds_only_the_positive_half_of_the_spectrum(n):
    # The bands read bins 1 .. (n_fft + 1) // 2 - 1, so that is all the
    # spectrum kept: the bytes of the full transform's first bins.
    ts = TimeSeries(np.random.default_rng(n).standard_normal(n), 20.0)
    sg = cwt_morlet(ts)
    n_fft = 2048
    padded = np.zeros(n_fft)
    padded[:n] = ts.samples - ts.samples.mean()
    half = (n_fft + 1) // 2
    assert sg._n_fft == n_fft
    assert sg._spec.shape == (half,) and sg._spec.flags.owndata
    assert sg._spec.tobytes() == np.fft.fft(padded)[:half].tobytes()
    assert max(stop for _, stop, _ in sg._bands) <= half


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="measured under glibc's malloc")
def test_cold_morlet_pass_faults_like_a_warm_one(fresh_python, tmp_path):
    # numpy's FFT frees two scratch arrays in every row's ifft.  Unless
    # the process has freed a larger block, glibc maps them anew for each
    # row: 504k minor faults at 2^18, against 12.5k after a 16 MiB block
    # is freed.  A series from np.load frees no large block, so only the
    # pass's own block keeps the cold run near the warm one (18k here).
    path = tmp_path / "x.npy"
    np.save(path, np.cumsum(np.random.default_rng(1).standard_normal(2**18)))
    setup = (
        "import numpy as np\n"
        "from wavescope import cwt\n"
        "from wavescope.signal_core import TimeSeries\n"
        f"ts = TimeSeries(np.load({str(path)!r}), 1.0)\n"
    )
    code = "cwt.global_power(cwt.cwt_morlet(ts))"
    cold = fresh_python(code, setup).minflt
    warm = fresh_python(code, setup + "np.empty(2**24, dtype=np.uint8)\n").minflt
    assert cold <= 2 * warm


def _masked_means(sg, grid):
    """Per-scale mean of a (scale, time) grid over the reliable mask, NaN
    where a scale has no point outside the cone."""
    mask = _reliable_mask(sg)
    return np.array([row[m].mean() if m.any() else np.nan for row, m in zip(grid, mask)])


def test_global_power_bins_no_heat_map(monkeypatch):
    # global_power alone pays for no heat map: no log10 and no binning.
    def refused(*args, **kwargs):
        raise AssertionError("heat-map work in global_power")

    sg = cwt_morlet(TimeSeries(np.random.default_rng(2).standard_normal(1000), 20.0))
    monkeypatch.setattr(np, "log10", refused)
    monkeypatch.setattr("wavescope.cwt.column_bins", refused)
    gp = global_power(sg)
    summary = sg.power_summary()
    assert summary.heatmap is None
    assert gp.power.tobytes() == summary.mean_power[summary.counts > 0].tobytes()


def test_power_summary_keeps_the_record_it_covers(monkeypatch):
    ts = TimeSeries(np.random.default_rng(4).standard_normal(700), 20.0)
    calls = []
    real = np.fft.ifft

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    plain, full = cwt_morlet(ts), cwt_morlet(ts)
    monkeypatch.setattr(np.fft, "ifft", counting)
    # A heat-map pass serves plain requests; a plain pass is redone once
    # for the heat map, which then serves both.
    assert full.power_summary(heatmap=True) is full.power_summary()
    assert plain.power_summary() is plain.power_summary()
    with_map = plain.power_summary(heatmap=True)
    assert with_map is plain.power_summary() is plain.power_summary(heatmap=True)
    assert len(calls) == 3 * plain.scales.size
    for name in ("counts", "mean_power", "heatmap"):
        assert getattr(with_map, name).tobytes() == getattr(full.power_summary(), name).tobytes()


def test_interleaved_row_passes_keep_their_own_buffers():
    # Each pass owns its buffer: rows of one pass survive the other pass
    # moving on, whether the two walk in step or one row apart.
    ts = TimeSeries(np.random.default_rng(3).standard_normal(700), 20.0)
    sg = cwt_morlet(ts)
    want = [row.tobytes() for row in _rows(cwt_morlet(ts))]
    in_step = [(a.tobytes(), b.tobytes()) for a, b in zip(_rows(sg), _rows(sg))]
    assert in_step == list(zip(want, want))
    ahead = _rows(sg)
    next(ahead)
    offset = [(a.tobytes(), b.tobytes()) for a, b in zip(_rows(sg), ahead)]
    assert offset == list(zip(want, want[1:]))


@pytest.mark.parametrize("norm", ["l2", "eq4"])
def test_streamed_rows_match_the_held_coefficients(norm):
    # Streamed rows are the bytes of a grid copied from another pass,
    # whether or not that scalogram was read before, and so is the global
    # power.
    ts = TimeSeries(np.random.default_rng(7).standard_normal(1000), 20.0)
    streamed, held = (cwt_morlet(ts, norm=norm) for _ in range(2))
    coeffs = _grid(held)
    assert [r.tobytes() for r in _rows(streamed)] == [r.tobytes() for r in coeffs]
    a, b = global_power(streamed), global_power(held)
    for name in ("power", "significance_95"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert streamed.power_summary().counts.tobytes() == held.power_summary().counts.tobytes()
    # The per-scale power that global_power read is the masked mean's.
    want = _masked_means(held, np.abs(coeffs) ** 2)
    assert streamed.power_summary().mean_power.tobytes() == want.tobytes()


def test_phase_at_scale_evaluates_only_its_row(monkeypatch):
    ts = _tone(0.4, 100.0, 700)
    held = cwt_morlet(ts)
    coeffs = _grid(held)
    picks = (0, 9, held.scales.size - 1)
    # The held scalogram's phase rows are computed before counting starts.
    held_phase = [phase_at_scale(held, float(held.scales[i])).phase for i in picks]
    calls = []
    real = np.fft.ifft

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    sg = cwt_morlet(ts)
    monkeypatch.setattr(np.fft, "ifft", counting)
    for idx, want in zip(picks, held_phase):
        ph = phase_at_scale(sg, float(sg.scales[idx]))
        assert ph.phase.tobytes() == np.angle(coeffs[idx]).tobytes()
        assert ph.phase.tobytes() == want.tobytes()
    assert len(calls) == 3
    # The amplitude is the modulus of the same row.
    for idx in picks:
        assert np.abs(next(sg.rows((idx,)))).tobytes() == np.abs(coeffs[idx]).tobytes()


def test_global_power_matches_masked_mean():
    ts = _tone(0.3, 100.0, 1024)
    sg = cwt_morlet(ts)
    gp = global_power(sg, background="white")
    mask = _reliable_mask(sg)
    power = np.abs(_grid(sg)) ** 2
    keep = mask.sum(axis=1) > 0
    manual = np.array(
        [row[m].mean() for row, m in zip(power[keep], mask[keep])]
    )
    assert gp.power.tobytes() == manual.tobytes()
    assert np.array_equal(sg.power_summary().counts, mask.sum(axis=1)[keep])


def test_global_power_arrays_are_its_own():
    # Editing the result reaches neither the scalogram nor the record that
    # it keeps for later readers.
    sg = cwt_morlet(_tone(0.3, 100.0, 512))
    gp = global_power(sg)
    summary = sg.power_summary()
    kept = (sg.scales, summary.mean_power, summary.counts)
    before = [a.copy() for a in kept]
    for a in (gp.scales, gp.periods, gp.power, gp.significance_95):
        a[...] = 0
    assert all(np.array_equal(a, b) for a, b in zip(kept, before))


@pytest.mark.parametrize("n", [17, 600, 777, 1024])
def test_cone_slices_match_the_reliable_mask(n):
    # Each scale's points outside the cone are one run [lo, hi), empty
    # where the scale has none, at odd and even lengths alike.
    ts = TimeSeries(np.random.default_rng(n).standard_normal(n), 20.0)
    sg = cwt_morlet(ts)
    # Every ladder scale keeps points outside the cone; the cone reads only
    # the periods, so a scale of n dt / 2 appended here has none.
    sg.scales = np.append(sg.scales, n / 40.0)
    mask = _reliable_mask(sg)
    runs = np.zeros_like(mask)
    for row, outside in zip(runs, sg._outside_slices()):
        row[outside] = True
    assert np.array_equal(runs, mask)
    assert not mask[-1].any()


def test_every_ladder_scale_keeps_samples_outside_the_cone():
    # default_scales' invariant, on which power_summary and global_power
    # rely to average every scale: the largest period, at most n dt / 4
    # times the Fourier factor, stays below the cone's peak, floor((n - 1)
    # / 2) dt / sqrt(2) times the same factor.
    for n in range(8, 2049):
        sg = cwt_morlet(TimeSeries(np.zeros(n), 1.0))
        assert all(s.start < s.stop for s in sg._outside_slices()), n


def test_global_power_tone_peak_and_significance():
    rate, n, period = 100.0, 4096, 0.3
    ts = _tone(period, rate, n)
    sg = cwt_morlet(ts)
    gp = global_power(sg, background="white")
    peaks = dominant_periods(gp, max_count=1)
    assert peaks and peaks[0] == pytest.approx(period, rel=0.1)
    i = int(np.argmin(np.abs(gp.periods - period)))
    assert gp.power[i] > gp.significance_95[i]


def test_dominant_periods_refuses_a_negative_count():
    # Two interior maxima; a count of -1 would have sliced off the weaker.
    periods = np.arange(1.0, 6.0)
    gp = GlobalPower(
        scales=periods, periods=periods, power=np.array([0.0, 2.0, 0.0, 1.0, 0.0]),
        significance_95=np.ones(5), ar1=None,
    )
    assert dominant_periods(gp) == [2.0, 4.0]
    assert dominant_periods(gp, max_count=0) == []
    with pytest.raises(ValidationError, match="max_count"):
        dominant_periods(gp, max_count=-1)


def test_red_background_estimates_ar1_from_the_scalograms_samples():
    # The scalogram keeps a reference to the samples it was built from, not
    # a copy, and a red background estimates its lag-1 coefficient from
    # them; a white one estimates none.
    ts = _tone(0.3, 100.0, 512)
    sg = cwt_morlet(ts)
    assert sg._series is ts.samples
    gp = global_power(sg, background="red")
    assert gp.ar1 == cwtmod._estimate_ar1(ts.samples)
    assert global_power(sg).ar1 is None


#: A seeded AR(1) series with phi = 0.6, its red-background global power,
#: and the bytes of that power's significance curve.
_RED_AR1 = """\
import hashlib
import numpy as np
from wavescope.cwt import cwt_morlet, global_power
from wavescope.signal_core import TimeSeries
e = np.random.default_rng(5).standard_normal(4096)
x = np.empty_like(e)
x[0] = e[0]
for t in range(1, x.size):
    x[t] = 0.6 * x[t - 1] + e[t]
gp = global_power(cwt_morlet(TimeSeries(x, 1.0)), background="red")
digest = hashlib.sha256(gp.significance_95.tobytes()).hexdigest()
"""


def test_red_background_estimates_ar1_with_the_same_bits_on_every_blas_core():
    # The estimate sums with numpy, not BLAS: np.dot on this series gave a
    # different last bit under each forced OpenBLAS core type.
    scope = {}
    exec(_RED_AR1, scope)
    assert scope["gp"].ar1 == pytest.approx(0.6, abs=0.05)
    want = f"{scope['gp'].ar1.hex()} {scope['digest']}"
    src = str(Path(cwt_morlet.__code__.co_filename).resolve().parents[1])
    for core in ("SkylakeX", "Haswell", "Sandybridge"):
        env = {
            **os.environ,
            "OPENBLAS_CORETYPE": core,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        code = _RED_AR1 + "print(gp.ar1.hex(), digest)"
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert child.stdout.strip() == want, core


def test_phase_at_scale_reports_snapped_scale():
    ts = _tone(0.4, 100.0, 512)
    sg = cwt_morlet(ts)
    ph = phase_at_scale(sg, scale=float(sg.scales[7]) * 1.02)
    assert ph.scale == pytest.approx(float(sg.scales[7]))


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_phase_at_scale_refuses_a_scale_that_is_not_finite_and_positive(scale):
    sg = cwt_morlet(_tone(0.4, 100.0, 512))
    with pytest.raises(ValidationError, match="finite positive"):
        phase_at_scale(sg, scale)


def test_phase_at_scale_takes_an_octave_beyond_the_ladder_and_refuses_more():
    sg = cwt_morlet(_tone(0.4, 100.0, 512))
    lo, hi = float(sg.scales[0]), float(sg.scales[-1])
    assert phase_at_scale(sg, 0.5 * lo).scale == lo
    assert phase_at_scale(sg, 2.0 * hi).scale == hi
    for scale in (np.nextafter(0.5 * lo, 0.0), np.nextafter(2.0 * hi, math.inf), 1e300):
        with pytest.raises(ScaleOutOfRangeError, match="more than an octave"):
            phase_at_scale(sg, float(scale))


def test_phase_difference_constant_offset():
    rate, n, period = 100.0, 4096, 0.4
    a = cwt_morlet(_tone(period, rate, n, phase=0.9))
    b = cwt_morlet(_tone(period, rate, n, phase=0.0))
    idx = int(np.argmin(np.abs(a.periods - period)))
    s = float(a.scales[idx])
    cmp_ = phase_difference(phase_at_scale(a, s), phase_at_scale(b, s))
    assert cmp_.median == pytest.approx(0.9, abs=0.02)
    assert cmp_.segments  # phase-locked pair must show a segment


def test_phase_difference_wraps_near_pi():
    # offsets straddling +-pi must not average to zero
    rate, n, period = 100.0, 4096, 0.4
    a = cwt_morlet(_tone(period, rate, n, phase=math.pi - 0.05))
    b = cwt_morlet(_tone(period, rate, n, phase=-math.pi + 0.05))
    idx = int(np.argmin(np.abs(a.periods - period)))
    s = float(a.scales[idx])
    cmp_ = phase_difference(phase_at_scale(a, s), phase_at_scale(b, s))
    # true difference is -0.1 wrapped, i.e. 2 pi - 0.1 -> -0.1
    assert abs(abs(cmp_.median) - 0.1) < 0.02


@pytest.mark.parametrize(
    "mask, segments",
    [
        ("####........", [(0, 4)]),
        ("........####", [(8, 12)]),
        (".###..##.....", [(1, 4)]),
        ("############", [(0, 12)]),
        (None, []),
    ],
)
def test_phase_difference_segments_at_the_run_edges(mask, segments):
    # One sample per second and a one-second period: a run needs 3
    # samples.  "#" marks a difference of 0 rad, inside the band around
    # the median; "." alternates +-1 rad, outside it, in equal numbers so
    # that the median stays 0.  With no mask the difference alternates 0
    # and 1 rad, whose median 0.5 rad leaves every sample outside the band.
    if mask is not None:
        outside = np.resize([1.0, -1.0], mask.count("."))
        delta = np.zeros(len(mask))
        delta[[c == "." for c in mask]] = outside
    else:
        delta = np.resize([0.0, 1.0], 12)

    def series(phase):
        n = phase.size
        return PhaseSeries(1.0, 1.0, np.arange(n, dtype=float), phase, 1.0)

    cmp_ = phase_difference(series(delta), series(np.zeros(delta.size)))
    assert cmp_.segments == segments


def test_phase_difference_rejects_mismatched_rows():
    a = cwt_morlet(_tone(0.4, 100.0, 512))
    b = cwt_morlet(_tone(0.4, 100.0, 1024))
    sa = float(a.scales[5])
    with pytest.raises(LengthMismatchError):
        phase_difference(phase_at_scale(a, sa), phase_at_scale(b, sa))


def test_morlet_gamma_constant():
    # decorrelation length for the chi-squared dof formula
    assert MORLET_GAMMA == pytest.approx(2.32)
