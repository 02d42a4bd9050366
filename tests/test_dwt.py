import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavescope import TooShortError, ValidationError, dwt
from wavescope.dwt import (
    SCALING,
    SUPPORT,
    WAVELET,
    denoise,
    dwt_decompose,
    dwt_max_level,
    dwt_reconstruct,
    extract_fluctuation,
)


def test_the_one_filter_is_pinned_bit_for_bit():
    # The bits that the spectral factorization of the two-moment
    # Daubechies filter gave, which every pinned artifact was built with:
    # 0.48296291314453416, 0.8365163037378078, 0.2241438680420134 and
    # -0.12940952255126037.  The wavelet is its quadrature mirror.
    h = ["0x1.ee8dd4748bf15p-2", "0x1.ac4bdd6e3fd70p-1",
         "0x1.cb0bf0b6b7109p-3", "-0x1.0907dc1930690p-3"]
    assert [c.hex() for c in SCALING.tolist()] == h
    g = [h[3], "-" + h[2], h[1], "-" + h[0]]
    assert [c.hex() for c in WAVELET.tolist()] == g
    assert SUPPORT == 4
    assert not SCALING.flags.writeable and not WAVELET.flags.writeable


def test_daubechies_filter_identities():
    # sqrt(2) sum; fsum keeps the check exact of any BLAS kernel.
    h = SCALING.tolist()
    assert math.fsum(h) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # the wavelet filter is orthogonal to the scaling filter at every even shift
    g = WAVELET.tolist()
    for k in range(-1, 2):
        cross = math.fsum(h[i] * g[i + 2 * k] for i in range(4) if 0 <= i + 2 * k < 4)
        assert abs(cross) <= 1e-12, k


def test_every_buildable_order_is_orthogonal():
    # max_k |sum_n h[n] h[n+2k] - delta_k| within 1e-12 for the one filter
    # dwt builds; fsum keeps the check exact of any BLAS kernel.
    h = SCALING.tolist()
    for k in range(SUPPORT // 2):
        dot = math.fsum(a * b for a, b in zip(h, h[2 * k :]))
        assert abs(dot - (k == 0)) <= 1e-12, k


def test_daubechies_vanishing_moments():
    # two vanishing moments: the wavelet filter kills constants and lines
    k = np.arange(SUPPORT, dtype=float)
    for deg in range(2):
        assert math.fsum(WAVELET * k**deg) == pytest.approx(0.0, abs=1e-12)
    assert abs(math.fsum(WAVELET * k**2)) > 0.1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(32, 700))
def test_perfect_reconstruction_property(seed, n):
    rng = np.random.default_rng(seed)
    levels = min(3, dwt_max_level(n))
    x = rng.standard_normal(n)
    decomp = dwt_decompose(x, levels)
    back = dwt_reconstruct(decomp)
    assert np.max(np.abs(back - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))


@pytest.mark.parametrize("n", range(1, 11))
def test_symmetric_reconstruction_is_exact_below_the_filter_support(n):
    # The symmetric extension reflects as often as a short input needs, so
    # an input or a coarse band shorter than the 4-tap support still
    # reconstructs exactly, at every level count that the length allows;
    # one level more is refused.
    x = np.random.default_rng(n).standard_normal(n)
    for levels in range(1, n.bit_length()):
        back = dwt_reconstruct(dwt_decompose(x, levels))
        assert np.max(np.abs(back - x)) <= 1e-10 * np.max(np.abs(x)), levels
    with pytest.raises(TooShortError):
        dwt_decompose(x, n.bit_length())


def test_denoise_keeps_a_constant_shorter_than_the_filter():
    for n in range(2, SUPPORT):
        for rule in dwt.DENOISE_RULES:
            out = denoise(np.full(n, 2.0), rule=rule)
            assert out.size == n
            assert np.max(np.abs(out - 2.0)) <= 1e-12, (n, rule)


@pytest.mark.parametrize("n", [2**12, 2**14])
def test_denoise_takes_one_step_per_level_in_bounded_memory(n, monkeypatch):
    # Documented bounds with symmetric edges: about 3 n floats for
    # kill_details, whose killed bands are freed first, and 4 n for
    # soft_threshold, whose shrunk bands are freed once synthesised (4.5 n
    # when every band was held through the last step).  A warm-up call
    # keeps numpy's first-use imports (np.median's) out of the trace.
    x = np.random.default_rng(1).standard_normal(n)
    rules = {"kill_details": 3.25, "soft_threshold": 4.25}
    for rule, bound in rules.items():
        denoise(x, rule=rule)
        tracemalloc.start()
        try:
            denoise(x, rule=rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * n, (rule, peak / (8 * n))

    calls = {"_analysis": 0, "_synthesis": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(dwt, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(dwt, name, counted)
    levels = dwt_max_level(n) - 2
    for rule in rules:
        calls.update(_analysis=0, _synthesis=0)
        denoise(x, rule=rule)
        assert calls == {"_analysis": levels, "_synthesis": levels}, rule


def test_decompose_levels_and_lengths():
    x = np.random.default_rng(1).standard_normal(256)
    decomp = dwt_decompose(x, 4)
    # A symmetric step of an L-tap filter keeps (m + L - 1) // 2 of m samples.
    assert [d.size for d in decomp.details] == [129, 66, 34, 18]
    assert decomp.approx.size == 18
    assert decomp.lengths == [256, 129, 66, 34]


def test_decompose_rejects_excess_depth():
    x = np.arange(64.0)
    with pytest.raises(TooShortError):
        dwt_decompose(x, dwt_max_level(64) + 3)


def test_decompose_refuses_a_huge_level_count_before_forming_its_power():
    # 2**(10**7) has three million digits; the check never builds it.
    with pytest.raises(TooShortError, match=r"2\*\*10000000 samples, got 8"):
        dwt_decompose(np.zeros(8), 10**7)
    assert len(dwt_decompose(np.zeros(8), 3).details) == 3
    with pytest.raises(TooShortError):
        dwt_decompose(np.zeros(8), 4)


def test_reconstruct_keep_subset_is_linear():
    # A band left out is a None detail band or a zero approximation.
    rng = np.random.default_rng(7)
    x = rng.standard_normal(128)
    decomp = dwt_decompose(x, 3)
    full = dwt_reconstruct(decomp)
    d1, d2, d3 = decomp.details
    zero = np.zeros_like(decomp.approx)
    approx_only = dwt_reconstruct(replace(decomp, details=[None, None, None]))
    details_only = dwt_reconstruct(replace(decomp, approx=zero))
    assert np.allclose(approx_only + details_only, full, atol=1e-10)
    middle = dwt_reconstruct(replace(decomp, approx=zero, details=[None, d2, None]))
    others = dwt_reconstruct(replace(decomp, details=[d1, None, d3]))
    assert np.allclose(middle + others, full, atol=1e-10)


def test_linear_ramp_interior_details_vanish():
    # db2 has two vanishing moments: straight lines produce no detail
    n = 512
    x = 0.7 * np.arange(n) + 3.0
    decomp = dwt_decompose(x, 3)
    edge = 4 * SUPPORT
    for d in decomp.details:
        interior = d[edge : d.size - edge]
        if interior.size:
            assert np.max(np.abs(interior)) <= 1e-10 * np.max(np.abs(x))


def test_denoise_kill_details_removes_high_band():
    rng = np.random.default_rng(3)
    n, rate = 2048, 1000.0
    t = np.arange(n) / rate
    slow = np.sin(2 * np.pi * 5.0 * t)
    x = slow + 0.5 * rng.standard_normal(n)
    # 7 levels, the finest 4 killed
    out = denoise(x)
    # residual against the slow component shrinks vs the raw noise level
    assert np.std(out - slow) < 0.5 * np.std(x - slow)


def test_denoise_depth_and_kill_count_follow_the_length():
    # max(1, dwt_max_level(n) - 2) levels, the finest ceil(levels / 2)
    # of them killed: the result is the reconstruction without them.
    x = np.random.default_rng(0).standard_normal(256)
    assert dwt_max_level(256) == 6
    decomp = dwt_decompose(x, 4)
    decomp.details[:2] = [None, None]
    assert np.array_equal(denoise(x), dwt_reconstruct(decomp))


def test_denoise_soft_threshold_reduces_noise_energy():
    rng = np.random.default_rng(8)
    x = np.sin(np.linspace(0, 20 * np.pi, 2048)) + rng.standard_normal(2048)
    out = denoise(x, rule="soft_threshold")
    assert np.var(out) < np.var(x)


def test_denoise_unknown_rule():
    with pytest.raises(ValidationError):
        denoise(np.arange(64.0), rule="magic")


def test_extract_fluctuation_is_direction_symmetrized_residual():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(256)
    level = 3

    def residual(v):
        decomp = dwt_decompose(v, level)
        return v - dwt_reconstruct(replace(decomp, details=[None] * level))

    want = 0.5 * (residual(x) + residual(x[::-1])[::-1])
    (fluct,) = extract_fluctuation(x, [level])
    assert np.allclose(fluct, want, atol=1e-12)


def test_extract_fluctuation_levels_share_one_pyramid_exactly():
    rng = np.random.default_rng(11)
    x = np.cumsum(rng.standard_normal(4096))
    levels = [1, 2, 4, 7, 9]

    def residual(v, level):
        decomp = dwt_decompose(v, level)
        return v - dwt_reconstruct(replace(decomp, details=[None] * level))

    before = x.copy()
    got = list(extract_fluctuation(x, levels))
    # The two directions are folded in place, into fresh residuals only.
    assert np.array_equal(x, before)
    assert not any(np.shares_memory(fluct, x) for fluct in got)
    assert len(got) == len(levels)
    for fluct, level in zip(got, levels):
        want = 0.5 * (residual(x, level) + residual(x[::-1], level)[::-1])
        assert np.array_equal(fluct, want)
        assert np.array_equal(fluct, next(extract_fluctuation(x, [level])))


def test_extract_fluctuation_rejects_unordered_levels():
    x = np.arange(256.0)
    for levels in ([], [3, 2], [0, 1], [2, 2]):
        with pytest.raises(ValidationError):
            extract_fluctuation(x, levels)


def test_extract_fluctuation_checks_a_level_sequence_at_the_call():
    # The arrays are built lazily, but a bad argument raises before the
    # first one is asked for.
    with pytest.raises(TooShortError):
        extract_fluctuation(np.arange(16.0), [1, 5])
    with pytest.raises(ValidationError):
        extract_fluctuation(np.ones((8, 8)), [1, 2])


def test_extract_fluctuation_builds_each_level_when_asked(monkeypatch):
    # One analysis step per direction and level, taken only when the next
    # array is asked for.
    steps = []
    original = dwt._analysis

    def counted(*args):
        steps.append(args[0].size)
        return original(*args)

    monkeypatch.setattr(dwt, "_analysis", counted)
    x = np.cumsum(np.random.default_rng(3).standard_normal(1024))
    flucts = extract_fluctuation(x, [1, 3, 6])
    assert steps == []
    next(flucts)
    assert steps == [1024, 1024]
    next(flucts)
    assert len(steps) == 2 * 3
    next(flucts)
    assert len(steps) == 2 * 6
    assert next(flucts, None) is None


def test_extract_fluctuation_kills_linear_trend():
    # db2 reproduces straight lines exactly away from the boundary folds
    x = 2.0 * np.arange(512) - 100.0
    (fluct,) = extract_fluctuation(x, [4])
    interior = fluct[32:-32]
    assert np.max(np.abs(interior)) <= 1e-11 * np.max(np.abs(x))


def test_extract_fluctuation_linearity():
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal(128), rng.standard_normal(128)
    levels = [2, 3]
    mixed = extract_fluctuation(2.0 * a - 0.5 * b, levels)
    parts = zip(extract_fluctuation(a, levels), extract_fluctuation(b, levels))
    for lhs, (fa, fb) in zip(mixed, parts):
        assert np.allclose(lhs, 2.0 * fa - 0.5 * fb, atol=1e-10)
