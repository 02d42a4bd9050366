import hashlib
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from wavescope import (
    PoorFitWarning,
    ValidationError,
    ZeroVarianceError,
    ZeroVarianceWarning,
)
from wavescope import dwt, mfdfa
from wavescope.dwt import daubechies, extract_fluctuation
from wavescope.mfdfa import (
    FluctuationTable,
    default_scales,
    fluctuation_function,
    generalized_hurst,
    q_grid,
    segment_variance,
)
from wavescope.signal_core import profile
from wavescope.synth import gen_fbm


def test_default_q_grid():
    q = q_grid()
    assert q[0] == -10.0 and q[-1] == 10.0
    assert 0.0 in q
    assert np.all(np.diff(q) == 1.0)


@pytest.mark.parametrize(
    "args, name",
    [
        ((float("nan"),), "q_min"),
        ((-1.0, float("inf")), "q_max"),
        ((-1.0, 1.0, float("inf")), "q_step"),
    ],
    ids=["q_min-nan", "q_max-inf", "q_step-inf"],
)
def test_q_grid_refuses_an_argument_that_is_not_finite(args, name):
    # A NaN passes both of the grid's comparisons, and np.arange then
    # raised its own ValueError.
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        q_grid(*args)


@pytest.mark.parametrize("q_min, q_max", [(0.0, -10.0), (0.0, -1e300), (1e300, 0.0)])
def test_q_grid_refuses_a_grid_with_no_order(q_min, q_max):
    # A q_max far below q_min gave np.arange a length below its minimum,
    # and it raised "Maximum allowed size exceeded"; one just below gave
    # an empty grid that only fluctuation_function refused.
    with pytest.raises(ValidationError, match="must give 1 to MAX_Q_VALUES"):
        q_grid(q_min, q_max, 1.0)


def test_segment_variance_hand_example():
    # n=10, scale=4: two front segments [0:4],[4:8], two back [2:6],[6:10]
    x = np.arange(10.0)
    seg = segment_variance(x, 4)
    front0 = np.mean(x[0:4] ** 2)
    front1 = np.mean(x[4:8] ** 2)
    back0 = np.mean(x[2:6] ** 2)
    back1 = np.mean(x[6:10] ** 2)
    assert np.allclose(seg, [front0, front1, back0, back1])


def test_segment_variance_min_segments():
    with pytest.raises(ValidationError):
        segment_variance(np.arange(10.0), 8)  # only 2 segments possible
    with pytest.raises(ValidationError):
        segment_variance(np.arange(10.0), 1)


def test_fluctuation_q2_is_rms_of_segment_variance():
    # F_2(s)^2 must equal the arithmetic mean of segment variances
    ts = gen_fbm(0.6, 2048, seed=0)
    prof = profile(np.diff(ts.samples))
    table = fluctuation_function(prof, q_values=np.array([2.0]))
    levels = range(1, table.scales.size + 1)
    flucts = extract_fluctuation(prof, daubechies(2), levels)
    for j, (fluct, s) in enumerate(zip(flucts, table.scales)):
        seg = segment_variance(fluct, int(s))
        assert table.fluctuation[0, j] == pytest.approx(
            np.sqrt(seg.mean()), rel=1e-12
        )


def test_fluctuation_monotone_in_q():
    # power-mean inequality: F_q(s) is nondecreasing in q at every scale
    ts = gen_fbm(0.4, 4096, seed=2)
    prof = profile(np.diff(ts.samples))
    q = np.arange(-6.0, 6.5, 0.5)
    table = fluctuation_function(prof, q_values=q)
    diffs = np.diff(table.fluctuation, axis=0)
    assert np.all(diffs >= -1e-12 * table.fluctuation[:-1])


def test_zero_variance_segments_warn_for_negative_q():
    x = np.zeros(512)
    x[200:260] = np.sin(np.arange(60.0))
    with pytest.warns(ZeroVarianceWarning):
        fluctuation_function(x, q_values=np.array([-2.0, 2.0]))


def test_all_zero_variance_is_an_error():
    with pytest.warns(ZeroVarianceWarning):
        with pytest.raises((ZeroVarianceError, ValidationError)):
            fluctuation_function(np.zeros(512), q_values=np.array([-2.0]))


def test_a_zero_fluctuation_inside_the_fit_range_is_refused():
    # Positive orders give F_q(s) = 0 on a flat profile instead of
    # raising; its log has no fit, so generalized_hurst names the scale
    # rather than return NaN exponents.
    flat = fluctuation_function(np.zeros(4096), q_values=np.array([1.0, 2.0, 3.0]))
    assert not flat.fluctuation.any()
    with pytest.raises(ZeroVarianceError, match=r"^scale 8: F_q\(s\) = 0 at q = 1;"):
        generalized_hurst(flat)
    # A zero outside the fit range (here above n / 8) is not read.
    table = fluctuation_function(profile(np.random.default_rng(2).standard_normal(4096)))
    zeroed = table.fluctuation.copy()
    zeroed[:, -1] = 0.0
    assert table.scales[-1] > 4096 / 8
    want = generalized_hurst(table).hurst
    got = generalized_hurst(FluctuationTable(table.q_values, table.scales, zeroed, 4096)).hurst
    assert got.tobytes() == want.tobytes()


def test_zero_variance_warns_once_per_scale():
    # Flat except for one burst: every scale but the largest has some
    # zero-variance segments, and the 11 orders q <= 0 share one warning.
    x = np.zeros(4096)
    x[1024:1536] = np.sin(np.linspace(0.0, 6.0 * np.pi, 512))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = fluctuation_function(x)
    zero = [w for w in caught if issubclass(w.category, ZeroVarianceWarning)]
    affected = []
    levels = range(1, table.scales.size + 1)
    for fluct, s in zip(extract_fluctuation(x, daubechies(2), levels), table.scales):
        if np.any(segment_variance(fluct, int(s)) == 0):
            affected.append(int(s))
    assert len(affected) == 8
    scales_warned = [str(w.message).split(":")[0] for w in zero]
    assert scales_warned == [f"scale {s}" for s in affected]


def test_zero_variance_warning_points_at_caller():
    x = np.zeros(4096)
    x[1024:1536] = np.sin(np.linspace(0.0, 6.0 * np.pi, 512))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fluctuation_function(x)
    zero = [w for w in caught if issubclass(w.category, ZeroVarianceWarning)]
    assert zero
    assert all(w.filename == __file__ for w in zero)


def test_one_analysis_pass_per_direction(monkeypatch):
    # Mallat's pyramid: each direction is decomposed once down to the
    # deepest level, not once per level.
    calls = []
    original = dwt._analysis

    def counted(*args):
        calls.append(args[0].size)
        return original(*args)

    monkeypatch.setattr(dwt, "_analysis", counted)
    prof = np.cumsum(np.random.default_rng(5).standard_normal(4096))
    table = fluctuation_function(prof)
    assert len(calls) == 2 * table.scales.size  # one level per scale


def test_fluctuation_function_frees_each_level_before_the_next(monkeypatch):
    # Every level's fluctuation is dead by the time the next one reaches
    # segment_variance: O(1) length-n arrays at any level count.
    seen = []
    original = mfdfa.segment_variance

    def spy(fluct, scale):
        assert [ref() for ref in seen] == [None] * len(seen)
        seen.append(weakref.ref(fluct))
        return original(fluct, scale)

    monkeypatch.setattr(mfdfa, "segment_variance", spy)
    table = fluctuation_function(np.cumsum(np.random.default_rng(5).standard_normal(4096)))
    assert len(seen) == table.scales.size == 9


@pytest.mark.parametrize("n", [2**12, 2**14])
def test_fluctuation_function_working_memory_is_flat_in_the_level_count(n):
    # Documented bound: about 5.5 n floats at any level count, the
    # first-level approximations of both pyramids, one synthesis step and
    # the two residuals.  One fluctuation array per level (9 levels at
    # 2^12, 11 at 2^14) held 12.7 n and 14.6 n floats; the bound is 6 n
    # floats.
    prof = profile(np.random.default_rng(1).standard_normal(n))
    fluctuation_function(prof)  # imports scipy.special outside the trace
    tracemalloc.start()
    try:
        fluctuation_function(prof)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n


def test_moments_share_one_scaled_buffer_across_the_orders():
    # At scale 8 on 2^16 samples, 8192 segment variances and 21 orders.
    # _moments holds the logs of the positive variances, taken in place,
    # and one buffer that every order scales into and shifts in place:
    # about 2.2 arrays of the variances' size.  The logs beside their
    # operand and a scaled and a shifted copy per order took it to 4.2;
    # under glibc those per-order copies came from the heap once a Morlet
    # pass had raised the mmap threshold.
    seg = np.random.default_rng(3).random(2**16 // 8)
    q = mfdfa.q_grid()
    mfdfa._moments(seg, q, 8)
    tracemalloc.start()
    try:
        mfdfa._moments(seg, q, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * seg.nbytes


#: The numpy and scipy versions the digest below was pinned on.
_PINNED_VERSIONS = ("2.4.6", "1.17.1")


def test_fluctuation_tables_are_pinned():
    # sha256 over the F_q(s) tables of fBm increments and of fBm itself:
    # the levels are built one at a time and the tables keep their bytes.
    versions = (np.__version__, scipy.__version__)
    if versions != _PINNED_VERSIONS:
        pytest.skip(
            "tables pinned on numpy/scipy %s/%s, running %s/%s"
            % (*_PINNED_VERSIONS, *versions)
        )
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in (10, 12, 14):
            for hurst in (0.2, 0.5, 0.7, 0.9):
                for seed in (0, 1):
                    x = gen_fbm(hurst, 2**k, seed=seed).samples
                    table = fluctuation_function(profile(np.diff(x)))
                    digest.update(table.fluctuation.tobytes())
                    table = fluctuation_function(profile(x))
                    digest.update(table.fluctuation.tobytes())
    assert digest.hexdigest() == "6a92962dcd36db3e7dc50669d85c44ca0c82492bf9247c3f49f2d061d4f36f1f"


def test_logsumexp_has_the_bits_of_scipy():
    # The moments' log-sum-exp follows scipy's steps; scipy is the reference,
    # on spreads, repeated maxima, sums near overflow and near underflow.
    from scipy.special import logsumexp

    rng = np.random.default_rng(17)
    for i in range(500):
        n = int(rng.integers(1, 2000))
        a = [
            rng.normal(0.0, 50.0, n),
            np.round(rng.normal(0.0, 3.0, n)),
            rng.normal(700.0, 5.0, n),
            rng.normal(-800.0, 30.0, n),
        ][i % 4]
        got = mfdfa._logsumexp(a, 1.0, np.empty_like(a))
        assert np.float64(got).tobytes() == np.float64(logsumexp(a)).tobytes()
    for a in ([np.inf, 1.0], [-np.inf, -np.inf], [1e308, 1e308], [5.0]):
        a = np.array(a)
        got = mfdfa._logsumexp(a, 1.0, np.empty_like(a))
        assert np.float64(got).tobytes() == np.float64(logsumexp(a)).tobytes()


def test_config_holds_at_most_max_q_values_orders():
    prof = profile(np.diff(gen_fbm(0.5, 256, seed=1).samples))
    q = np.zeros(mfdfa.MAX_Q_VALUES)
    assert fluctuation_function(prof, q_values=q).q_values.size == mfdfa.MAX_Q_VALUES
    for size in (0, mfdfa.MAX_Q_VALUES + 1):
        with pytest.raises(ValidationError, match="MAX_Q_VALUES"):
            fluctuation_function(prof, q_values=np.zeros(size))


def _exact_table(h_by_q, scales):
    q = np.array(sorted(h_by_q))
    fl = np.vstack([np.asarray(scales, float) ** h_by_q[v] for v in q])
    return FluctuationTable(
        q_values=q,
        scales=np.asarray(scales),
        fluctuation=fl,
        n=4096,
    )


def test_generalized_hurst_recovers_exact_slopes():
    scales = 4 * 2 ** np.arange(1, 8)
    table = _exact_table({-2.0: 0.9, 0.0: 0.7, 2.0: 0.5}, scales)
    out = generalized_hurst(table, fit_range=(8.0, 512.0))
    assert out.hurst_at(-2.0) == pytest.approx(0.9, abs=1e-12)
    assert out.hurst_at(0.0) == pytest.approx(0.7, abs=1e-12)
    assert out.hurst_at(2.0) == pytest.approx(0.5, abs=1e-12)
    assert np.all(out.fit_r2 > 1.0 - 1e-12)
    assert out.delta_h == pytest.approx(0.4, abs=1e-12)


def test_generalized_hurst_default_fit_range():
    scales = 4 * 2 ** np.arange(1, 8)
    table = _exact_table({2.0: 0.5}, scales)
    out = generalized_hurst(table)
    lo, hi = out.fit_range
    assert lo == pytest.approx(2 * daubechies(2).support)
    assert hi == pytest.approx(table.n / 8)


@pytest.mark.parametrize("ends", [(None, None), (None, 256.0), (16.0, None)])
def test_generalized_hurst_fills_each_open_end_with_its_default(ends):
    table = fluctuation_function(profile(gen_fbm(0.6, 2**12, seed=3).samples))
    default = (2.0 * daubechies(2).support, table.n / 8.0)
    explicit = tuple(d if v is None else v for v, d in zip(ends, default))
    got = generalized_hurst(table, fit_range=ends)
    want = generalized_hurst(table, fit_range=explicit)
    assert got.fit_range == want.fit_range
    assert got.hurst.tobytes() == want.hurst.tobytes()
    assert got.fit_r2.tobytes() == want.fit_r2.tobytes()


def test_generalized_hurst_needs_enough_scales():
    scales = 4 * 2 ** np.arange(1, 4)
    table = _exact_table({2.0: 0.5}, scales)
    with pytest.raises(ValidationError):
        generalized_hurst(table)


def test_generalized_hurst_warns_on_poor_fit():
    scales = 4 * 2 ** np.arange(1, 8)
    rng = np.random.default_rng(0)
    fl = np.exp(rng.standard_normal((1, scales.size)))  # no scaling at all
    table = FluctuationTable(
        q_values=np.array([2.0]),
        scales=scales,
        fluctuation=fl,
        n=4096,
    )
    with pytest.warns(PoorFitWarning):
        generalized_hurst(table, fit_range=(8.0, 512.0))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_moments_match_direct_formula_property(seed):
    # random positive segment variances: compare the pipeline's power mean
    # against the direct textbook expression at a safe q
    rng = np.random.default_rng(seed)
    seg = np.exp(rng.standard_normal(16))
    x = np.repeat(np.sqrt(seg), 2)  # build a signal whose 2-sample segment
    # variances are exactly seg (constant within each segment)
    vs = segment_variance(x, 2)
    for q in (-3.0, 1.0, 4.0):
        direct = (np.mean(vs ** (q / 2.0))) ** (1.0 / q)
        # geometric route used internally must agree to float precision
        logv = np.log(vs)
        from scipy.special import logsumexp

        via_log = np.exp((logsumexp(0.5 * q * logv) - np.log(vs.size)) / q)
        assert direct == pytest.approx(via_log, rel=1e-10)
