import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavescope import ParseError, ValidationError
from wavescope.signal_core import (
    TimeSeries,
    load_csv,
    profile,
    write_csv,
)


def test_timeseries_basic_fields():
    ts = TimeSeries(np.arange(8.0), 2.0)
    assert ts.sample_rate == 2.0
    assert ts.samples.size == 8
    assert ts.duration == pytest.approx(4.0)


def test_timeseries_rejects_nan_and_bad_rate():
    with pytest.raises(ValidationError):
        TimeSeries(np.array([1.0, np.nan, 2.0]), 1.0)
    with pytest.raises(ValidationError):
        TimeSeries(np.array([1.0, np.inf]), 1.0)
    with pytest.raises(ValidationError):
        TimeSeries(np.arange(4.0), 0.0)
    with pytest.raises(ValidationError):
        TimeSeries(np.arange(4.0), -5.0)


@pytest.mark.parametrize("rate", [float("inf"), float("nan")])
def test_a_rate_that_is_not_finite_is_refused(tmp_path, rate):
    with pytest.raises(ValidationError, match="finite"):
        TimeSeries(np.arange(4.0), rate)
    timed = tmp_path / "timed.csv"
    write_csv(TimeSeries(np.arange(4.0), 2.0), timed)
    bare = tmp_path / "bare.csv"
    bare.write_text("1.0\n2.0\n3.0\n")
    # The stated rate is refused before the file is read, so a missing
    # file raises no OSError.
    for path in (timed, bare, tmp_path / "missing.csv"):
        with pytest.raises(ValidationError, match=f"finite and > 0, got {rate}"):
            load_csv(path, sample_rate=rate)


def test_timeseries_too_short():
    with pytest.raises(ValidationError):
        TimeSeries(np.array([1.0]), 1.0)


def test_profile_is_cumsum_of_mean_subtracted():
    x = np.array([2.0, -1.0, 3.0, 0.0])
    prof = profile(x)
    want = np.cumsum(x - x.mean())
    assert np.allclose(prof, want)


def test_profile_of_timeseries_equals_profile_of_its_samples():
    ts = TimeSeries(np.random.default_rng(0).standard_normal(64), 250.0)
    prof = profile(ts)
    assert prof.size == 64
    assert prof.tobytes() == profile(ts.samples).tobytes()


@pytest.mark.parametrize("shape", [(3, 4), (12, 1), ()])
def test_profile_refuses_samples_that_are_not_one_dimensional(shape):
    # np.cumsum ravels without an axis, so a 2-D input gave a 12-point
    # profile of its flattened rows.
    with pytest.raises(ValidationError, match="one-dimensional"):
        profile(np.arange(12.0)[: int(np.prod(shape))].reshape(shape))


@settings(max_examples=50)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=200,
    )
)
def test_profile_last_value_is_zero(xs):
    # cumsum of a mean-subtracted series always returns to zero
    prof = profile(np.asarray(xs))
    scale = max(1.0, np.max(np.abs(xs)))
    assert abs(prof[-1]) <= 1e-8 * scale * len(xs)


def test_csv_round_trip_with_time_column(tmp_path):
    ts = TimeSeries(np.sin(np.arange(32) * 0.3), 100.0, label="demo")
    path = tmp_path / "sig.csv"
    write_csv(ts, path)
    # CLI-facing layout: time_s,value with a header row
    back = load_csv(path, column=1)
    assert back.sample_rate == pytest.approx(100.0)
    assert np.allclose(back.samples, ts.samples)
    # exact bytes: header, CRLF line ends, repr numbers
    write_csv(TimeSeries(np.array([-0.0, 1e-300, 0.1]), 4.0), path)
    assert path.read_bytes() == (
        b"time_s,value\r\n0.0,-0.0\r\n0.25,1e-300\r\n0.5,0.1\r\n"
    )


def test_csv_bare_column_needs_rate(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    with pytest.raises(ValidationError):
        load_csv(path)
    ts = load_csv(path, sample_rate=10.0)
    assert np.allclose(ts.samples, [1.0, 2.0, 3.0])


def test_csv_parse_error_carries_row(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("value\n1.0\nnot-a-number\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path, sample_rate=1.0)
    assert exc.value.row == 3


def test_csv_rejects_jittered_timestamps(tmp_path):
    t = np.arange(20) * 0.01
    t[10] += 0.004  # 40% of the period, far beyond the 1% tolerance
    rows = "\n".join(f"{ti},{vi}" for ti, vi in zip(t, np.ones(20)))
    path = tmp_path / "jitter.csv"
    path.write_text("time_s,value\n" + rows + "\n")
    with pytest.raises(ValidationError, match="non-uniform sampling"):
        load_csv(path, column=1)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blanks.csv"
    path.write_text("1.0\n\n2.0\n\n3.0\n")
    ts = load_csv(path, sample_rate=1.0)
    assert ts.samples.size == 3


def test_csv_bare_column_with_a_byte_order_mark_keeps_its_first_sample(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1.5\n2.0\n3.0\n")
    ts = load_csv(path, sample_rate=1.0)
    assert ts.samples.tolist() == [1.5, 2.0, 3.0]


def test_csv_time_column_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom_time.csv"
    # The mark precedes the header's first field, which still names the
    # time column.
    path.write_bytes(b"\xef\xbb\xbftime_s,value\n0.0,4.0\n0.5,5.0\n1.0,6.0\n")
    ts = load_csv(path, column=1)
    assert ts.sample_rate == 2.0
    assert ts.samples.tolist() == [4.0, 5.0, 6.0]


def test_csv_from_write_csv_reads_back_with_default_arguments(tmp_path):
    ts = TimeSeries(np.array([5.0, 6.0, 7.0, 8.0]), 4.0, t0=1.5)
    path = tmp_path / "round.csv"
    write_csv(ts, path)
    for back in (load_csv(path), load_csv(path, sample_rate=4.0)):
        assert back.samples.tobytes() == ts.samples.tobytes()
        assert back.sample_rate == 4.0
        assert back.t0 == 1.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"column": -1, "sample_rate": 1.0},  # once read the last column
        {"column": -5, "sample_rate": 1.0},  # once a bare IndexError
    ],
)
def test_csv_refuses_a_negative_column_index(tmp_path, kwargs):
    path = tmp_path / "two.csv"
    path.write_text("0.0,4.0\n0.5,5.0\n1.0,6.0\n")
    with pytest.raises(ValidationError, match="negative column"):
        load_csv(path, **kwargs)
