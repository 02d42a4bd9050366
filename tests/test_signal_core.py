from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wavescope import ParseError, ValidationError, signal_core
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


def test_timeseries_rejects_nan_and_bad_rate():
    with pytest.raises(ValidationError):
        TimeSeries(np.array([1.0, np.nan, 2.0]), 1.0)
    with pytest.raises(ValidationError):
        TimeSeries(np.array([1.0, np.inf]), 1.0)
    with pytest.raises(ValidationError):
        TimeSeries(np.arange(4.0), 0.0)
    with pytest.raises(ValidationError):
        TimeSeries(np.arange(4.0), -5.0)


@pytest.mark.parametrize("rate", [1e-310, 5e-324, np.float64(1e-309)])
def test_a_rate_whose_period_overflows_is_refused(rate):
    # Below about 5.6e-309 Hz, 1 / sample_rate is inf, and so would be
    # every time the series gives.
    with pytest.raises(ValidationError, match=f"finite period .* got {rate}"):
        TimeSeries(np.arange(4.0), rate)
    assert np.isfinite(TimeSeries(np.arange(4.0), 5.6e-309).dt)


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


def test_csv_times_per_block_are_the_series_times(tmp_path):
    # Each block's times, computed from its row numbers, are the bytes of
    # the whole series' times t0 + k / rate, also past the first block and
    # with t0.
    n = 2 * signal_core.TABLE_BLOCK_ROWS + 5
    ts = TimeSeries(np.random.default_rng(8).standard_normal(n), 7.0, t0=12.3)
    write_csv(ts, tmp_path / "blocks.csv")
    times = ts.t0 + np.arange(n) / ts.sample_rate
    rows = zip(times.tolist(), ts.samples.tolist())
    want = "time_s,value\r\n" + "".join(f"{t!r},{v!r}\r\n" for t, v in rows)
    assert (tmp_path / "blocks.csv").read_bytes() == want.encode()


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


# ------------------------------------------------- numpy against row reader
#
# load_csv reads a rectangle of numbers with np.loadtxt and anything else
# again with the csv row reader; both must give the same series or the
# same error, down to the bytes of the samples and the row of a ParseError.

#: Fields the two readers could split on: spellings float() reads and
#: numpy does not (1_000, non-ASCII digits, quotes), the inf and nan
#: spellings, padding, comment marks, subnormals, underflow and overflow,
#: and text that is no number.
_TOKENS = [
    "1_000", "١٢", "٣.٥", '"1.5"', '"2"', "inf", "-inf", "+Infinity", "INF", "nan",
    "NaN", "-nan", " 1.5", "2.5 ", "\t3\t", "\u20034.0\u2003", "1.0\x0b", "1e-400",
    "-1e-400", "5e-324", "2.4703282292062328e-324", "2.2250738585072009e-308", "1e400",
    "#1", "# note", "", " ", "x", "1.0.0", "0x10", ".5", "5.", "+.5e1", "1E5", "\x00",
    "1\x00", "\ufeff1", "0.1000000000000000055511151231257827021181583404541015625",
]
_HEADERS = ["time_s", "time", "T", " Timestamp ", "value", "v", "x"]
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.from_regex(r"-?[0-9]{1,25}(\.[0-9]{0,25})?([eE]-?[0-9]{1,3})?", fullmatch=True),
)
_FIELD = st.one_of(_NUMBER, st.sampled_from(_TOKENS))


@st.composite
def _csv_texts(draw):
    """A CSV text, often a uniform time column beside numbers, with a few
    rows blanked, made ragged, commented out or given a field from
    _TOKENS."""
    ncol = draw(st.integers(1, 3))
    rate = draw(st.sampled_from([1.0, 4.0, 0.3]))
    t0 = draw(st.sampled_from([0.0, 1.5, -2.0]))
    header = st.lists(st.sampled_from(_HEADERS), min_size=1, max_size=3)
    rows = [draw(header)] if draw(st.booleans()) else []
    for k in range(draw(st.integers(1, 10))):
        rows.append([repr(t0 + k / rate)] + [draw(_NUMBER) for _ in range(ncol - 1)])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        edit = draw(st.sampled_from(["field", "blank", "ragged", "comment"]))
        if edit == "blank":
            rows.insert(at, [draw(st.sampled_from(["", "  ", "\t"]))] * draw(st.integers(1, 3)))
        elif edit == "comment":
            rows.insert(at, ["#" + draw(_NUMBER)])
        elif rows:
            row = rows[min(at, len(rows) - 1)]
            if edit == "ragged":
                row[:] = row[:-1] if draw(st.booleans()) else row + [draw(_FIELD)]
            elif row:
                row[draw(st.integers(0, len(row) - 1))] = draw(_FIELD)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(",".join(row) for row in rows)
    if draw(st.booleans()):
        text += eol
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _outcome(path, column, sample_rate):
    try:
        ts = load_csv(path, sample_rate=sample_rate, column=column)
    except (ParseError, ValidationError) as err:
        return type(err).__name__, getattr(err, "row", None), str(err)
    return ts.samples.tobytes(), ts.sample_rate, ts.t0


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    text=_csv_texts(), column=st.integers(0, 2), sample_rate=st.sampled_from([None, 4.0, 4.0])
)
@example(text="time_s,value\n0,1_000\n1,2\n", column=1, sample_rate=None)
@example(text="١٢\n٣.٥\n", column=0, sample_rate=4.0)
@example(text='"1.5"\n2\n', column=0, sample_rate=4.0)
@example(text="x\ninf\n1\n", column=0, sample_rate=4.0)
@example(text="t,v\n0,1\n1,NaN\n2,-Infinity\n", column=1, sample_rate=None)
@example(text=" 1.5 , 2\n 3 ,4 \n", column=1, sample_rate=4.0)
@example(text="1\r\n2\r\n3", column=0, sample_rate=4.0)
@example(text="time\r0\r0.25\r", column=0, sample_rate=4.0)
@example(text="1\n#2\n3\n", column=0, sample_rate=4.0)
@example(text="#t,v\n0,1\n1,2\n", column=0, sample_rate=4.0)
@example(text="\ufefftime_s,value\n0,1\n1,2\n", column=1, sample_rate=None)
@example(text="\ufeff1\n2\n", column=0, sample_rate=4.0)
@example(text="1\n\n2\n,\n  \n3\n", column=0, sample_rate=4.0)
@example(text="1,2\n3\n4,5,6\n", column=0, sample_rate=4.0)
@example(text="0,5e-324\n1,2.2250738585072009e-308\n", column=1, sample_rate=4.0)
@example(text="1e-400\n-1e-400\n1e400\n", column=0, sample_rate=4.0)
def test_numpy_reader_agrees_with_the_row_reader(tmp_path, text, column, sample_rate):
    path = tmp_path / "x.csv"
    path.write_text(text, encoding="utf-8", newline="")
    fast = _outcome(path, column, sample_rate)
    with mock.patch.object(signal_core, "_numpy_columns", side_effect=ValueError):
        rows = _outcome(path, column, sample_rate)
    assert fast == rows


def test_text_that_is_not_utf8_is_refused_by_both_readers(tmp_path):
    # The bad byte lies beyond the first 8 KiB that the header read decodes.
    path = tmp_path / "latin1.csv"
    rows = "".join(f"{k},{k}\n" for k in range(2000))
    path.write_bytes(b"time_s,value\n" + rows.encode() + b"2000,\xe9\n")
    fast = _outcome(path, 1, None)
    with mock.patch.object(signal_core, "_numpy_columns", side_effect=ValueError):
        assert _outcome(path, 1, None) == fast
    assert fast[0] == "ParseError" and "not UTF-8" in fast[2]


def test_a_field_over_the_csv_limit_is_refused_by_both_readers(tmp_path):
    # float() reads 140,000 digits, and so would numpy; the row reader's
    # csv module refuses the field, so the numpy path must not read it.
    path = tmp_path / "long.csv"
    path.write_text("time_s,value\n0,1\n1," + "7" * 140_000 + "\n2,3\n", encoding="utf-8")
    fast = _outcome(path, 1, None)
    with mock.patch.object(signal_core, "_numpy_columns", side_effect=ValueError):
        assert _outcome(path, 1, None) == fast
    assert fast[:2] == ("ParseError", 3) and "field limit" in fast[2]


def test_a_table_of_numbers_is_read_without_the_row_reader(tmp_path):
    ts = TimeSeries(np.array([5e-324, -0.0, 1e300, 0.1]), 4.0, t0=1.5)
    written = tmp_path / "written.csv"
    write_csv(ts, written)
    bare = tmp_path / "bare.csv"
    bare.write_bytes(b"\xef\xbb\xbf 1.5\r2.0\r\r3.0")
    with mock.patch.object(signal_core, "_row_columns", side_effect=AssertionError):
        back = load_csv(written)
        assert back.samples.tobytes() == ts.samples.tobytes()
        assert (back.sample_rate, back.t0) == (4.0, 1.5)
        assert load_csv(bare, sample_rate=1.0).samples.tolist() == [1.5, 2.0, 3.0]


def test_what_numpy_refuses_the_row_reader_reads(tmp_path):
    # np.loadtxt refuses 1_000, a quoted number and Arabic-Indic digits;
    # float() reads all three, so the row reader does.
    path = tmp_path / "spelled.csv"
    path.write_text('1_000\n"1.5"\n١٢\n', encoding="utf-8")
    with mock.patch.object(
        signal_core, "_row_columns", wraps=signal_core._row_columns
    ) as row_reader:
        assert load_csv(path, sample_rate=1.0).samples.tolist() == [1000.0, 1.5, 12.0]
    assert row_reader.call_count == 1
