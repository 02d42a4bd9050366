import argparse
import ast
import hashlib
import json
import tracemalloc
import weakref
from contextlib import nullcontext

import numpy as np
import pytest
import scipy

# The globalpower stage imports scipy.special on first use; load it here,
# before any test traces memory, so that no trace counts the import.
import scipy.special  # noqa: F401
from wavescope import (
    ConfigError,
    EmbeddingQualityWarning,
    ParseError,
    ZeroVarianceWarning,
    dwt,
    spectral,
    svg,
    synth,
)
from wavescope import cli as climod
from wavescope import cwt as cwtmod
from wavescope import figures as figmod
from wavescope.cli import (
    FIGURE_NAMES,
    _STAGE_FUNCS,
    _STAGE_PARAMS,
    _build_input,
    _build_parser,
    figure_repro,
    main,
    run,
    validate_config,
)
from wavescope.signal_core import TimeSeries, load_csv, write_csv, write_table
from wavescope.synth import BounceParams, gen_bouncing_ball, gen_fbm


def _good_raw(tmp_path, pipeline=None):
    return {
        "input": {
            "kind": "synth",
            "synth": {"kind": "fbm", "hurst": 0.5, "n": 4096, "sample_rate": 1.0},
        },
        "pipeline": pipeline
        if pipeline is not None
        else [{"stage": "mfdfa", "difference": True, "fit_lo": 16, "fit_hi": 512}],
        "output_dir": str(tmp_path / "out"),
    }


# --------------------------------------------------------------- validation


def test_validate_fills_defaults(tmp_path):
    cfg = validate_config(_good_raw(tmp_path))
    assert cfg.seed == 0
    assert cfg.formats == {"csv": True, "json": True, "svg": False}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("pipeline"),
        lambda r: r.update(extra=1),
        lambda r: r["pipeline"].append({"stage": "fourier"}),
        lambda r: r["pipeline"][0].update(bogus=True),
        lambda r: r.update(seed=-1),
        lambda r: r.update(seed="five"),
        lambda r: r.update(seed=True),
        lambda r: r.update(formats={"pdf": True}),
        lambda r: r.update(formats={"svg": "yes"}),
        lambda r: r["input"]["synth"].update(kind="brownian"),
        lambda r: r["input"]["synth"].pop("hurst"),
        lambda r: r.update(output_dir=""),
        lambda r: r["pipeline"].append({"stage": "fit", "f_lo": "a", "f_hi": 1.0}),
        lambda r: r["pipeline"].append({"stage": "lyapunov", "delay": "x"}),
        lambda r: r["pipeline"][0].update(difference="no"),
        lambda r: r["pipeline"].append({"stage": "lyapunov", "dim": True}),
        # the Morlet omega0 and the MFDFA q grid are constants, not params
        lambda r: r["pipeline"].append({"stage": "cwt", "omega0": 6.0}),
        lambda r: r["input"]["synth"].update(sample_rate=float("inf")),
        # neither kind draws a random number, so neither declares a seed
        lambda r: r["input"].update(synth=dict(_SYNTHS["sines"][0], seed=1)),
        lambda r: r["input"].update(synth=dict(_SYNTHS["cascade"][0], seed=1)),
        # each transform has one edge policy, so neither is a param
        lambda r: r["pipeline"].append({"stage": "denoise", "boundary": "symmetric"}),
        lambda r: r["pipeline"].append({"stage": "cwt", "pad": "zero"}),
        lambda r: r["pipeline"].append({"stage": "globalpower", "omega0": 6.0}),
        lambda r: r["pipeline"][0].update(q_min=-10.0),
        lambda r: r["pipeline"][0].update(q_max=10.0),
        lambda r: r["pipeline"][0].update(q_step=1.0),
        # the DWT has one wavelet and denoise one depth and kill count
        lambda r: r["pipeline"].append({"stage": "denoise", "vanishing_moments": 2}),
        lambda r: r["pipeline"].append({"stage": "denoise", "levels": 3}),
        lambda r: r["pipeline"].append({"stage": "denoise", "kill_count": 1}),
    ],
)
def test_validate_rejects_bad_configs(tmp_path, mutate):
    raw = _good_raw(tmp_path)
    mutate(raw)
    with pytest.raises(ConfigError):
        validate_config(raw)


#: kind -> (config section, the same series built by a direct generator call)
_SYNTHS = {
    "fbm": (
        {"kind": "fbm", "hurst": 0.7, "n": 256, "sample_rate": 2.0, "increments": True},
        lambda: np.diff(synth.gen_fbm(0.7, 256, seed=5, sample_rate=2.0).samples),
    ),
    "powerlaw": (
        {"kind": "powerlaw", "beta": 1.5, "n": 64, "sample_rate": 3.0, "seed": 2},
        lambda: synth.gen_power_law_noise(1.5, 64, seed=2, sample_rate=3.0).samples,
    ),
    "sines": (
        {"kind": "sines", "components": [[0.5, 1.0, 0.3]], "sample_rate": 10.0, "n": 64},
        lambda: synth.gen_sine_mix([(0.5, 1.0, 0.3)], 10.0, 64).samples,
    ),
    "bounce": (
        {"kind": "bounce", "amplitude": 9.0, "drive_freq": 25.0, "restitution": 0.7,
         "n_impacts": 40, "sample_rate": 800.0},
        lambda: synth.gen_bouncing_ball(
            BounceParams(9.0, 25.0, 0.7, 40, seed=5), sample_rate=800.0
        ).samples,
    ),
    "cascade": (
        {"kind": "cascade", "a": 0.7, "levels": 6},
        lambda: synth.gen_binomial_cascade(0.7, 6).samples,
    ),
}


@pytest.mark.parametrize("kind", sorted(_SYNTHS))
def test_every_synth_kind_builds_its_generators_bytes(tmp_path, kind):
    # fbm and bounce give no seed of their own, so they take the run's (5).
    section, direct = _SYNTHS[kind]
    raw = {"input": {"kind": "synth", "synth": section}, "pipeline": [],
           "output_dir": str(tmp_path), "seed": 5}
    built = _build_input(validate_config(raw))
    assert built.samples.tobytes() == direct().tobytes()


def test_validation_happens_before_any_output(tmp_path):
    raw = _good_raw(tmp_path)
    raw["pipeline"].append({"stage": "nonsense"})
    with pytest.raises(ConfigError):
        validate_config(raw)
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- csv sniffing


def test_sniffed_loader_promotes_time_header(tmp_path):
    ts = TimeSeries(np.sin(np.arange(64) / 5.0), 25.0)
    path = tmp_path / "two_col.csv"
    write_csv(ts, path)  # writes time_s,value
    back = load_csv(path)
    assert back.sample_rate == pytest.approx(25.0)
    np.testing.assert_allclose(back.samples, ts.samples, rtol=1e-12)


def test_sniffed_loader_bare_column_needs_rate(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("value\n" + "\n".join(str(v) for v in range(32)) + "\n")
    ts = load_csv(path, sample_rate=10.0)
    assert ts.sample_rate == 10.0
    assert ts.samples.size == 32


_BOM_TIME_CSV = b"\xef\xbb\xbftime_s,value\r\n0.0,4.0\r\n0.5,5.0\r\n1.0,6.0\r\n"


def test_sniffed_loader_finds_a_time_header_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(_BOM_TIME_CSV)
    ts = load_csv(path)
    assert ts.sample_rate == 2.0
    assert ts.samples.tolist() == [4.0, 5.0, 6.0]


def test_sniffed_loader_reads_values_not_times_after_a_byte_order_mark(tmp_path):
    # With a stated rate the time column used to be read as the values.
    path = tmp_path / "bom.csv"
    path.write_bytes(_BOM_TIME_CSV)
    ts = load_csv(path, sample_rate=2.0)
    assert ts.samples.tolist() == [4.0, 5.0, 6.0]


def test_sniffed_loader_finds_a_quoted_time_header(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('"time_s","value"\n0.0,4.0\n0.5,5.0\n1.0,6.0\n')
    ts = load_csv(path)
    assert ts.sample_rate == 2.0
    assert ts.samples.tolist() == [4.0, 5.0, 6.0]


# -------------------------------------------------------------------- runs


def test_run_writes_report_and_summary(tmp_path):
    cfg = validate_config(_good_raw(tmp_path))
    report = run(cfg)
    out = tmp_path / "out"
    assert (out / "input.csv").exists()
    assert (out / "report.json").exists()
    blob = json.loads((out / "report.json").read_text())
    assert blob["exit_code"] == 0
    names = {a["path"] for a in blob["artifacts"]}
    assert any(n.endswith("hq.csv") or "mfdfa" in n for n in names)
    h2 = report.summary["mfdfa"]["h2"]
    assert 0.3 < h2 < 0.75


def test_a_repeated_stage_keeps_each_summary_entry(tmp_path):
    # The first fit keeps its bare name; the repeat is keyed by its
    # artifact prefix, so neither entry replaces the other.
    bands = [(0.01, 0.1), (0.1, 0.4)]
    pipeline = [{"stage": "fit", "f_lo": lo, "f_hi": hi} for lo, hi in bands]
    report = run(validate_config(_good_raw(tmp_path, pipeline)))
    assert list(report.summary) == ["input", "fit", "01_fit"]
    blob = json.loads((tmp_path / "out" / "report.json").read_text())
    assert blob["summary"] == json.loads(json.dumps(report.summary))
    for key, name in (("fit", "00_fit_fit.json"), ("01_fit", "01_fit_fit.json")):
        info = json.loads((tmp_path / "out" / name).read_text())
        assert blob["summary"][key] == info
    assert blob["summary"]["fit"]["band_hz"] != blob["summary"]["01_fit"]["band_hz"]


def test_main_exit_codes(tmp_path):
    # 0: healthy run
    cfg_path = tmp_path / "ok.json"
    cfg_path.write_text(json.dumps(_good_raw(tmp_path)))
    assert main(["run", "--config", str(cfg_path)]) == 0

    # 2: config problem, caught before output exists
    bad = _good_raw(tmp_path / "never")
    bad["pipeline"][0]["stage"] = "bogus"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["run", "--config", str(bad_path)]) == 2
    assert not (tmp_path / "never").exists()

    # 2: unparseable JSON
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    assert main(["run", "--config", str(mangled)]) == 2

    # 2: a config that is not UTF-8
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"output_dir": "\xff"}')
    assert main(["run", "--config", str(latin1)]) == 2

    # 2: nesting deeper than the JSON decoder recurses, before output exists
    deep = tmp_path / "deep.json"
    deep.write_text(
        json.dumps({"output_dir": str(tmp_path / "deep_out")})[:-1]
        + ', "pipeline": ' + "[" * 100_000 + "]" * 100_000 + "}"
    )
    assert main(["run", "--config", str(deep)]) == 2
    assert not (tmp_path / "deep_out").exists()

    # 4: filesystem error
    assert main(["run", "--config", str(tmp_path)]) == 4


def test_undecodable_csv_is_a_parse_error(tmp_path):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"time_s,value\xff\n0.0,1.0\n0.5,2.0\n")
    for load in (lambda: load_csv(bad, sample_rate=1.0), lambda: load_csv(bad)):
        with pytest.raises(ParseError, match="latin1.csv"):
            load()
    out = tmp_path / "sync"
    argv = ["phase", "--input-a", str(bad), "--input-b", _sine_csv(tmp_path),
            "--period", "1", "--outdir", str(out)]
    assert main(argv) == 3


def test_csv_reader_refusal_is_a_parse_error(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text('"' + "1" * 140_000 + '"\n1.0\n2.0\n')
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        load_csv(big, sample_rate=1.0)
    assert err.value.row == 1
    out = tmp_path / "sync"
    argv = ["phase", "--input-a", str(big), "--input-b", str(big),
            "--sample-rate", "1", "--period", "2", "--outdir", str(out)]
    assert main(argv) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_denoise_one_shot_keeps_a_constant_shorter_than_the_filter(tmp_path):
    const = tmp_path / "const3.csv"
    write_csv(TimeSeries(np.full(3, 2.0), 1.0), const)
    out = tmp_path / "out"
    argv = ["denoise", "--input", str(const), "--outdir", str(out)]
    assert main(argv) == 0
    denoised = load_csv(out / "00_denoise_denoised.csv").samples
    assert denoised.size == 3
    assert np.max(np.abs(denoised - 2.0)) <= 1e-12


def _sine_csv(tmp_path):
    path = tmp_path / "sine.csv"
    write_csv(TimeSeries(np.sin(np.arange(512) / 3.0), 50.0), path)
    return str(path)


@pytest.mark.parametrize(
    "args",
    [
        ["heisenberg", "--f-lo", "1", "--f-hi", "10", "--regime", "foo"],
        ["lyapunov", "--delay", "x"],
    ],
)
def test_one_shot_rejects_bad_values_before_output(tmp_path, args):
    out = tmp_path / "out"
    argv = args + ["--input", _sine_csv(tmp_path), "--outdir", str(out)]
    assert main(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["cwt", "--omega0", "8"],
    ["mfdfa", "--q-min", "0"],
    ["denoise", "--vanishing-moments", "4"],
    ["denoise", "--levels", "3"],
    ["denoise", "--kill-count", "1"],
])
def test_one_shot_has_no_flag_for_a_fixed_setting(tmp_path, args):
    # The Morlet omega0, the MFDFA q grid, the wavelet and the denoise
    # depth and kill count are constants, not params.
    out = tmp_path / "out"
    argv = args + ["--input", _sine_csv(tmp_path), "--outdir", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not out.exists()


def test_synth_rejects_malformed_component(tmp_path):
    out = tmp_path / "sub" / "wave.csv"
    argv = ["synth", "--kind", "sines", "--component", "0.5,x,0",
            "--sample-rate", "100", "--n", "64", "--out", str(out)]
    assert main(argv) == 2
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--kind", "cascade", "--a", "0.7", "--levels", "70"],
        ["--kind", "fbm", "--hurst", "0.5", "--n", str(2**70), "--sample-rate", "1"],
        ["--kind", "bounce", "--amplitude", "7", "--drive-freq", "25",
         "--restitution", "0.9", "--n-impacts", "50", "--sample-rate", "1e300"],
    ],
    ids=["cascade", "fbm", "bounce"],
)
def test_synth_refuses_more_than_max_samples(tmp_path, capsys, args):
    # Each size is refused before anything is allocated.
    out = tmp_path / "big.csv"
    assert main(["synth", *args, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "MAX_SAMPLES" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--kind", "sines", "--component", "0.5,1,0", "--sample-rate", "0", "--n", "64"],
        ["--kind", "bounce", "--amplitude", "7", "--drive-freq", "25",
         "--restitution", "0.9", "--n-impacts", "50", "--sample-rate", "0"],
        ["--kind", "bounce", "--amplitude", "7", "--drive-freq", "25",
         "--restitution", "0.9", "--n-impacts", "50", "--sample-rate", "-5"],
    ],
    ids=["sines-0", "bounce-0", "bounce-negative"],
)
def test_synth_refuses_a_rate_that_is_not_positive(tmp_path, capsys, args):
    out = tmp_path / "wave.csv"
    assert main(["synth", *args, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "sample_rate must be positive" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_oversized_synth_input_fails_the_input_stage(tmp_path):
    raw = _good_raw(tmp_path, pipeline=[])
    raw["input"]["synth"]["n"] = 2**70
    cfg_path = tmp_path / "oversized.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "MAX_SAMPLES" in (tmp_path / "out" / "input.failed").read_text()


def test_a_rate_whose_period_overflows_fails_the_input_stage(tmp_path):
    # 1 / 1e-310 overflows to inf.  The series was accepted, input.csv got
    # infinite times, and the stages failed on internal checks.
    raw = _good_raw(tmp_path, pipeline=[{"stage": "spectrum"}])
    raw["input"]["synth"]["sample_rate"] = 1e-310
    cfg_path = tmp_path / "tiny_rate.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    out = tmp_path / "out"
    assert "sample_rate" in (out / "input.failed").read_text()
    assert "1e-310" in (out / "input.failed").read_text()
    assert not (out / "input.csv").exists()


def test_unexpected_stage_exception_leaves_marker(tmp_path, monkeypatch):
    # run's catch-all turns any exception of a stage, not only a
    # WavescopeError, into a marker and exit 3.
    def broken(ts, params, emit, shared):
        raise RuntimeError("unexpected")

    monkeypatch.setitem(_STAGE_FUNCS, "mfdfa", broken)
    raw = _good_raw(tmp_path, pipeline=[{"stage": "mfdfa"}])
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert (tmp_path / "out" / "mfdfa.failed").read_text() == "RuntimeError: unexpected\n"


def test_mfdfa_stage_refuses_a_zero_fluctuation(tmp_path):
    # A silent series has no positive segment variance, so the grid's
    # first order, q = -10, has no power mean: no NaN exponents in
    # mfdfa.json, but a failed stage, after the warning that every
    # segment was dropped.
    raw = _good_raw(tmp_path, pipeline=[{"stage": "mfdfa"}])
    raw["input"]["synth"] = {
        "kind": "sines", "components": [[0.5, 0.0, 0.0]], "sample_rate": 64.0, "n": 4096
    }
    cfg_path = tmp_path / "silent.json"
    cfg_path.write_text(json.dumps(raw))
    with pytest.warns(ZeroVarianceWarning, match="dropped 1024 zero-variance segments"):
        assert main(["run", "--config", str(cfg_path)]) == 3
    assert (tmp_path / "out" / "mfdfa.failed").read_text().startswith("ZeroVarianceError: scale 8")
    assert not (tmp_path / "out" / "mfdfa.json").exists()


def test_negative_csv_column_fails_the_input_stage(tmp_path):
    raw = _good_raw(tmp_path, pipeline=[])
    raw["input"] = {"kind": "csv", "path": _sine_csv(tmp_path), "column": -1}
    cfg_path = tmp_path / "negative_column.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert "negative column" in (tmp_path / "out" / "input.failed").read_text()


def test_failed_stage_leaves_marker(tmp_path):
    raw = _good_raw(tmp_path)
    # band far above Nyquist: the fit stage cannot keep any bins
    raw["pipeline"] = [{"stage": "fit", "f_lo": 100.0, "f_hi": 200.0}]
    cfg_path = tmp_path / "doomed.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    marker = tmp_path / "out" / "fit.failed"
    assert marker.exists()
    assert "band" in marker.read_text()


def test_fit_stage_reports_a_hurst_outside_the_unit_interval_as_null(tmp_path):
    # White noise fits a slope near 0, whose alpha maps to H < 0: the stage
    # still succeeds, with no exponent and a note saying why.
    raw = _good_raw(tmp_path, pipeline=[{"stage": "fit", "f_lo": 0.5, "f_hi": 40.0}])
    raw["input"]["synth"] = {"kind": "powerlaw", "beta": 0.0, "n": 4096, "sample_rate": 100.0}
    cfg_path = tmp_path / "white.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == 0
    info = json.loads((tmp_path / "out" / "00_fit_fit.json").read_text())
    assert info["hurst"] is None
    assert info["hurst_note"] == "alpha = 0.0603185 maps to H = -0.469841, outside (0, 1)"
    assert "fractal_dimension_note" not in info


def test_periodic_bounce_render_refuses_through_run(tmp_path):
    # A period-1 orbit of the paper's ball: the render repeats itself to
    # rounding, so every partner outside the Theiler window sits below the
    # separation floor and the stage names that cause.
    raw = {
        "input": {
            "kind": "synth",
            "synth": {"kind": "bounce", "amplitude": 4.0, "restitution": 0.55,
                      "n_impacts": 400, "drive_freq": 10.0, "sample_rate": 640.0},
        },
        "seed": 1,
        "pipeline": [{"stage": "lyapunov"}],
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "periodic_bounce.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    out = tmp_path / "out"
    assert "repeats itself to rounding" in (out / "lyapunov.failed").read_text()
    # No lyapunov.json (nor divergence.csv) under any stage prefix.
    assert sorted(f.name for f in out.iterdir()) == ["input.csv", "lyapunov.failed"]


def _warns_if(bounce):
    """Expect the EmbeddingQualityWarning of the bounce series below, whose
    embedding at dim 3 leaves 12 % false nearest neighbours."""
    return pytest.warns(EmbeddingQualityWarning) if bounce else nullcontext()


@pytest.mark.parametrize(
    "synth, pipeline",
    [
        (
            {"kind": "fbm", "hurst": 0.6, "n": 4096, "sample_rate": 1.0, "seed": 3},
            [
                {"stage": "spectrum", "window": "hann"},
                {"stage": "fit", "f_lo": 0.01, "f_hi": 0.2},
                {"stage": "heisenberg", "f_lo": 0.01, "f_hi": 0.2},
                {"stage": "mfdfa", "difference": True},
                {"stage": "cwt"},
                {"stage": "globalpower"},
                {"stage": "denoise"},
            ],
        ),
        (
            {"kind": "bounce", "amplitude": 9.0, "drive_freq": 25.0,
             "restitution": 0.7, "n_impacts": 80, "seed": 2},
            [{"stage": "lyapunov", "dim": 3, "delay": 8}],
        ),
    ],
)
def test_formats_off_writes_only_the_report(tmp_path, synth, pipeline):
    reports = {}
    for on in (False, True):
        raw = {
            "input": {"kind": "synth", "synth": synth},
            "pipeline": pipeline,
            "output_dir": str(tmp_path / f"formats_{on}"),
            "formats": {"csv": on, "json": on, "svg": on},
        }
        with _warns_if(synth["kind"] == "bounce"):
            reports[on] = run(validate_config(raw))
    assert [p.name for p in (tmp_path / "formats_False").iterdir()] == ["report.json"]
    assert reports[False].artifacts == []
    assert reports[True].artifacts
    assert reports[False].summary == reports[True].summary


def _assert_plain(obj, where):
    """``obj`` is built of str, int, float, bool and None leaves in lists,
    tuples and str-keyed dicts, exactly the types, so json writes it as
    it is."""
    if type(obj) is dict:
        for key, value in obj.items():
            assert type(key) is str, f"{where}: key {key!r}"
            _assert_plain(value, f"{where}.{key}")
    elif type(obj) in (list, tuple):
        for i, value in enumerate(obj):
            _assert_plain(value, f"{where}[{i}]")
    else:
        assert type(obj) in (str, int, float, bool, type(None)), (
            f"{where}: {type(obj).__name__}"
        )


def test_every_stage_writes_and_reports_plain_python(tmp_path, monkeypatch):
    # write_json and the one-shot print hand their objects to json.dumps
    # unconverted, so a numpy scalar in a summary would fail the run.
    objects = {}
    real = climod.write_json

    def recording(path, obj):
        objects[path.name] = obj
        real(path, obj)

    monkeypatch.setattr(climod, "write_json", recording)
    pipeline = [
        {"stage": "spectrum", "window": "hann"},
        {"stage": "fit", "f_lo": 0.01, "f_hi": 0.2},
        {"stage": "heisenberg", "f_lo": 0.01, "f_hi": 0.2},
        {"stage": "mfdfa", "difference": True},
        {"stage": "cwt"},
        {"stage": "globalpower"},
        {"stage": "lyapunov"},
        {"stage": "denoise"},
    ]
    assert {s["stage"] for s in pipeline} == set(_STAGE_PARAMS)
    raw = {
        "input": {
            "kind": "synth",
            "synth": {"kind": "fbm", "hurst": 0.6, "n": 4096, "sample_rate": 1.0, "seed": 3},
        },
        "pipeline": pipeline,
        "output_dir": str(tmp_path / "out"),
    }
    report = run(validate_config(raw))
    assert sorted(objects) == [
        "01_fit_fit.json", "02_heisenberg_heisenberg.json", "03_mfdfa_mfdfa.json",
        "05_globalpower_globalpower.json", "06_lyapunov_lyapunov.json", "report.json",
    ]
    assert list(report.summary) == ["input"] + [s["stage"] for s in pipeline]
    _assert_plain(report.summary, "summary")
    for name, obj in objects.items():
        _assert_plain(obj, name)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize(
    "flags, stage",
    [
        ([], {"stage": "denoise"}),
        (["--window", "hann", "--svg"], {"stage": "spectrum", "window": "hann"}),
        (
            ["--f-lo", "0.01", "--f-hi", "0.2"],
            {"stage": "fit", "f_lo": 0.01, "f_hi": 0.2},
        ),
        (
            ["--f-lo", "0.01", "--f-hi", "0.2", "--regime", "-2", "--svg"],
            {"stage": "heisenberg", "f_lo": 0.01, "f_hi": 0.2, "regime": -2.0},
        ),
        (
            ["--difference", "--fit-hi", "1024"],
            {"stage": "mfdfa", "difference": True, "fit_hi": 1024.0},
        ),
        (["--norm", "eq4"], {"stage": "cwt", "norm": "eq4"}),
        (["--max-peaks", "2", "--svg"], {"stage": "globalpower", "max_peaks": 2}),
        (["--dim", "3", "--delay", "8"], {"stage": "lyapunov", "dim": 3, "delay": 8}),
    ],
)
def test_one_shot_matches_one_stage_run(tmp_path, flags, stage):
    if stage["stage"] == "lyapunov":
        ts = gen_bouncing_ball(BounceParams(9.0, 25.0, 0.7, 80, seed=2))
    else:
        ts = gen_fbm(0.6, 4096, seed=3, sample_rate=1.0)
    csv = tmp_path / "in.csv"
    write_csv(ts, csv)
    shot, piped = tmp_path / "shot", tmp_path / "piped"
    argv = [stage["stage"], "--input", str(csv), "--outdir", str(shot)] + flags
    raw = {
        "input": {"kind": "csv", "path": str(csv)},
        "pipeline": [stage],
        "output_dir": str(piped),
        "formats": {"svg": "--svg" in flags},
    }
    with _warns_if(stage["stage"] == "lyapunov"):
        assert main(argv) == 0
    with _warns_if(stage["stage"] == "lyapunov"):
        run(validate_config(raw))
    assert _files(shot) == _files(piped)


# ----------------------------------------------------------- shared result


def _svg_run(tmp_path, pipeline, name="out"):
    raw = _good_raw(tmp_path, pipeline)
    raw["output_dir"] = str(tmp_path / name)
    raw["formats"] = {"svg": True}
    return run(validate_config(raw))


def _count_shared(monkeypatch):
    """Weak references to the scalograms and spectra that cwt_morlet and
    power_spectrum return.  Each call first checks that no earlier one is
    alive: the run's one slot drops its result before computing the next."""
    made = []

    def counting(real):
        def call(*args, **kwargs):
            assert [ref for ref in made if ref() is not None] == []
            out = real(*args, **kwargs)
            made.append(weakref.ref(out))
            return out

        return call

    monkeypatch.setattr(cwtmod, "cwt_morlet", counting(cwtmod.cwt_morlet))
    monkeypatch.setattr(spectral, "power_spectrum", counting(spectral.power_spectrum))
    return made


def _stage(name):
    band = {"f_lo": 0.01, "f_hi": 0.2} if name in ("fit", "heisenberg") else {}
    return {"stage": name, **band}


@pytest.mark.parametrize(
    "pipeline, calls",
    [
        ([{"stage": "cwt"}, {"stage": "globalpower"}], 1),
        ([{"stage": "globalpower"}, {"stage": "cwt"}], 1),
        ([{"stage": "cwt", "norm": "eq4"}, {"stage": "globalpower"}], 2),
        ([{"stage": "globalpower"}, {"stage": "cwt", "norm": "eq4"}], 2),
        ([{"stage": "cwt"}, {"stage": "denoise"}, {"stage": "globalpower"}], 2),
        # fit and heisenberg read the unwindowed spectrum; so does a
        # spectrum stage with its default window, but not with hann.
        ([_stage("fit"), _stage("heisenberg")], 1),
        ([_stage("fit"), _stage("denoise"), _stage("heisenberg")], 2),
        ([_stage("spectrum"), _stage("fit"), _stage("heisenberg")], 1),
        ([{"stage": "spectrum", "window": "hann"}, _stage("fit"), _stage("heisenberg")], 2),
        # One slot: a scalogram between them replaces the spectrum.
        ([_stage(s) for s in ("fit", "cwt", "globalpower", "heisenberg")], 3),
    ],
)
def test_run_shares_one_scalogram_per_series_and_params(
    tmp_path, monkeypatch, pipeline, calls
):
    made = _count_shared(monkeypatch)
    _svg_run(tmp_path, pipeline)
    assert len(made) == calls


@pytest.mark.parametrize(
    "order",
    [
        ("cwt", "globalpower"),
        ("globalpower", "cwt"),
        ("spectrum", "fit", "heisenberg"),
        ("heisenberg", "cwt", "fit", "globalpower"),
    ],
)
def test_shared_scalogram_leaves_each_stages_files_unchanged(tmp_path, order):
    _svg_run(tmp_path, [_stage(name) for name in order], "both")
    both = _files(tmp_path / "both")
    for i, name in enumerate(order):
        _svg_run(tmp_path, [_stage(name)], name)
        alone = _files(tmp_path / name)
        mine = {f[3:]: data for f, data in both.items() if f.startswith(f"{i:02d}_")}
        own = {f[3:]: data for f, data in alone.items() if f.startswith("00_")}
        assert own and mine == own, name



@pytest.mark.parametrize("before", [["cwt"], ["spectrum"], ["cwt", "globalpower"]])
def test_denoise_works_beside_no_held_result(tmp_path, monkeypatch, before):
    # Denoise returns a new series, so no later call can match the held
    # spectrum or scalogram; it is dropped before the denoise work.  On
    # 2^14 fBm with formats off a held scalogram is about 0.9 MB and a
    # held spectrum 0.13 MB, the series itself 0.13 MB.  Each run is made
    # once untraced first, so that caches filled on first use are not
    # counted.
    live = []
    real = dwt.denoise

    def measuring(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(dwt, "denoise", measuring)

    def live_at_denoise(names, out):
        raw = _good_raw(tmp_path, [{"stage": s} for s in names])
        raw["input"]["synth"]["n"] = 2**14
        raw["output_dir"] = str(tmp_path / out)
        raw["formats"] = {"csv": False, "json": False, "svg": False}
        cfg = validate_config(raw)
        run(cfg)
        tracemalloc.start()
        try:
            run(cfg)
        finally:
            tracemalloc.stop()
        return live[-1]

    alone = live_at_denoise(["denoise"], "alone")
    after = live_at_denoise([*before, "denoise"], "after")
    assert alone <= 2 * 8 * 2**14, alone
    assert after <= alone + 16 * 1024, (after, alone)

def _csv_run(tmp_path, n, pipeline):
    """Run ``pipeline`` with SVG on over a CSV of n fBm samples at 1 Hz;
    the input stage makes no FFT.  Returns the config."""
    path = tmp_path / f"fbm{n}.csv"
    write_csv(gen_fbm(0.5, n, seed=1, sample_rate=1.0), path)
    raw = {
        "input": {"kind": "csv", "path": str(path)},
        "pipeline": pipeline,
        "output_dir": str(tmp_path / f"out{n}"),
        "formats": {"svg": True},
    }
    return validate_config(raw)


@pytest.mark.parametrize(
    "pipeline, passes",
    [
        ([{"stage": "cwt"}, {"stage": "globalpower"}], 1),
        ([{"stage": "globalpower"}], 1),
        ([{"stage": "cwt", "norm": "eq4"}, {"stage": "globalpower"}], 2),
        ([{"stage": "cwt"}, {"stage": "denoise"}, {"stage": "globalpower"}], 2),
        ([{"stage": "globalpower"}, {"stage": "cwt"}], 1),
    ],
)
def test_run_inverts_each_row_once_per_scalogram(tmp_path, monkeypatch, pipeline, passes):
    # One pass over the rows of the shared scalogram, in either stage
    # order, gives the cwt table and heat map and the globalpower power.
    cfg = _csv_run(tmp_path, 2048, pipeline)
    calls = []
    real = np.fft.ifft

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting)
    run(cfg)
    assert len(calls) == passes * cwtmod.default_scales(2048, 1.0).size


@pytest.mark.parametrize(
    "pipeline, maps",
    [
        ([{"stage": "cwt"}, {"stage": "denoise"}, {"stage": "globalpower"}], 2),
        ([{"stage": "globalpower"}, {"stage": "denoise"}, {"stage": "cwt"}], 2),
        ([{"stage": "cwt"}, {"stage": "denoise"}, {"stage": "cwt"}], 2),
        ([{"stage": "cwt"}, {"stage": "globalpower"}], 1),
        ([{"stage": "globalpower"}, {"stage": "cwt"}], 1),
        ([{"stage": "globalpower"}], 1),
    ],
)
def test_run_bins_one_heat_map_per_run_scalogram(tmp_path, monkeypatch, pipeline, maps):
    # A heat map costs one log10 per row.  Every scalogram a run makes
    # bins its map in its one pass, whether or not a cwt stage writes it;
    # only denoise returns a new series, and so a new scalogram.
    cfg = _csv_run(tmp_path, 2048, pipeline)
    calls = []
    real = np.log10

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "log10", counting)
    run(cfg)
    assert len(calls) == maps * cwtmod.default_scales(2048, 1.0).size


def test_scalogram_run_memory_grows_with_n_not_scales_times_n(tmp_path):
    # cwt and globalpower with every format on hold no S x n array: from
    # 2^12 to 2^14 samples the peak grows by about 85 bytes per sample
    # (134 with the whole spectrum held and each band's window kept
    # through its inverse FFT).  One complex scalogram would add 16 S
    # bytes per sample (S = 73, 89), and even an S x n float grid 8 S;
    # the bound is 3 x 16 per padded sample, 96 per sample.
    peaks = {}
    for n in (2**12, 2**14):
        cfg = _csv_run(tmp_path, n, [{"stage": "cwt"}, {"stage": "globalpower"}])
        tracemalloc.start()
        try:
            run(cfg)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    growth = peaks[2**14] - peaks[2**12]
    scalogram_growth = 16 * (89 * 2**14 - 73 * 2**12)
    assert growth <= 3 * 16 * 2 * (2**14 - 2**12) < scalogram_growth / 3


def _writer_calls(tmp_path, n):
    """Each artifact writer on n-sample inputs built here, untraced, with
    the floats per sample that it may allocate besides one block."""
    rng = np.random.default_rng(n)
    x = np.arange(n) * 0.1
    y = np.cumsum(rng.standard_normal(n))
    ts = TimeSeries(y, 10.0)
    rows = 8 * int(np.log2(n))  # about a default Morlet ladder
    z = rng.standard_normal((rows, 192))  # rows binned to HEATMAP_COLS
    periods = np.geomspace(0.2, n / 40.0, rows)
    coi = np.minimum(x, x[::-1]) + 0.05
    hashed = tmp_path / "hashed.csv"
    write_csv(ts, hashed)
    return {
        "write_table": (lambda: write_table(tmp_path / "t.csv", ["x", "y"], [x, y]), 0),
        # the times are built a block at a time
        "write_csv": (lambda: write_csv(ts, tmp_path / "s.csv"), 0),
        # byte masks of the drawn points
        "line_plot": (
            lambda: svg.line_plot(tmp_path / "l.svg", [(x, y, "y"), (x, -y, "z", True)]),
            1,
        ),
        # the gather of x's column blocks, and the overlay's masks
        "heatmap": (
            lambda: svg.heatmap(tmp_path / "h.svg", x, periods, z, ylog=True, overlay=(x, coi)),
            1.5,
        ),
        "sha256": (lambda: climod._sha256(hashed), 0),
    }


@pytest.mark.parametrize("writer", ["write_table", "write_csv", "line_plot", "heatmap", "sha256"])
def test_artifact_writers_hold_their_inputs_and_one_block(tmp_path, writer):
    # Every artifact is formatted, written and hashed a block at a time.
    # The traced peak is the writer's own arrays plus one block (at most
    # 384 KiB: a table block of 2048 rows or 2048 polyline points as
    # Python floats and text, a row of heat-map cells, a 64 KiB read),
    # and from 2^12 to 2^14 samples it grows by at most half a float per
    # sample beyond those arrays.  Any document costs more than that: a
    # CSV row of two numbers or a polyline point is at least 8 bytes of
    # text, and each writer that built its document whole grew by 26
    # (hashing) to 150 (heat map) bytes per sample.
    block = 384 * 2**10
    peaks = {}
    for n in (2**12, 2**14):
        call, floats = _writer_calls(tmp_path, n)[writer]
        call()
        tracemalloc.start()
        try:
            call()
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(p <= 8 * floats * n + block for n, p in peaks.items()), peaks
    growth = (peaks[2**14] - peaks[2**12]) / (2**14 - 2**12)
    assert growth <= 8 * (floats + 0.5), growth


@pytest.mark.filterwarnings("ignore::wavescope.errors.EmbeddingQualityWarning")
def test_lyapunov_stage_memory_is_linear_in_samples_times_dim():
    # The stage with its defaults (delay "auto", dim 5) on bounce renders
    # of 100 and 400 impacts, 8,029 and 31,480 samples.  The traced peak
    # reads about 2.1 x 8 dim bytes per added sample on top of one block
    # of 1024 kd-tree queries of up to 65 candidates, about 32 bytes each
    # (distances, indices and their Theiler-window differences).
    import scipy.spatial  # noqa: F401  the stage imports it on first use

    params = climod._with_defaults({}, _STAGE_PARAMS["lyapunov"])
    dim = params["dim"]
    block = 1024 * 65 * 32
    peaks = {}
    for n_impacts in (100, 400):
        ts = gen_bouncing_ball(BounceParams(9.0, 25.0, 0.7, n_impacts, seed=2))
        tracemalloc.start()
        try:
            _STAGE_FUNCS["lyapunov"](ts, params, lambda *args: None, None)
            peaks[ts.samples.size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    (n1, p1), (n2, p2) = sorted(peaks.items())
    assert (n1, n2) == (8029, 31480)
    assert all(p <= 4 * 8 * n * dim + block for n, p in peaks.items()), peaks
    assert p2 - p1 <= 3 * 8 * dim * (n2 - n1), (p2 - p1) / (8 * dim * (n2 - n1))


def test_figures_imports_nothing_from_cli():
    # cli imports figures, never the reverse, not even inside a function.
    tree = ast.parse(open(figmod.__file__, encoding="utf-8").read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {f"{node.module}.{alias.name}" for alias in node.names}
            names.add(str(node.module))
    assert "signal_core" in names  # relative imports are seen
    assert sorted(n for n in names if "cli" in n.split(".")) == []


def test_cli_imports_no_csv_module():
    # load_csv alone reads CSV input; cli neither parses nor sniffs a file.
    tree = ast.parse(open(climod.__file__, encoding="utf-8").read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add(str(node.module))
    assert "argparse" in names
    assert "csv" not in names


def test_stage_choice_sets_are_the_librarys_own():
    # validate_config and the library's own refusal read one constant.
    owners = {
        ("denoise", "rule"): dwt.DENOISE_RULES,
        ("spectrum", "window"): spectral.WINDOWS,
        ("heisenberg", "regime"): tuple(spectral.REGIMES),
        ("cwt", "norm"): cwtmod.NORMS,
        ("globalpower", "background"): cwtmod.BACKGROUNDS,
        ("lyapunov", "delay"): ("auto",),
    }
    declared = {(s, p.name): p.choices for s, ps in _STAGE_PARAMS.items() for p in ps if p.choices}
    assert declared == owners


def test_stage_subcommand_flags_are_the_declared_params():
    assert set(_STAGE_FUNCS) == set(_STAGE_PARAMS)
    ap = _build_parser()
    subparsers = next(
        a for a in ap._actions if isinstance(a, argparse._SubParsersAction)
    )
    shared = {"-h", "--help", "--input", "--sample-rate", "--column"}
    shared |= {"--outdir", "--svg"}
    for name, params in _STAGE_PARAMS.items():
        actions = subparsers.choices[name]._actions
        flags = {flag for a in actions for flag in a.option_strings}
        declared = {"--" + p.name.replace("_", "-") for p in params}
        assert flags == declared | shared, name


_FIGURE_FILES = {
    "fig7": [
        "fig7_00_spectrum_spectrum.csv",
        "fig7_00_spectrum_spectrum.svg",
        "fig7_01_fit_fit.json",
        "fig7_01_fit_fit.svg",
    ],
    "fig8": ["fig8_00_cwt_scales.csv", "fig8_00_cwt_scalogram.svg"],
    "fig9": [
        "fig9_00_mfdfa_fq.csv",
        "fig9_00_mfdfa_hurst.csv",
        "fig9_00_mfdfa_fq.svg",
        "fig9_00_mfdfa_hurst.svg",
        "fig9_00_mfdfa_mfdfa.json",
        "fig9_closed_form.csv",
    ],
    "fig10": [
        "fig10_00_globalpower_globalpower.csv",
        "fig10_00_globalpower_globalpower.svg",
        "fig10_00_globalpower_globalpower.json",
    ],
    "fig11": [
        "fig11_locked.svg",
        "fig11_locked.csv",
        "fig11_detuned.svg",
        "fig11_detuned.csv",
        "fig11.json",
    ],
    "fig12": [
        "fig12_00_spectrum_spectrum.csv",
        "fig12_00_spectrum_spectrum.svg",
        "fig12_01_heisenberg_heisenberg.json",
        "fig12_01_heisenberg_heisenberg.svg",
        "fig12_02_heisenberg_heisenberg.json",
        "fig12_02_heisenberg_heisenberg.svg",
    ],
}


#: The numpy and scipy versions the pinned artifact lists were taken on;
#: others may round some floats differently.
_PINNED_VERSIONS = ("2.4.6", "1.17.1")


#: sha256 of each file of all figure presets.
_FIGURE_DIGESTS = {
    "fig10_00_globalpower_globalpower.csv": "8e59aa5f1092d296580bfbf2db6a541b543d7950dc1015c8f6f923de82bf488d",
    "fig10_00_globalpower_globalpower.json": "49f10d6156e2e0fcd3ac981209ab303d1b2408eb7d6762716c4581d997899a59",
    "fig10_00_globalpower_globalpower.svg": "f3d9d08fe964989977b7812a801efa45230f74d6b8947d80319366ffe67b94c9",
    "fig11.json": "924a95a06959f85c596670764cf92d9340161764ddf3a33ad46ecd42ba032a0a",
    "fig11_detuned.csv": "afb37c3e271dce1047d7c7796a6b1704fe6eced6f6db34a9fd087466cfd78b3c",
    "fig11_detuned.svg": "fc8a8d3f9b3a7a12233830d4ce83f06de72a20d5de9875eedab6e0e292a656c2",
    "fig11_locked.csv": "4137b8f2fba06de2b3cf310225f9a97787296bd3d9c722dcf5b21ee38e446368",
    "fig11_locked.svg": "87aee65ae0ae75323eb1e6569136437bc9a80b084e2e1658e1725c4e35bd0d63",
    "fig12_00_spectrum_spectrum.csv": "78ef382240e0a79a42a891db356e4d41869801c7689281802e5e22127e07075b",
    "fig12_00_spectrum_spectrum.svg": "7269ddf4b7784cdbf87b0c010adab3628ca37b6503b88b42fa04f4e0bf6be6d0",
    "fig12_01_heisenberg_heisenberg.json": "a1355bc828a64fc726941c3d2667db1f8522c5671b31c9e86211b1dc6012af08",
    "fig12_01_heisenberg_heisenberg.svg": "245c4fceb91c9f0fac4b850e85c2e140d4318f64655213e52db178d1ed6140b9",
    "fig12_02_heisenberg_heisenberg.json": "a9b4e758da406e3d57d2191b130c3ae0bf400b50f775101424cf3b958d8ac8c4",
    "fig12_02_heisenberg_heisenberg.svg": "b674a64b3100e64df890d33291cc948cff34634dfeab9d0fc359ca2e7260d831",
    "fig7_00_spectrum_spectrum.csv": "52205cefaf49059566c8ee09a0526f0c8e2d68bdafef99bf0e49a55d96ac415f",
    "fig7_00_spectrum_spectrum.svg": "bc17d62d7004a5c9ab8d2f2ddd9e38b979fd09100ed84517608e54a4b597c317",
    "fig7_01_fit_fit.json": "8fc0fcea5d3f0872ae4b8f4f957e1a537ad63a1f381779cd0b57c615acd3d457",
    "fig7_01_fit_fit.svg": "8cf70ca590829ba0adbfbb3d43bf5b59e2c09326b0ab8bbc2a02984939d9e00a",
    "fig8_00_cwt_scales.csv": "1ce9bc43506f89b18ba30c1fa2a01d345d3ce43b0a491e23d936da54fecf26fd",
    "fig8_00_cwt_scalogram.svg": "f8f80eb183cd6756988ec85d3dd4037ef610473dd58793bcc16043d4d3039313",
    "fig9_00_mfdfa_fq.csv": "64470b90a9cfb32a484f6de25ba4407a017b0a72229a8197fd7a4f9c01789c1c",
    "fig9_00_mfdfa_fq.svg": "b0d13c2d510c552e8df383e593ae357482231f2311177ae93cab94506ff17bfa",
    "fig9_00_mfdfa_hurst.csv": "4a6911ff4ea75d5d918f1fc545e7352d4f5bcf2e32f32161f8782d897c6ff46f",
    "fig9_00_mfdfa_hurst.svg": "47cd9c11db2ccf8eacd8dbfebf3ba5bd7cfb41dcb9fe7f075f469a7bbd18b939",
    "fig9_00_mfdfa_mfdfa.json": "b706c8fef0df17b670b93188094b8b08aec439a0d3cb9ac22f04a269fbf312cc",
    "fig9_closed_form.csv": "4b27ac1c21dd6ca6b56df9a58cebdf4232f47286fec19e993eb790295b7c99ee",
}

#: sha256 of each file of the README config's run.
_README_RUN_DIGESTS = {
    "00_spectrum_spectrum.csv": "679a0b6f3e8463330163e278e608aba5249cbbdb5692e7ee7b72b7ffd6222b5a",
    "00_spectrum_spectrum.svg": "3053e95a56ca5e2487697360f067fad674139fc3b20a6ccf6d6ae737e5f5af23",
    "01_fit_fit.json": "42f20dd40585d4513f0f718ffc237439df3960ef1272bd27f1591b28e9b0b2b7",
    "01_fit_fit.svg": "8b2bbe2a4d0f15ece332666231aee0d2adab0c1586295ba5002c6b83cba81c61",
    "02_mfdfa_fq.csv": "cf712388dbf707ebc775335cb98af26163e115965bae0e88a83c9901e1711c11",
    "02_mfdfa_fq.svg": "38a8b6c0d79302fc39fcfe45017df00b46511d5a796abca4f967cf4780bbcdee",
    "02_mfdfa_hurst.csv": "91f0643e9497ebf2bbde6909d8d09e9c456ba30a50b08cce8f028dcf4d9b2714",
    "02_mfdfa_hurst.svg": "cb4df10d9693ca9c23e939268e5109928213deb9b6ba9b198b5479b2d6b0d8ec",
    "02_mfdfa_mfdfa.json": "f707b6afbd3f50bb5cad749ef93cf5b7cb770a217b090e3b0c4c85ca72268a59",
    "input.csv": "65dfb987cab637be08c11c59b4e67fe38c682ec77fbde5436bcc41ced9324170",
    "report.json": "81c3eab96d2f5042d047fd866dd04c7f1c4700827ce7f40a11e0a3c65052a9e4",
}


def _assert_pinned_files(directory, pinned):
    """Compare the sha256 of every file in ``directory`` with its pinned
    one, on the pinned versions; a miss names each file that moved, is
    missing or is new."""
    versions = (np.__version__, scipy.__version__)
    if versions != _PINNED_VERSIONS:
        pytest.skip(
            "artifact list pinned on numpy/scipy %s/%s, running %s/%s"
            % (*_PINNED_VERSIONS, *versions)
        )
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}
    moved = [name for name in sorted(digests.keys() | pinned.keys())
             if digests.get(name) != pinned.get(name)]
    assert moved == [], "moved: " + ", ".join(moved)


def test_figure_repro_writes_every_figure_deterministically(tmp_path):
    assert set(_FIGURE_FILES) == set(FIGURE_NAMES)
    for name in FIGURE_NAMES:
        first = figure_repro(name, tmp_path / "a")
        assert [p.name for p in first] == _FIGURE_FILES[name]
        assert [p.parent for p in first] == [tmp_path / "a"] * len(first)
        figure_repro(name, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    _assert_pinned_files(tmp_path / "a", _FIGURE_DIGESTS)


def test_readme_config_artifacts_are_pinned(tmp_path):
    # The multi-stage config of README.md.
    raw = {
        "input": {
            "kind": "synth",
            "synth": {
                "kind": "fbm", "hurst": 0.6, "n": 65536, "sample_rate": 10.0, "seed": 1
            },
        },
        "pipeline": [
            {"stage": "spectrum"},
            {"stage": "fit", "f_lo": 0.02, "f_hi": 1.0},
            {"stage": "mfdfa", "difference": True},
        ],
        "output_dir": str(tmp_path / "fbm_run"),
        "formats": {"csv": True, "json": True, "svg": True},
    }
    run(validate_config(raw))
    _assert_pinned_files(tmp_path / "fbm_run", _README_RUN_DIGESTS)


def test_figure_repro_rejects_unknown_name(tmp_path):
    with pytest.raises(ConfigError):
        figure_repro("fig99", tmp_path)


def test_figure_presets_are_run_configs(tmp_path, monkeypatch):
    # Each preset's stages pass the config check, so none can hold a param
    # that its stage does not declare, and they run through the stage loop
    # of run, which looks every stage up in _STAGE_FUNCS as it starts.
    ran = []
    for stage, fn in list(_STAGE_FUNCS.items()):
        def traced(*args, stage=stage, fn=fn):
            ran.append(stage)
            return fn(*args)
        monkeypatch.setitem(_STAGE_FUNCS, stage, traced)
    for name, (_, stages, _) in figmod.FIGURES.items():
        cfg = validate_config(
            {"input": {"kind": "csv", "path": "x.csv"}, "pipeline": stages, "output_dir": "x"}
        )
        assert cfg.pipeline == stages, name
        ran.clear()
        figure_repro(name, tmp_path / name)
        assert ran == [s["stage"] for s in stages], name


@pytest.mark.parametrize("name", ["fig9a", "fig9b", "fig10a", "fig10b"])
def test_split_figure_names_are_gone(tmp_path, name):
    argv = ["figure-repro", "--name", name, "--outdir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    """Every figure preset, written into one directory."""
    out = tmp_path_factory.mktemp("figures")
    for name in FIGURE_NAMES:
        figure_repro(name, out)
    return out


def _csv_columns(path):
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    return {head: np.array([float(r[i]) for r in rows[1:]]) for i, head in enumerate(rows[0])}


def test_fig9_hurst_exponents_follow_the_closed_form(figures):
    measured = _csv_columns(figures / "fig9_00_mfdfa_hurst.csv")
    closed = _csv_columns(figures / "fig9_closed_form.csv")
    assert measured["q"].tobytes() == closed["q"].tobytes()
    h = dict(zip(measured["q"], measured["h"]))
    h_closed = dict(zip(closed["q"], closed["h_closed_form"]))
    for q in (-5.0, -2.0, 2.0, 5.0):
        assert abs(h[q] - h_closed[q]) <= 0.12, q
    assert h[-10.0] - h[10.0] >= 0.4


def test_fig10_dominant_periods_are_the_tones(figures):
    info = json.loads((figures / "fig10_00_globalpower_globalpower.json").read_text())
    tones = np.array([0.018, 0.049, 0.226, 0.578])
    # log2 distance of each peak from each tone; the ladder has 8 bins per octave
    octaves = np.abs(np.log2(np.array(info["dominant_periods_s"])[:, None] / tones))
    assert octaves.shape == (4, 4)
    assert sorted(octaves.argmin(axis=1)) == [0, 1, 2, 3]  # one peak per tone
    assert octaves.min(axis=1).max() <= 1.0 / 8.0


def test_fig11_locked_pair_holds_its_offset_and_the_detuned_one_drifts(figures):
    info = json.loads((figures / "fig11.json").read_text())
    assert abs(info["locked_median_rad"] - np.pi / 4) <= 0.05
    assert info["locked_segments"] == [[0, 8192]]
    rate = 200.0
    longest = max((b - a for a, b in info["detuned_segments"]), default=0) / rate
    assert longest <= 1.1 * info["drift_bound_s"]


def test_fig12_both_spectral_regimes_match(figures):
    for name in ("fig12_01_heisenberg_heisenberg.json", "fig12_02_heisenberg_heisenberg.json"):
        assert json.loads((figures / name).read_text())["matches"] is True, name


def test_phase_subcommand_reports_locked_offset(tmp_path):
    for name, phase in (("a.csv", 0.0), ("b.csv", 0.785)):
        argv = ["synth", "--kind", "sines", "--component", f"0.578,1,{phase}",
                "--sample-rate", "200", "--n", "4096", "--out", str(tmp_path / name)]
        assert main(argv) == 0
    out = tmp_path / "sync"
    argv = ["phase", "--input-a", str(tmp_path / "a.csv"), "--input-b",
            str(tmp_path / "b.csv"), "--period", "0.578", "--outdir", str(out), "--svg"]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "phase.json", "phase.svg", "phase_difference.csv"
    ]
    info = json.loads((out / "phase.json").read_text())
    assert info["median_rad"] == pytest.approx(-0.785, abs=1e-3)
    assert len(info["segments"]) == 1


def test_phase_comparison_snaps_to_the_nearest_scale_on_the_log_axis():
    # Between the geometric and the arithmetic midpoint of two neighbouring
    # periods, the upper one is nearer on the log axis and the lower one in
    # linear distance; the comparison follows phase_at_scale's log rule.
    ts = TimeSeries(np.sin(np.arange(512) / 3.0), 50.0)
    sg = cwtmod.cwt_morlet(ts)
    lo, hi = float(sg.periods[20]), float(sg.periods[21])
    period = 0.5 * (np.sqrt(lo * hi) + 0.5 * (lo + hi))
    assert abs(period - lo) < abs(period - hi)
    analysed, cmp_, _ = figmod.phase_comparison(sg, sg, period)
    assert analysed == hi
    assert cmp_.median == 0.0


@pytest.mark.parametrize("period", ["nan", "inf", "0", "-1"])
def test_phase_subcommand_refuses_a_period_before_reading(tmp_path, period):
    # The period is checked before either input is read (neither exists)
    # or the output directory is made.
    out = tmp_path / "sync"
    argv = ["phase", "--input-a", str(tmp_path / "a.csv"), "--input-b",
            str(tmp_path / "b.csv"), "--period", period, "--outdir", str(out)]
    assert main(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("period", ["1e300", "1e-300"])
def test_phase_subcommand_refuses_a_period_far_outside_the_ladder(tmp_path, capsys, period):
    # The nearest scale used to be taken at any distance, so 1e300 s on a
    # 512-sample series exited 0 with the largest scale's phase.
    out = tmp_path / "sync"
    argv = ["phase", "--input-a", _sine_csv(tmp_path), "--input-b", _sine_csv(tmp_path),
            "--period", period, "--outdir", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "more than an octave outside the ladder" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_phase_subcommand_refuses_a_rate_that_is_not_finite(tmp_path, capsys, rate):
    # Both inputs carry a time column: a NaN or infinite rate used to be
    # ignored there, and the inferred rate used in its place.
    out = tmp_path / "sync"
    argv = ["phase", "--input-a", _sine_csv(tmp_path), "--input-b", _sine_csv(tmp_path),
            "--sample-rate", rate, "--period", "0.6", "--outdir", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"sample_rate must be finite and > 0, got {rate}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_synth_subcommand_round_trip(tmp_path):
    out = tmp_path / "wave.csv"
    rc = main(
        [
            "synth",
            "--kind",
            "sines",
            "--component",
            "0.5,1.0,0.0",
            "--sample-rate",
            "100",
            "--n",
            "1000",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    ts = load_csv(out)
    assert ts.sample_rate == pytest.approx(100.0)
    t = np.arange(1000) / 100.0
    np.testing.assert_allclose(ts.samples, np.sin(2 * np.pi * t / 0.5), atol=1e-9)
