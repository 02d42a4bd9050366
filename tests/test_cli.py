import argparse
import ast
import hashlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy

from wavescope import ConfigError, ParseError, svg
from wavescope import cli as climod
from wavescope import cwt as cwtmod
from wavescope import figures as figmod
from wavescope.cli import (
    FIGURE_NAMES,
    _STAGE_FUNCS,
    _STAGE_PARAMS,
    _build_parser,
    _load_csv_sniffed,
    figure_repro,
    main,
    run,
    validate_config,
)
from wavescope.signal_core import TimeSeries, load_csv, write_csv
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
        lambda r: r["pipeline"].append({"stage": "cwt", "omega0": float("nan")}),
        lambda r: r["input"]["synth"].update(sample_rate=float("inf")),
    ],
)
def test_validate_rejects_bad_configs(tmp_path, mutate):
    raw = _good_raw(tmp_path)
    mutate(raw)
    with pytest.raises(ConfigError):
        validate_config(raw)


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
    back = _load_csv_sniffed(path)
    assert back.sample_rate == pytest.approx(25.0)
    np.testing.assert_allclose(back.samples, ts.samples, rtol=1e-12)


def test_sniffed_loader_bare_column_needs_rate(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("value\n" + "\n".join(str(v) for v in range(32)) + "\n")
    ts = _load_csv_sniffed(path, sample_rate=10.0)
    assert ts.sample_rate == 10.0
    assert ts.samples.size == 32


_BOM_TIME_CSV = b"\xef\xbb\xbftime_s,value\r\n0.0,4.0\r\n0.5,5.0\r\n1.0,6.0\r\n"


def test_sniffed_loader_finds_a_time_header_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(_BOM_TIME_CSV)
    ts = _load_csv_sniffed(path)
    assert ts.sample_rate == 2.0
    assert ts.samples.tolist() == [4.0, 5.0, 6.0]


def test_sniffed_loader_reads_values_not_times_after_a_byte_order_mark(tmp_path):
    # With a stated rate the time column used to be read as the values.
    path = tmp_path / "bom.csv"
    path.write_bytes(_BOM_TIME_CSV)
    ts = _load_csv_sniffed(path, sample_rate=2.0)
    assert ts.samples.tolist() == [4.0, 5.0, 6.0]


def test_sniffed_loader_finds_a_quoted_time_header(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('"time_s","value"\n0.0,4.0\n0.5,5.0\n1.0,6.0\n')
    ts = _load_csv_sniffed(path)
    assert ts.sample_rate == 2.0
    assert ts.samples.tolist() == [4.0, 5.0, 6.0]


# -------------------------------------------------------------------- runs


def test_run_writes_report_and_summary(tmp_path):
    cfg = validate_config(_good_raw(tmp_path))
    report = run(cfg)
    assert report.exit_code == 0
    out = tmp_path / "out"
    assert (out / "input.csv").exists()
    assert (out / "report.json").exists()
    blob = json.loads((out / "report.json").read_text())
    assert blob["exit_code"] == 0
    names = {a["path"] for a in blob["artifacts"]}
    assert any(n.endswith("hq.csv") or "mfdfa" in n for n in names)
    h2 = report.summary["mfdfa"]["h2"]
    assert 0.3 < h2 < 0.75


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
    for load in (lambda: load_csv(bad, sample_rate=1.0), lambda: _load_csv_sniffed(bad)):
        with pytest.raises(ParseError, match="latin1.csv"):
            load()
    out = tmp_path / "sync"
    argv = ["phase", "--input-a", str(bad), "--input-b", _sine_csv(tmp_path),
            "--period", "1", "--outdir", str(out)]
    assert main(argv) == 3


def _sine_csv(tmp_path):
    path = tmp_path / "sine.csv"
    write_csv(TimeSeries(np.sin(np.arange(512) / 3.0), 50.0), path)
    return str(path)


def test_cwt_omega0_without_energy_below_nyquist_fails_the_stage(tmp_path):
    out = tmp_path / "out"
    argv = ["cwt", "--input", _sine_csv(tmp_path), "--outdir", str(out), "--omega0", "13"]
    assert main(argv) == 3
    marker = (out / "cwt.failed").read_text()
    assert marker.startswith("ValidationError: omega0 = 13 leaves no Morlet energy")


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


def test_synth_rejects_malformed_component(tmp_path):
    out = tmp_path / "sub" / "wave.csv"
    argv = ["synth", "--kind", "sines", "--component", "0.5,x,0",
            "--sample-rate", "100", "--n", "64", "--out", str(out)]
    assert main(argv) == 2
    assert not out.parent.exists()


def test_unexpected_stage_exception_leaves_marker(tmp_path):
    raw = _good_raw(tmp_path, pipeline=[{"stage": "mfdfa", "q_step": 0}])
    cfg_path = tmp_path / "zero_step.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert (tmp_path / "out" / "mfdfa.failed").exists()


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
        reports[on] = run(validate_config(raw))
    assert [p.name for p in (tmp_path / "formats_False").iterdir()] == ["report.json"]
    assert reports[False].artifacts == []
    assert reports[True].artifacts
    assert reports[False].summary == reports[True].summary


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
            ["--difference", "--q-step", "2"],
            {"stage": "mfdfa", "difference": True, "q_step": 2.0},
        ),
        (["--pad", "periodic"], {"stage": "cwt", "pad": "periodic"}),
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
    assert main(argv) == 0
    raw = {
        "input": {"kind": "csv", "path": str(csv)},
        "pipeline": [stage],
        "output_dir": str(piped),
        "formats": {"svg": "--svg" in flags},
    }
    run(validate_config(raw))
    assert _files(shot) == _files(piped)


# ------------------------------------------------------- shared scalogram


def _svg_run(tmp_path, pipeline, name="out"):
    raw = _good_raw(tmp_path, pipeline)
    raw["output_dir"] = str(tmp_path / name)
    raw["formats"] = {"svg": True}
    return run(validate_config(raw))


def _count_transforms(monkeypatch):
    """Weak references to the scalograms that cwt_morlet returns."""
    made = []
    real = cwtmod.cwt_morlet

    def counting(*args, **kwargs):
        sg = real(*args, **kwargs)
        made.append(weakref.ref(sg))
        return sg

    monkeypatch.setattr(cwtmod, "cwt_morlet", counting)
    return made


@pytest.mark.parametrize(
    "pipeline, calls",
    [
        ([{"stage": "cwt"}, {"stage": "globalpower"}], 1),
        ([{"stage": "globalpower"}, {"stage": "cwt"}], 1),
        ([{"stage": "cwt", "norm": "eq4"}, {"stage": "globalpower"}], 2),
        ([{"stage": "cwt", "pad": "periodic"}, {"stage": "globalpower"}], 2),
        ([{"stage": "cwt"}, {"stage": "denoise"}, {"stage": "globalpower"}], 2),
    ],
)
def test_run_shares_one_scalogram_per_series_and_params(
    tmp_path, monkeypatch, pipeline, calls
):
    made = _count_transforms(monkeypatch)
    _svg_run(tmp_path, pipeline)
    assert len(made) == calls


@pytest.mark.parametrize("order", [("cwt", "globalpower"), ("globalpower", "cwt")])
def test_shared_scalogram_leaves_each_stages_files_unchanged(tmp_path, order):
    _svg_run(tmp_path, [{"stage": name} for name in order], "both")
    both = _files(tmp_path / "both")
    for i, name in enumerate(order):
        _svg_run(tmp_path, [{"stage": name}], name)
        alone = _files(tmp_path / name)
        mine = {f[3:]: data for f, data in both.items() if f.startswith(f"{i:02d}_")}
        own = {f[3:]: data for f, data in alone.items() if f.startswith("00_")}
        assert own and mine == own, name


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
        ([{"stage": "cwt"}, {"stage": "denoise"}, {"stage": "globalpower"}], 1),
        ([{"stage": "globalpower"}, {"stage": "denoise"}, {"stage": "cwt"}], 1),
        ([{"stage": "cwt"}, {"stage": "denoise"}, {"stage": "cwt"}], 2),
        ([{"stage": "cwt"}, {"stage": "globalpower"}], 1),
        ([{"stage": "globalpower"}, {"stage": "cwt"}], 1),
        ([{"stage": "globalpower"}], 0),
    ],
)
def test_run_bins_a_heat_map_only_for_a_cwt_stage_on_that_series(
    tmp_path, monkeypatch, pipeline, maps
):
    # A heat map costs one log10 per row.  Only denoise returns a new
    # series, so a scalogram of one side of it bins no map for a cwt stage
    # on the other side.
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
    # 2^12 to 2^14 samples the peak grows by about 220 bytes per sample.
    # One complex scalogram would add 16 S bytes per sample (S = 73, 89),
    # and even an S x n float grid 8 S; the bound is 12 x 16 per padded
    # sample, 384 per sample.
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
    assert growth <= 12 * 16 * 2 * (2**14 - 2**12) < scalogram_growth / 3


def test_cli_reads_no_private_name_of_cwt_svg_or_scalogram():
    # cli.py takes the scalogram's reduction and the heat-map binning by
    # their public names: no attribute it reads and no name it imports is
    # a private of cwt, svg or a Scalogram (class or instance).
    def private(names):
        return {n for n in names if n.startswith("_") and not n.startswith("__")}

    sg = cwtmod.cwt_morlet(TimeSeries(np.sin(np.arange(64.0)), 1.0))
    forbidden = private(vars(cwtmod)) | private(vars(svg))
    forbidden |= private(vars(cwtmod.Scalogram)) | private(vars(sg))
    assert {"_evaluate", "_outside_slices", "_spec", "_mean_or_nan"} <= forbidden
    for mod in (climod, figmod):
        tree = ast.parse(open(mod.__file__, encoding="utf-8").read())
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("cwt", "svg"):
                read |= {alias.name for alias in node.names}
        assert sorted(read & forbidden) == [], mod.__name__


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
    "fig7": ["fig7a.svg", "fig7b.svg", "fig7.csv", "fig7.json"],
    "fig8": ["fig8.svg", "fig8.csv"],
    "fig9a": ["fig9a.svg", "fig9a.csv"],
    "fig9b": ["fig9b.svg", "fig9b.csv"],
    "fig10a": ["fig10a.svg", "fig10a.csv", "fig10a.json"],
    "fig10b": ["fig10b.svg", "fig10b.csv"],
    "fig11": [
        "fig11_locked.svg",
        "fig11_locked.csv",
        "fig11_detuned.svg",
        "fig11_detuned.csv",
        "fig11.json",
    ],
    "fig12": ["fig12.svg", "fig12.csv", "fig12.json"],
}


#: The numpy and scipy versions the pinned artifact lists were taken on;
#: others may round some floats differently.
_PINNED_VERSIONS = ("2.4.6", "1.17.1")


def _assert_pinned_list(directory, count, digest):
    """Compare the sha256 of the sorted ``name  sha256`` lines of every
    file in ``directory`` with a pinned one, on the pinned versions."""
    versions = (np.__version__, scipy.__version__)
    if versions != _PINNED_VERSIONS:
        pytest.skip(
            "artifact list pinned on numpy/scipy %s/%s, running %s/%s"
            % (*_PINNED_VERSIONS, *versions)
        )
    lines = sorted(
        f"{p.name}  {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in directory.iterdir()
    )
    assert len(lines) == count
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest


def test_figure_repro_writes_every_figure_deterministically(tmp_path):
    assert set(_FIGURE_FILES) == set(FIGURE_NAMES)
    for name in FIGURE_NAMES:
        first = figure_repro(name, tmp_path / "a")
        assert [p.name for p in first] == _FIGURE_FILES[name]
        assert [p.parent for p in first] == [tmp_path / "a"] * len(first)
        figure_repro(name, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    _assert_pinned_list(
        tmp_path / "a",
        23,
        "247bc01e6b990299397223d6661d41334d369fc2bb71d9097b5975d7142be2c5",
    )


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
    _assert_pinned_list(
        tmp_path / "fbm_run",
        11,
        "8c12726ab569ed219ca2591ac6c6461a32712f05bbf3ba7f3a139fd349cd3f35",
    )


def test_figure_repro_rejects_unknown_name(tmp_path):
    with pytest.raises(ConfigError):
        figure_repro("fig99", tmp_path)


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


@pytest.mark.parametrize("period", ["nan", "inf", "0", "-1"])
def test_phase_subcommand_refuses_a_period_before_reading(tmp_path, period):
    # The period is checked before either input is read (neither exists)
    # or the output directory is made.
    out = tmp_path / "sync"
    argv = ["phase", "--input-a", str(tmp_path / "a.csv"), "--input-b",
            str(tmp_path / "b.csv"), "--period", period, "--outdir", str(out)]
    assert main(argv) == 2
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
    ts = _load_csv_sniffed(out)
    assert ts.sample_rate == pytest.approx(100.0)
    t = np.arange(1000) / 100.0
    np.testing.assert_allclose(ts.samples, np.sin(2 * np.pi * t / 0.5), atol=1e-9)
