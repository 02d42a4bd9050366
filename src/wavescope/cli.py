"""Command line interface and config-driven pipeline runner.

Pipeline stages, figure presets and ``phase`` write every file through
one writer (``_writer``), which applies the formats, builds the path
and records it.  Everything written is deterministic: JSON is emitted
with sorted keys and repr-roundtrip floats, CSV numbers use repr, SVG
uses fixed precision, and no artifact carries a timestamp.  Identical
config and seed therefore produce byte-identical artifacts, which the
run report makes checkable by hashing every file it writes.

Exit codes: 0 success, 2 configuration problem, 3 stage failure,
4 filesystem problem.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cwt as cwtmod
from . import dwt, lyapunov, mfdfa, spectral, svg, synth
from .errors import (
    ConfigError,
    StageError,
    WavescopeError,
)
from .signal_core import TimeSeries, _write_table, load_csv, profile, write_csv

__all__ = ["RunConfig", "RunReport", "validate_config", "run", "figure_repro", "main"]


# --------------------------------------------------------------------------
# serialization helpers


def _plain(obj):
    """Recursively convert numpy containers so json sees pure Python."""
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(
        json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _writer(outdir: Path, prefix: str, wanted, written: list):
    """The one artifact writer for stages, figure presets and ``phase``.

    ``emit(name, write, *args, **kwargs)`` calls ``write(outdir / (prefix
    + name), *args, **kwargs)`` when ``wanted(name)`` and then records the
    path in ``written``.  Callers name ``write`` at the call
    (``svg.line_plot``, ``write_csv``), never from a stored table, so a
    wrapped module attribute sees every call.
    """

    def emit(name, write, /, *args, **kwargs):
        if wanted(name):
            path = outdir / (prefix + name)
            write(path, *args, **kwargs)
            written.append(path)

    return emit


# --------------------------------------------------------------------------
# run configuration


def _is_number(value) -> bool:
    """A finite int or float; JSON's NaN and Infinity are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _is_triple(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_number, v))


def _is_triples(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(map(_is_triple, v))


#: kind -> (accepts a config value, parses one command-line word, wording)
_KINDS = {
    float: (_is_number, float, "a finite number"),
    int: (lambda v: _is_number(v) and isinstance(v, int), int, "an integer"),
    bool: (lambda v: isinstance(v, bool), None, "true or false"),
    str: (lambda v: isinstance(v, str), str, "a string"),
    dict: (lambda v: isinstance(v, dict), None, "a mapping"),
    list: (
        _is_triples,
        lambda word: [float(v) for v in word.split(",")],
        "a list of [period, amplitude, phase] triples",
    ),
}

_REQUIRED = object()


@dataclass(frozen=True)
class _Param:
    """One declared parameter of a pipeline stage or an input kind.

    ``kind`` is a key of ``_KINDS`` (list: sine components).  A value in
    ``choices`` is accepted besides values of ``kind``; with ``kind`` None
    only the choices are.  A param without a default is required; one
    whose default is None may also be given as null.
    """

    name: str
    kind: type | None
    default: object = _REQUIRED
    choices: tuple = ()

    def accepts(self, value) -> bool:
        if value in self.choices or (value is None and self.default is None):
            return True
        return self.kind is not None and _KINDS[self.kind][0](value)

    def expects(self) -> str:
        words = [_KINDS[self.kind][2]] if self.kind is not None else []
        return " or ".join(words + [repr(c) for c in self.choices])

    def from_word(self, word: str):
        """Parse a command-line word; one that does not parse is passed on
        unchanged, so validate_config rejects it as it would in a config."""
        try:
            return word if self.kind is None else _KINDS[self.kind][1](word)
        except ValueError:
            return word


_FORMATS = (
    _Param("csv", bool, True),
    _Param("json", bool, True),
    _Param("svg", bool, False),
)

_INPUT_PARAMS = {
    "csv": (
        _Param("path", str),
        _Param("sample_rate", float, None),
        _Param("column", int, 0),
    ),
    "synth": (_Param("synth", dict),),
}

#: The run's seed; without its own seed, a synthetic input uses it.
_RUN_SEED = _Param("seed", int, 0)
_SEED = _Param("seed", int, None)

_SYNTH_PARAMS = {
    "fbm": (
        _Param("hurst", float),
        _Param("n", int),
        _Param("sample_rate", float),
        _Param("increments", bool, False),
        _SEED,
    ),
    "powerlaw": (
        _Param("beta", float),
        _Param("n", int),
        _Param("sample_rate", float),
        _SEED,
    ),
    "sines": (
        _Param("components", list),
        _Param("sample_rate", float),
        _Param("n", int),
        _SEED,
    ),
    "bounce": (
        _Param("amplitude", float),
        _Param("drive_freq", float),
        _Param("restitution", float),
        _Param("n_impacts", int),
        _Param("sample_rate", float, None),
        _SEED,
    ),
    "cascade": (
        _Param("a", float),
        _Param("levels", int),
        _SEED,
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline description (see :func:`validate_config`)."""

    input: dict
    pipeline: list
    output_dir: str
    seed: int = 0
    formats: dict = field(default_factory=lambda: _with_defaults({}, _FORMATS))


@dataclass(frozen=True)
class RunReport:
    """What a run produced: artifact paths with content hashes."""

    artifacts: list
    summary: dict
    exit_code: int


def _require_keys(d: dict, required, optional, where: str):
    for key in required:
        if key not in d:
            raise ConfigError(f"{where}: missing required key {key!r}")
    allowed = set(required) | set(optional)
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _check_params(d: dict, params, where: str, fixed: tuple):
    """Check the keys and value types of ``d`` against declared params."""
    _require_keys(
        d,
        fixed + tuple(p.name for p in params if p.default is _REQUIRED),
        [p.name for p in params if p.default is not _REQUIRED],
        where,
    )
    for p in params:
        if p.name in d and not p.accepts(d[p.name]):
            raise ConfigError(
                f"{where}: {p.name} must be {p.expects()}, got {d[p.name]!r}"
            )


def _check_entry(d, key: str, table: dict, where: str):
    """Check a mapping whose ``key`` names an entry of ``table`` (a stage or
    an input kind) against that entry's declared params."""
    name = d.get(key) if isinstance(d, dict) else None
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{where}: {key} must be one of {', '.join(sorted(table))}")
    _check_params(d, table[name], f"{where}.{name}", (key,))


def _with_defaults(d: dict, params) -> dict:
    """The declared params' values in ``d``, defaults filled in."""
    return {p.name: d.get(p.name, p.default) for p in params}


def validate_config(raw: dict) -> RunConfig:
    """Check the whole config before any computation starts.

    Key names, value types and choices are checked against each stage's
    and input kind's declared params; values are kept exactly as given.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    _require_keys(
        raw, ("input", "pipeline", "output_dir"), ("seed", "formats"), "config"
    )
    inp = raw["input"]
    _check_entry(inp, "kind", _INPUT_PARAMS, "input")
    if inp["kind"] == "synth":
        _check_entry(inp["synth"], "kind", _SYNTH_PARAMS, "input.synth")
    stages = raw["pipeline"]
    if not isinstance(stages, list):
        raise ConfigError("pipeline: must be a list of stage mappings")
    for i, stage in enumerate(stages):
        _check_entry(stage, "stage", _STAGE_PARAMS, f"pipeline[{i}]")
    if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
        raise ConfigError("output_dir: must be a non-empty string")
    seed = raw.get("seed", _RUN_SEED.default)
    if not _RUN_SEED.accepts(seed) or seed < 0:
        raise ConfigError("seed: must be a non-negative integer")
    formats = raw.get("formats", {})
    if not isinstance(formats, dict):
        raise ConfigError("formats: must be a mapping")
    _check_params(formats, _FORMATS, "formats", ())
    return RunConfig(
        input=inp,
        pipeline=stages,
        output_dir=raw["output_dir"],
        seed=seed,
        formats=_with_defaults(formats, _FORMATS),
    )


_TIME_HEADERS = ("time", "time_s", "t", "timestamp", "timestamp_s")


def _load_csv_sniffed(path, sample_rate=None, column=0) -> TimeSeries:
    """Load a CSV, treating a header column named like a time axis as one.

    The header row is read as ``load_csv`` reads it: UTF-8 with an
    optional byte-order mark, fields split by ``csv.reader``.
    """
    time_column = None
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            first = next(csv.reader(fh), [])
    except (OSError, UnicodeDecodeError, csv.Error):  # load_csv reports these
        first = []
    fields = [f.strip().lower() for f in first]
    for i, name in enumerate(fields):
        if name in _TIME_HEADERS:
            time_column = i
            if column == i:
                column = 0 if i != 0 else 1
            break
    return load_csv(
        path, sample_rate=sample_rate, column=column, time_column=time_column
    )


def _build_input(cfg: RunConfig) -> TimeSeries:
    inp = cfg.input
    if inp["kind"] == "csv":
        spec = _with_defaults(inp, _INPUT_PARAMS["csv"])
        return _load_csv_sniffed(
            spec["path"], sample_rate=spec["sample_rate"], column=spec["column"]
        )
    kind = inp["synth"]["kind"]
    spec = _with_defaults(inp["synth"], _SYNTH_PARAMS[kind])
    seed = cfg.seed if spec["seed"] is None else spec["seed"]
    if kind == "fbm":
        ts = synth.gen_fbm(
            spec["hurst"], spec["n"], seed=seed, sample_rate=spec["sample_rate"]
        )
        if spec["increments"]:
            ts = TimeSeries(np.diff(ts.samples), ts.sample_rate, label=ts.label)
        return ts
    if kind == "powerlaw":
        return synth.gen_power_law_noise(
            spec["beta"], spec["n"], seed=seed, sample_rate=spec["sample_rate"]
        )
    if kind == "sines":
        comps = [tuple(c) for c in spec["components"]]
        return synth.gen_sine_mix(comps, spec["sample_rate"], spec["n"])
    if kind == "bounce":
        p = synth.BounceParams(
            spec["amplitude"],
            spec["drive_freq"],
            spec["restitution"],
            spec["n_impacts"],
            seed=seed,
        )
        return synth.gen_bouncing_ball(p, sample_rate=spec["sample_rate"])
    p = synth.CascadeParams(spec["a"], spec["levels"], seed=seed)
    return synth.gen_binomial_cascade(p)


# --------------------------------------------------------------------------
# pipeline stages
#
# Stage contract: ``_stage_x(ts, params, emit) -> (ts, info)``.  A stage
# gets the series and its declared params with defaults filled in.  It
# writes every file through ``emit`` (see _writer), inside the call, so a
# failing write fails the stage and the stage's arrays die on return.  It
# returns the series for the next stage and its summary entry.  A stage
# in _SCALOGRAM_STAGES also gets the run's _Scalograms, held for the whole
# run, and takes its Morlet scalogram from there.


class _Scalograms:
    """The one Morlet scalogram that the stages of a run share.

    ``scalograms(ts, omega0, norm, pad)`` returns ``cwt_morlet`` of the
    series with those params.  It computes the transform only when the
    series object (compared with ``is``) or a param differs from the held
    one, and drops the held scalogram first, so at most one is alive.
    ``cwt_morlet`` is looked up on its module at call time, so a wrapped
    module attribute sees every transform.  ``run`` sets
    ``heatmap_params`` before each stage to the params of the ``cwt``
    stages that will read this stage's series (see _cwt_params_ahead).  A
    new scalogram with params among them gets its ``power_summary`` pass
    with the heat map at once, so a stage of either kind, in either order,
    reads that one record; any other gets no heat map.  A held scalogram
    is O(n_fft + S max_cols).
    """

    def __init__(self):
        self.heatmap_params = set()
        self._ts = self._params = self._sg = None

    def __call__(self, ts, omega0, norm, pad):
        params = (omega0, norm, pad)
        if self._ts is not ts or self._params != params:
            self._sg = None
            self._sg = cwtmod.cwt_morlet(ts, omega0=omega0, norm=norm, pad=pad)
            self._ts, self._params = ts, params
            if params in self.heatmap_params:
                self._sg.power_summary(heatmap=True)
        return self._sg


def _cwt_params_ahead(stages) -> set:
    """``(omega0, norm, pad)`` of the ``cwt`` stages among ``stages`` that
    read the series the first one reads: those before the next
    ``denoise``, the one stage that returns a new series."""
    params = set()
    for name, p in stages:
        if name == "denoise":
            break
        if name == "cwt":
            params.add((p["omega0"], p["norm"], p["pad"]))
    return params


def _stage_denoise(ts, params, emit):
    """Wavelet denoising."""
    cleaned = dwt.denoise(
        ts.samples,
        dwt.daubechies(params["vanishing_moments"]),
        levels=params["levels"],
        rule=params["rule"],
        kill_count=params["kill_count"],
        boundary=params["boundary"],
    )
    out = TimeSeries(cleaned, ts.sample_rate, label=ts.label)
    emit("denoised.csv", lambda path: write_csv(out, path))
    return out, {
        "rule": params["rule"],
        "residual_rms": float(np.sqrt(np.mean((ts.samples - cleaned) ** 2))),
    }


def _spectrum_plot(path, ps, title, guides=(), label="power"):
    """Log-log spectrum with a dashed guide line per ``(fit, slope, label)``.

    A guide runs across the fitted band, anchored at the band's centre on
    the fit; its slope is the fit's own when ``slope`` is None.
    """
    nz = ps.freqs > 0
    curves = [(ps.freqs[nz], ps.power[nz], label)]
    for fit, slope, text in guides:
        f_lo, f_hi = fit.band
        f = np.array([f_lo, f_hi])
        s = fit.slope if slope is None else slope
        fc = math.sqrt(f_lo * f_hi)
        level = fit.intercept + fit.slope * math.log10(fc)
        y = 10.0 ** (level + s * (np.log10(f) - math.log10(fc)))
        curves.append((f, y, text, True))
    return svg.line_plot(
        path,
        curves,
        xlabel="frequency (Hz)",
        ylabel="power",
        title=title,
        xlog=True,
        ylog=True,
    )


def _stage_spectrum(ts, params, emit):
    """One-sided power spectrum."""
    ps = spectral.power_spectrum(ts, window=params["window"])
    emit("spectrum.csv", _write_table, ["freq_hz", "power"], [ps.freqs, ps.power])
    emit("spectrum.svg", _spectrum_plot, ps, "power spectrum")
    return ts, {
        "dominant_frequency_hz": spectral.dominant_frequency(ps),
        "n_bins": int(ps.freqs.size),
    }


def _stage_fit(ts, params, emit):
    """Power-law fit of the spectrum."""
    ps = spectral.power_spectrum(ts)
    fit = spectral.fit_power_law(ps, params["f_lo"], params["f_hi"])
    info = {
        "slope": fit.slope,
        "alpha_abs": fit.alpha_abs,
        "intercept_log10": fit.intercept,
        "band_hz": list(fit.band),
        "r_squared": fit.r_squared,
        "n_points": fit.n_points,
    }
    try:
        info["hurst"] = spectral.hurst_from_alpha(fit.alpha_abs)
    except WavescopeError as err:
        info["hurst"] = None
        info["hurst_note"] = str(err)
    try:
        info["fractal_dimension"] = spectral.fractal_dimension(fit.alpha_abs)
    except WavescopeError as err:
        info["fractal_dimension"] = None
        info["fractal_dimension_note"] = str(err)
    emit("fit.json", _write_json, info)
    guide = (fit, None, f"slope {fit.slope:.3g}")
    emit("fit.svg", _spectrum_plot, ps, "power-law fit", [guide])
    return ts, info


def _stage_heisenberg(ts, params, emit):
    """Spectral regime comparison."""
    ps = spectral.power_spectrum(ts)
    res = spectral.heisenberg_fit(
        ps,
        params["f_lo"],
        params["f_hi"],
        regime=params["regime"],
        rel_tolerance=params["rel_tolerance"],
    )
    info = {
        "slope": res.fit.slope,
        "target": res.target,
        "tolerance": res.tolerance,
        "matches": res.matches,
        "band_hz": list(res.fit.band),
        "r_squared": res.fit.r_squared,
    }
    emit("heisenberg.json", _write_json, info)
    guide = (res.fit, res.target, f"target {res.target:.3g}")
    emit("heisenberg.svg", _spectrum_plot, ps, "spectral regime fit", [guide])
    return ts, info


def _write_fq_table(path, table):
    header = ["scale"] + [f"q={v:g}" for v in table.q_values]
    cols = [table.scales.astype(float)] + [
        table.fluctuation[i] for i in range(table.q_values.size)
    ]
    _write_table(path, header, cols)


def _fq_plot(path, table, rows, xlabel, title):
    """Log-log F_q(s) curves for the moment orders at ``rows``."""
    curves = [
        (table.scales.astype(float), table.fluctuation[i], f"q={table.q_values[i]:g}")
        for i in rows
    ]
    return svg.line_plot(
        path, curves, xlabel=xlabel, ylabel="F_q(s)", title=title, xlog=True, ylog=True
    )


def _stage_mfdfa(ts, params, emit):
    """Multifractal fluctuation analysis."""
    data = np.diff(ts.samples) if params["difference"] else ts.samples
    q_step = params["q_step"]
    q = np.arange(params["q_min"], params["q_max"] + 0.5 * q_step, q_step)
    cfg = mfdfa.MfdfaConfig(q_values=q)
    table = mfdfa.fluctuation_function(profile(data, ts.sample_rate), cfg)
    fit_lo, fit_hi = params["fit_lo"], params["fit_hi"]
    fit_range = (
        2.0 * table.wavelet_support if fit_lo is None else fit_lo,
        table.n / 8.0 if fit_hi is None else fit_hi,
    )
    table = mfdfa.generalized_hurst(table, fit_range=fit_range)
    emit("fq.csv", _write_fq_table, table)
    emit(
        "hurst.csv",
        _write_table,
        ["q", "h", "r_squared"],
        [table.q_values, table.hurst, table.fit_r2],
    )
    rows = range(0, table.q_values.size, max(1, table.q_values.size // 6))
    emit("fq.svg", _fq_plot, table, rows, "scale (samples)", "fluctuation function")
    emit(
        "hurst.svg",
        svg.line_plot,
        [(table.q_values, table.hurst, "h(q)")],
        xlabel="q",
        ylabel="h(q)",
        title="generalized Hurst exponents",
    )
    info = {
        "h2": table.hurst_at(2.0) if np.any(np.isclose(table.q_values, 2.0)) else None,
        "delta_h": table.delta_h,
        "fit_range": list(table.fit_range),
        "n_scales": int(table.scales.size),
        "differenced": params["difference"],
    }
    emit("mfdfa.json", _write_json, info)
    return ts, info


def _scalogram_plot(path, sg, title):
    """Heatmap of log10 power relative to the variance, cone of influence
    drawn, from the column bins of ``sg.power_summary(heatmap=True)``."""
    return svg.heatmap(
        path,
        sg.times,
        sg.periods,
        sg.power_summary(heatmap=True).heatmap,
        xlabel="time (s)",
        ylabel="period (s)",
        title=title,
        ylog=True,
        overlay=(sg.times, sg.coi),
    )


def _stage_cwt(ts, params, emit, scalogram):
    """Morlet scalogram summary.

    The table and the heat map read the scalogram's one power_summary
    pass, shared with a ``globalpower`` stage in either order: O(S n_fft
    log n_fft) time and O(n_fft + S max_cols) memory.
    """
    sg = scalogram(ts, params["omega0"], params["norm"], params["pad"])
    emit(
        "scales.csv",
        _write_table,
        ["scale_s", "period_s", "mean_power_outside_coi"],
        [sg.scales, sg.periods, sg.power_summary(heatmap=True).mean_power],
    )
    emit("scalogram.svg", _scalogram_plot, sg, "scalogram, log10 power / variance")
    return ts, {
        "n_scales": int(sg.scales.size),
        "period_range_s": [float(sg.periods[0]), float(sg.periods[-1])],
    }


def _stage_globalpower(ts, params, emit, scalogram):
    """Time-averaged wavelet power."""
    sg = scalogram(ts, params["omega0"], "l2", "zero")
    gp = cwtmod.global_power(sg, background=params["background"], series=ts.samples)
    peaks = cwtmod.dominant_periods(gp, max_count=params["max_peaks"])
    emit(
        "globalpower.csv",
        _write_table,
        ["scale_s", "period_s", "power", "significance_95"],
        [gp.scales, gp.periods, gp.power, gp.significance_95],
    )
    emit(
        "globalpower.svg",
        svg.line_plot,
        [
            (gp.periods, gp.power, "global power"),
            (gp.periods, gp.significance_95, "95% level", True),
        ],
        xlabel="period (s)",
        ylabel="power",
        title="global wavelet power",
        xlog=True,
        ylog=True,
        vmarks=[(p_, f"{p_ * 1e3:.0f} ms") for p_ in peaks[:4]],
    )
    info = {
        "dominant_periods_s": peaks,
        "background": gp.background,
        "n_scales": int(gp.scales.size),
    }
    emit("globalpower.json", _write_json, info)
    return ts, info


def _stage_lyapunov(ts, params, emit):
    """Largest Lyapunov exponent."""
    delay = params["delay"]
    if delay == "auto":
        delay = lyapunov.estimate_delay(ts)
    cfg = lyapunov.EmbeddingConfig(
        dim=params["dim"],
        delay=delay,
        theiler=params["theiler"],
        max_iter=params["max_iter"],
    )
    res = lyapunov.largest_lyapunov(ts, cfg)
    info = {
        "exponent_per_s": res.exponent,
        "fit_range": list(res.fit_range),
        "r_squared": res.r_squared,
        "n_pairs": res.n_pairs,
        "dim": cfg.dim,
        "delay": cfg.delay,
        "positive": res.positive,
    }
    emit("lyapunov.json", _write_json, info)
    emit(
        "divergence.csv",
        _write_table,
        ["iteration", "mean_log_distance"],
        [np.arange(res.divergence.size), res.divergence],
    )
    return ts, info


# ``run`` looks each stage up here at call time, so wrapping an entry
# (as the benchmark's traced pass does) instruments every run.
_STAGE_FUNCS = {
    "denoise": _stage_denoise,
    "spectrum": _stage_spectrum,
    "fit": _stage_fit,
    "heisenberg": _stage_heisenberg,
    "mfdfa": _stage_mfdfa,
    "cwt": _stage_cwt,
    "globalpower": _stage_globalpower,
    "lyapunov": _stage_lyapunov,
}

#: The stages that read a Morlet scalogram through _Scalograms.
_SCALOGRAM_STAGES = ("cwt", "globalpower")

_OMEGA0 = _Param("omega0", float, 6.0)

#: Each stage's params, declared once: validate_config checks configs
#: against them, run fills in their defaults and each stage subcommand
#: gets one flag per param.
_STAGE_PARAMS = {
    "denoise": (
        _Param("rule", None, "kill_details", ("kill_details", "soft_threshold")),
        _Param("levels", int, None),
        _Param("kill_count", int, None),
        _Param("vanishing_moments", int, 2),
        _Param("boundary", None, "symmetric", dwt.BOUNDARY_MODES),
    ),
    "spectrum": (_Param("window", None, "none", ("none", "hann")),),
    "fit": (_Param("f_lo", float), _Param("f_hi", float)),
    "heisenberg": (
        _Param("f_lo", float),
        _Param("f_hi", float),
        _Param("regime", float, "neutral", ("neutral", "dissipation")),
        _Param("rel_tolerance", float, 0.15),
    ),
    "mfdfa": (
        _Param("difference", bool, False),
        _Param("fit_lo", float, None),
        _Param("fit_hi", float, None),
        _Param("q_min", float, -10.0),
        _Param("q_max", float, 10.0),
        _Param("q_step", float, 1.0),
    ),
    "cwt": (
        _OMEGA0,
        _Param("norm", None, "l2", ("l2", "eq4")),
        _Param("pad", None, "zero", ("zero", "periodic")),
    ),
    "globalpower": (
        _OMEGA0,
        _Param("background", None, "white", ("white", "red")),
        _Param("max_peaks", int, None),
    ),
    "lyapunov": (
        _Param("dim", int, 5),
        _Param("delay", int, "auto", ("auto",)),
        _Param("theiler", int, None),
        _Param("max_iter", int, None),
    ),
}


def run(cfg: RunConfig) -> RunReport:
    """Execute a validated pipeline; see :func:`validate_config`.

    Raises StageError naming the failing stage; before the raise, a
    ``<stage>.failed`` marker records the reason next to any partial
    output of that stage.

    The ``cwt`` and ``globalpower`` stages share one scalogram when they
    read the same series with the same params: the run computes it once
    and holds it, O(n_fft + S max_cols), until the next transform or the
    end of the run.  Neither stage holds an S x n array, and in either
    order the two read one ``power_summary`` record, which bins the heat
    map when this or a later ``cwt`` stage reads that series with those params,
    so each row's inverse FFT runs once.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary: dict = {}
    stages = [
        (s["stage"], _with_defaults(s, _STAGE_PARAMS[s["stage"]])) for s in cfg.pipeline
    ]
    scalograms = _Scalograms()

    def wanted(name):
        return cfg.formats[name.rsplit(".", 1)[1]]

    def attempt(stage_name, fn, *args):
        try:
            return fn(*args)
        except Exception as err:
            marker = outdir / f"{stage_name}.failed"
            marker.write_text(f"{type(err).__name__}: {err}\n", encoding="utf-8")
            raise StageError(stage_name, f"{stage_name}: {err}") from err

    ts = attempt("input", _build_input, cfg)
    _writer(outdir, "", wanted, written)("input.csv", lambda path: write_csv(ts, path))
    summary["input"] = {
        "n": int(ts.samples.size),
        "sample_rate_hz": float(ts.sample_rate),
        "label": ts.label,
    }
    for i, (name, params) in enumerate(stages):
        emit = _writer(outdir, f"{i:02d}_{name}_", wanted, written)
        args = (ts, params, emit)
        if name in _SCALOGRAM_STAGES:
            scalograms.heatmap_params = _cwt_params_ahead(stages[i:])
            args += (scalograms,)
        ts, summary[name] = attempt(name, _STAGE_FUNCS[name], *args)
    report = RunReport(
        artifacts=[
            {"path": p.name, "sha256": _sha256(p)} for p in written
        ],
        summary=summary,
        exit_code=0,
    )
    _write_json(
        outdir / "report.json",
        {"artifacts": report.artifacts, "summary": report.summary, "exit_code": 0},
    )
    return report


# --------------------------------------------------------------------------
# figure reproduction presets

_FOUR_TONES = [(0.018, 0.7, 0.0), (0.049, 1.5, 0.8), (0.226, 0.7, 1.6), (0.578, 1.3, 2.4)]


def _four_tone_series(n: int = 2**14, rate: float = 5000.0) -> TimeSeries:
    ts = synth.gen_sine_mix(_FOUR_TONES, rate, n)
    rng = np.random.default_rng(42)
    return TimeSeries(
        ts.samples + 0.05 * rng.standard_normal(n), rate, label="four tones"
    )


def _two_regime_noise(n: int = 2**15, rate: float = 50000.0, fc: float = 500.0):
    """Noise whose spectrum falls as f^-5/3 below fc and f^-7 above it."""
    freqs = np.arange(1, n // 2 + 1) * (rate / n)
    amp = np.where(
        freqs <= fc,
        freqs ** (-5.0 / 6.0),
        fc ** (7.0 / 2.0 - 5.0 / 6.0) * freqs ** (-7.0 / 2.0),
    )
    samples = synth._fourier_noise(amp, np.random.default_rng(11))
    return TimeSeries(samples, rate, label="two-regime noise")


def _fig7(emit) -> None:
    ts = synth.gen_power_law_noise(1.0, 2**14, seed=7, sample_rate=50000.0)
    prof = profile(ts)
    walk = TimeSeries(prof.values, ts.sample_rate)
    ps = spectral.power_spectrum(walk)
    fit = spectral.fit_power_law(ps, 330.0, 8000.0)
    hurst = spectral.hurst_from_alpha(min(fit.alpha_abs, 2.999))
    t = np.arange(prof.values.size) / ts.sample_rate
    emit(
        "fig7a.svg",
        svg.line_plot,
        [(t, prof.values, "profile")],
        xlabel="time (s)",
        ylabel="cumulative sum",
        title="profile of the series",
    )
    emit(
        "fig7b.svg",
        _spectrum_plot,
        ps,
        "power law of the profile",
        [(fit, None, f"slope {fit.slope:.2f}")],
        label="profile power",
    )
    emit("fig7.csv", _write_table, ["freq_hz", "power"], [ps.freqs, ps.power])
    info = {"alpha_abs": fit.alpha_abs, "slope": fit.slope, "hurst": hurst}
    emit("fig7.json", _write_json, info)


def _fig8(emit) -> None:
    ts = _four_tone_series()
    sg = cwtmod.cwt_morlet(ts)
    emit("fig8.svg", _scalogram_plot, sg, "scalogram with cone of influence")
    emit(
        "fig8.csv",
        _write_table,
        ["period_s", "mean_power_outside_coi"],
        [sg.periods, sg.power_summary(heatmap=True).mean_relative],
    )


def _fig9(emit) -> None:
    ts = synth.gen_binomial_cascade(synth.CascadeParams(0.75, 14))
    q = np.arange(-10.0, 10.5, 1.0)
    table = mfdfa.fluctuation_function(profile(ts), mfdfa.MfdfaConfig(q_values=q))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = mfdfa.generalized_hurst(
            table, fit_range=(16.0, table.n / 16.0)
        )
    sel = np.flatnonzero(np.isin(table.q_values, (-10, -5, -2, 0, 2, 5, 10)))
    emit(
        "fig9a.svg",
        _fq_plot,
        table,
        sel,
        "scale s (samples)",
        "fluctuation functions of the cascade",
    )
    emit("fig9a.csv", _write_fq_table, table)
    closed = np.array([synth.cascade_hurst(0.75, v) for v in table.q_values])
    emit(
        "fig9b.svg",
        svg.line_plot,
        [
            (table.q_values, table.hurst, "measured h(q)"),
            (table.q_values, closed, "closed form", True),
        ],
        xlabel="q",
        ylabel="h(q)",
        title="generalized Hurst exponents",
    )
    emit(
        "fig9b.csv",
        _write_table,
        ["q", "h_measured", "h_closed_form"],
        [table.q_values, table.hurst, closed],
    )


def _fig10(emit) -> None:
    ts = _four_tone_series()
    sg = cwtmod.cwt_morlet(ts)
    gp = cwtmod.global_power(sg, background="white", series=ts.samples)
    peaks = cwtmod.dominant_periods(gp, max_count=4)
    emit(
        "fig10a.svg",
        svg.line_plot,
        [(gp.periods, gp.power, "global power")],
        xlabel="period (s)",
        ylabel="power",
        title="time-averaged wavelet power",
        xlog=True,
        vmarks=[(p, f"{p * 1e3:.0f} ms") for p in sorted(peaks)],
    )
    emit("fig10a.csv", _write_table, ["period_s", "power"], [gp.periods, gp.power])
    emit("fig10a.json", _write_json, {"dominant_periods_s": sorted(peaks)})
    emit(
        "fig10b.svg",
        svg.line_plot,
        [
            (gp.periods, gp.power, "global power"),
            (gp.periods, gp.significance_95, "95% significance", True),
        ],
        xlabel="period (s)",
        ylabel="power",
        title="global power against the 95% level",
        xlog=True,
        ylog=True,
    )
    sig = gp.power > gp.significance_95
    emit(
        "fig10b.csv",
        _write_table,
        ["period_s", "power", "significance_95", "significant"],
        [gp.periods, gp.power, gp.significance_95, sig],
    )


def _phase_comparison(sga, sgb, period: float):
    """Phase of ``sga`` minus phase of ``sgb`` at ``sga``'s scale nearest ``period``.

    Returns the analysed period, the comparison and its synchronized
    segments as (start, end) time bands.
    """
    idx = int(np.argmin(np.abs(sga.periods - period)))
    scale = float(sga.scales[idx])
    cmp_ = cwtmod.phase_difference(
        cwtmod.phase_at_scale(sga, scale), cwtmod.phase_at_scale(sgb, scale)
    )
    bands = [(float(cmp_.times[a]), float(cmp_.times[b - 1])) for a, b in cmp_.segments]
    return float(sga.periods[idx]), cmp_, bands


def _fig11(emit) -> None:
    rate, n = 200.0, 2**13
    period = 0.578
    base = synth.gen_sine_mix([(period, 1.0, 0.0)], rate, n)
    locked = synth.gen_sine_mix([(period, 1.0, math.pi / 4)], rate, n)
    detuned = synth.gen_sine_mix([(period / 1.01, 1.0, math.pi / 4)], rate, n)
    rng = np.random.default_rng(5)
    noise = lambda: 0.02 * rng.standard_normal(n)  # noqa: E731
    sga = cwtmod.cwt_morlet(TimeSeries(base.samples + noise(), rate))
    sgb = cwtmod.cwt_morlet(TimeSeries(locked.samples + noise(), rate))
    sgc = cwtmod.cwt_morlet(TimeSeries(detuned.samples + noise(), rate))
    # all three share one scale ladder, so each picks the same scale
    cmps = {}
    for tag, sg in (("locked", sgb), ("detuned", sgc)):
        _, cmp_, bands = _phase_comparison(sg, sga, period)
        cmps[tag] = cmp_
        emit(
            f"fig11_{tag}.svg",
            svg.line_plot,
            [(cmp_.times, cmp_.delta, "phase difference")],
            xlabel="time (s)",
            ylabel="delta phi (rad)",
            title=f"phase difference, {tag} pair",
            bands=bands,
        )
        emit(
            f"fig11_{tag}.csv",
            _write_table,
            ["time_s", "delta_phi_rad"],
            [cmp_.times, cmp_.delta],
        )
    emit(
        "fig11.json",
        _write_json,
        {
            "locked_median_rad": cmps["locked"].median,
            "locked_segments": cmps["locked"].segments,
            "detuned_segments": cmps["detuned"].segments,
            "drift_bound_s": 0.4 / (2.0 * math.pi * (1.0 / period) * 0.01 / 1.01),
        },
    )


def _fig12(emit) -> None:
    ts = _two_regime_noise()
    ps = spectral.power_spectrum(ts)
    neutral = spectral.heisenberg_fit(ps, 20.0, 400.0, regime="neutral")
    dissip = spectral.heisenberg_fit(ps, 800.0, 20000.0, regime="dissipation")
    emit(
        "fig12.svg",
        _spectrum_plot,
        ps,
        "spectral regimes",
        [
            (neutral.fit, neutral.target, "-5/3 neutral"),
            (dissip.fit, dissip.target, "-7 dissipation"),
        ],
    )
    emit("fig12.csv", _write_table, ["freq_hz", "power"], [ps.freqs, ps.power])
    emit(
        "fig12.json",
        _write_json,
        {
            "neutral": {"slope": neutral.fit.slope, "matches": neutral.matches},
            "dissipation": {"slope": dissip.fit.slope, "matches": dissip.matches},
        },
    )


#: Each preset emits its files through the writer; a figure name keeps the
#: files whose names start with it, so fig9a and fig9b share one preset.
_FIGURES = {
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9a": _fig9,
    "fig9b": _fig9,
    "fig10a": _fig10,
    "fig10b": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
}
FIGURE_NAMES = tuple(_FIGURES)


def figure_repro(name: str, out_dir: str | Path) -> list[Path]:
    """Rebuild one documentation figure from its synthetic stand-in."""
    if name not in _FIGURES:
        raise ConfigError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")
    outdir = Path(out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    _FIGURES[name](_writer(outdir, "", lambda f: f.startswith(name), written))
    return written


# --------------------------------------------------------------------------
# argument parsing


def _add_flags(sp, params):
    """One flag per declared param; only the flags given reach the config."""
    for p in params:
        flag = "--" + p.name.replace("_", "-")
        if p.kind is bool:
            sp.add_argument(flag, action="store_true")
        elif p.kind is list:  # singular and repeated: --component PERIOD,AMP,PHASE
            sp.add_argument(
                flag[:-1],
                dest=p.name,
                action="append",
                type=p.from_word,
                help=p.expects(),
            )
        else:
            sp.add_argument(flag, type=p.from_word, help=p.expects())


def _given(args, params) -> dict:
    return {p.name: getattr(args, p.name) for p in params if hasattr(args, p.name)}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wavescope",
        description="Wavelet-based characterization of nonstationary time series",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # param flags default to SUPPRESS: a flag not given adds no config key
    sp = sub.add_parser(
        "synth", help="generate a synthetic series", argument_default=argparse.SUPPRESS
    )
    sp.add_argument("--kind", required=True, choices=sorted(_SYNTH_PARAMS))
    # one flag per param name of any kind; validate_config rejects the
    # flags that the chosen kind does not declare
    _add_flags(sp, {p.name: p for ps in _SYNTH_PARAMS.values() for p in ps}.values())
    sp.add_argument("--out", required=True)

    for name, params in _STAGE_PARAMS.items():
        sp = sub.add_parser(
            name, help=_STAGE_FUNCS[name].__doc__, argument_default=argparse.SUPPRESS
        )
        sp.add_argument("--input", dest="path", required=True, help="input CSV path")
        _add_flags(sp, _INPUT_PARAMS["csv"][1:])  # path comes from --input
        _add_flags(sp, params)
        sp.add_argument("--outdir", required=True)
        sp.add_argument("--svg", action="store_true", default=False)

    sp = sub.add_parser("phase", help="phase difference of two series")
    sp.add_argument("--input-a", required=True)
    sp.add_argument("--input-b", required=True)
    sp.add_argument("--sample-rate", type=float, default=None)
    sp.add_argument("--period", type=float, required=True,
                    help="analysis period in seconds")
    sp.add_argument("--outdir", required=True)
    sp.add_argument("--svg", action="store_true")

    sp = sub.add_parser("run", help="execute a JSON pipeline config")
    sp.add_argument("--config", required=True)

    sp = sub.add_parser("figure-repro", help="rebuild a documentation figure")
    sp.add_argument("--name", required=True, choices=FIGURE_NAMES)
    sp.add_argument("--outdir", required=True)
    return ap


def _cmd_synth(args) -> int:
    spec = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    # only the input section is used: nothing is written to output_dir
    cfg = validate_config(
        {"input": {"kind": "synth", "synth": spec}, "pipeline": [], "output_dir": "."}
    )
    ts = _build_input(cfg)
    write_csv(ts, args.out)
    print(f"wrote {args.out} ({ts.samples.size} samples at {ts.sample_rate:g} Hz)")
    return 0


def _cmd_stage(args) -> int:
    """Run a stage subcommand as the one-stage pipeline a user would write."""
    name = args.command
    cfg = validate_config(
        {
            "input": {"kind": "csv", **_given(args, _INPUT_PARAMS["csv"])},
            "pipeline": [{"stage": name, **_given(args, _STAGE_PARAMS[name])}],
            "output_dir": args.outdir,
            "formats": {"svg": args.svg},
        }
    )
    report = run(cfg)
    print(f"{name}: " + json.dumps(_plain(report.summary[name]), sort_keys=True))
    return 0


def _cmd_phase(args) -> int:
    if not (math.isfinite(args.period) and args.period > 0):
        raise ConfigError(f"--period must be finite and > 0, got {args.period}")
    a = _load_csv_sniffed(args.input_a, sample_rate=args.sample_rate)
    b = _load_csv_sniffed(args.input_b, sample_rate=args.sample_rate)
    period, cmp_, bands = _phase_comparison(
        cwtmod.cwt_morlet(a), cwtmod.cwt_morlet(b), args.period
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    emit = _writer(outdir, "", lambda f: args.svg or not f.endswith(".svg"), [])
    emit(
        "phase_difference.csv",
        _write_table,
        ["time_s", "delta_phi_rad"],
        [cmp_.times, cmp_.delta],
    )
    info = {
        "period_s": period,
        "median_rad": cmp_.median,
        "segments": cmp_.segments,
        "min_duration_s": cmp_.min_duration_s,
    }
    emit("phase.json", _write_json, info)
    emit(
        "phase.svg",
        svg.line_plot,
        [(cmp_.times, cmp_.delta, "delta phi")],
        xlabel="time (s)",
        ylabel="delta phi (rad)",
        title="phase difference",
        bands=bands,
    )
    print(f"phase: median {cmp_.median:+.4f} rad, {len(cmp_.segments)} segment(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command in _STAGE_PARAMS:
            return _cmd_stage(args)
        if args.command == "phase":
            return _cmd_phase(args)
        if args.command == "run":
            with open(args.config, encoding="utf-8") as fh:
                try:
                    raw = json.load(fh)
                except UnicodeDecodeError as err:
                    raise ConfigError(f"{args.config}: not UTF-8 text ({err.reason})")
            cfg = validate_config(raw)
            report = run(cfg)
            print(
                f"run complete: {len(report.artifacts)} artifact(s) in "
                f"{cfg.output_dir}"
            )
            return 0
        if args.command == "figure-repro":
            paths = figure_repro(args.name, args.outdir)
            for p in paths:
                print(p)
            return 0
    except (ConfigError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except StageError as err:
        print(f"stage failed: {err}", file=sys.stderr)
        return 3
    except WavescopeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
