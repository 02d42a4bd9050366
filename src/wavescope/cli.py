"""Command line interface and config-driven pipeline runner.

This module holds the config schema and its validation, the input
builder, the pipeline stages, ``run`` and the argv handling; each
subcommand names its handler and ``main`` calls it.  The figure presets
and the artifact writer live in ``figures``; ``figure_repro`` runs a
preset's stages through ``run``'s own loop.  Identical config and seed
produce byte-identical artifacts, which the run report makes checkable
by hashing every file it writes.

Exit codes: 0 success, 2 configuration problem, 3 stage failure,
4 filesystem problem.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
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
from .figures import (
    FIGURE_NAMES, FIGURES, emit_phase, fq_plot, phase_comparison,
    scalogram_plot, spectrum_plot, write_fq_table, write_json, writer,
)
from .signal_core import TimeSeries, load_csv, profile, write_csv, write_table

__all__ = ["RunConfig", "RunReport", "validate_config", "run", "figure_repro", "main"]


# --------------------------------------------------------------------------
# serialization helpers


#: Bytes that _sha256 reads and hashes at a time.
HASH_BLOCK = 2**16


def _sha256(path: Path) -> str:
    """Hex sha256 of a file, read ``HASH_BLOCK`` bytes at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


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

#: The run's seed; a synthetic kind that draws random numbers uses it
#: unless the kind's own seed is given.
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
    ),
    "bounce": (
        _Param("amplitude", float),
        _Param("drive_freq", float),
        _Param("restitution", float),
        _Param("n_impacts", int),
        _Param("sample_rate", float, None),
        _SEED,
    ),
    "cascade": (_Param("a", float), _Param("levels", int)),
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
    """What a run produced: artifact paths with content hashes, and the
    stage summaries that :func:`run` describes."""

    artifacts: list
    summary: dict


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


def _build_input(cfg: RunConfig) -> TimeSeries:
    """The run's input: each declared param is a keyword of its reader or generator."""
    inp = cfg.input
    if inp["kind"] == "csv":
        return load_csv(**_with_defaults(inp, _INPUT_PARAMS["csv"]))
    kind = inp["synth"]["kind"]
    spec = _with_defaults(inp["synth"], _SYNTH_PARAMS[kind])
    if "seed" in spec and spec["seed"] is None:
        spec["seed"] = cfg.seed
    if kind == "fbm":
        increments = spec.pop("increments")
        ts = synth.gen_fbm(**spec)
        if increments:
            ts = TimeSeries(np.diff(ts.samples), ts.sample_rate, label=ts.label)
        return ts
    if kind == "bounce":
        rate = spec.pop("sample_rate")
        return synth.gen_bouncing_ball(synth.BounceParams(**spec), sample_rate=rate)
    gen = {"powerlaw": synth.gen_power_law_noise, "sines": synth.gen_sine_mix,
           "cascade": synth.gen_binomial_cascade}[kind]
    return gen(**spec)


# --------------------------------------------------------------------------
# pipeline stages
#
# Stage contract: ``_stage_x(ts, params, emit, shared) -> (ts, info)``.  A
# stage gets the series and its declared params with defaults filled in.
# It writes every file through ``emit`` (see writer), inside the call, so
# a failing write fails the stage and the stage's arrays die on return.
# It reads a result that another stage may also need, a spectrum or a
# Morlet scalogram, through ``shared`` (see _Shared).  It returns the
# series for the next stage and its summary entry.  A stage that returns a
# new series calls ``shared.drop()`` first: the held result can match no
# later call, since the match is by ``is``.


class _Shared:
    """The one result that the stages of a run share.

    ``shared(fn, ts, **kwargs)`` returns ``fn(ts, **kwargs)``.  It calls
    ``fn`` only when ``fn`` or the series (both compared with ``is``) or
    a keyword differs from the held call, and drops the held result
    first, so at most one is alive.  Callers name ``fn`` on its module at
    the call (``spectral.power_spectrum``, ``cwtmod.cwt_morlet``), so a
    wrapped module attribute sees every call.  A held spectrum is O(n),
    a held scalogram O(n_fft + S HEATMAP_COLS) with its binned pass.
    ``drop()`` lets the held result go.
    """

    _held = None  # (fn, ts, kwargs, result)

    def __call__(self, fn, ts, **kwargs):
        held = self._held
        if not (held and held[0] is fn and held[1] is ts and held[2] == kwargs):
            held = self._held = None  # no reference left while fn runs
            held = self._held = (fn, ts, kwargs, fn(ts, **kwargs))
        return held[3]

    def drop(self):
        self._held = None


def _stage_denoise(ts, params, emit, shared):
    """Wavelet denoising."""
    shared.drop()
    cleaned = dwt.denoise(
        ts.samples,
        dwt.daubechies(params["vanishing_moments"]),
        levels=params["levels"],
        rule=params["rule"],
        kill_count=params["kill_count"],
    )
    out = TimeSeries(cleaned, ts.sample_rate, label=ts.label)
    emit("denoised.csv", lambda path: write_csv(out, path))
    return out, {
        "rule": params["rule"],
        "residual_rms": float(np.sqrt(np.mean((ts.samples - cleaned) ** 2))),
    }


def _stage_spectrum(ts, params, emit, shared):
    """One-sided power spectrum."""
    ps = shared(spectral.power_spectrum, ts, window=params["window"])
    emit("spectrum.csv", write_table, ["freq_hz", "power"], [ps.freqs, ps.power])
    emit("spectrum.svg", spectrum_plot, ps, "power spectrum")
    return ts, {
        "dominant_frequency_hz": spectral.dominant_frequency(ps),
        "n_bins": int(ps.freqs.size),
    }


def _stage_fit(ts, params, emit, shared):
    """Power-law fit of the spectrum."""
    ps = shared(spectral.power_spectrum, ts, window="none")
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
    emit("fit.json", write_json, info)
    guide = (fit, None, f"slope {fit.slope:.3g}")
    emit("fit.svg", spectrum_plot, ps, "power-law fit", [guide])
    return ts, info


def _stage_heisenberg(ts, params, emit, shared):
    """Spectral regime comparison."""
    ps = shared(spectral.power_spectrum, ts, window="none")
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
    emit("heisenberg.json", write_json, info)
    guide = (res.fit, res.target, f"target {res.target:.3g}")
    emit("heisenberg.svg", spectrum_plot, ps, "spectral regime fit", [guide])
    return ts, info


def _stage_mfdfa(ts, params, emit, shared):
    """Multifractal fluctuation analysis."""
    data = np.diff(ts.samples) if params["difference"] else ts.samples
    # q_grid bounds the grid before building it, so with Q <= MAX_Q_VALUES
    # orders the stage takes O(n log n + n Q) time.
    q = mfdfa.q_grid(params["q_min"], params["q_max"], params["q_step"])
    table = mfdfa.fluctuation_function(profile(data), q_values=q)
    fit_range = (params["fit_lo"], params["fit_hi"])
    table = mfdfa.generalized_hurst(table, fit_range=fit_range)
    emit("fq.csv", write_fq_table, table)
    emit(
        "hurst.csv",
        write_table,
        ["q", "h", "r_squared"],
        [table.q_values, table.hurst, table.fit_r2],
    )
    rows = range(0, table.q_values.size, max(1, table.q_values.size // 6))
    emit("fq.svg", fq_plot, table, rows)
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
    emit("mfdfa.json", write_json, info)
    return ts, info


def _stage_cwt(ts, params, emit, shared):
    """Morlet scalogram summary.

    The table and the heat map read the shared scalogram's one binned
    power_summary pass, which a ``globalpower`` stage of the same series
    and params reads too, in either order: O(S n_fft log n_fft) time and
    O(n_fft + S HEATMAP_COLS) memory.
    """
    sg = shared(cwtmod.cwt_morlet, ts, **params)  # omega0 and norm
    emit(
        "scales.csv",
        write_table,
        ["scale_s", "period_s", "mean_power_outside_coi"],
        [sg.scales, sg.periods, sg.power_summary(heatmap=True).mean_power],
    )
    emit("scalogram.svg", scalogram_plot, sg)
    return ts, {
        "n_scales": int(sg.scales.size),
        "period_range_s": [float(sg.periods[0]), float(sg.periods[-1])],
    }


def _stage_globalpower(ts, params, emit, shared):
    """Time-averaged wavelet power.

    Reads the shared scalogram's one binned power_summary pass, as ``cwt``
    does, and bins the heat map even when no ``cwt`` stage writes it.
    Time and memory as for ``cwt``.
    """
    sg = shared(cwtmod.cwt_morlet, ts, omega0=params["omega0"], norm="l2")
    sg.power_summary(heatmap=True)
    gp = cwtmod.global_power(sg, background=params["background"])
    peaks = cwtmod.dominant_periods(gp, max_count=params["max_peaks"])
    emit(
        "globalpower.csv",
        write_table,
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
        "background": params["background"],
        "n_scales": int(gp.scales.size),
    }
    emit("globalpower.json", write_json, info)
    return ts, info


def _stage_lyapunov(ts, params, emit, shared):
    """Largest Lyapunov exponent.

    O(n log n + L n + m log m + u k log m + max_iter pairs dim + max_iter
    c + p^2) time and O(n dim + 1024 k) memory for n samples, m embedded
    points, u of them without a partner after the first neighbour pass
    (which asks for each point's nearest candidate only), k <= 64
    candidates, L estimate_delay's mutual-information stop lag (0
    when the autocorrelation crosses its floor, at most n / 4; max_iter
    <= 300 by default), c knee breakpoints kept by the closed-form screen
    and p <= max_iter the fitted prefix (see largest_lyapunov).
    """
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
    emit("lyapunov.json", write_json, info)
    emit(
        "divergence.csv",
        write_table,
        ["iteration", "mean_log_distance"],
        [np.arange(res.divergence.size), res.divergence],
    )
    return ts, info


# _run_stages looks each stage up here at call time, so wrapping an entry
# (as the benchmark's traced pass does) instruments every run and figure.
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

_OMEGA0 = _Param("omega0", float, 6.0)

#: Each stage's params, declared once: validate_config checks configs
#: against them, run fills in their defaults and each stage subcommand
#: gets one flag per param.
_STAGE_PARAMS = {
    "denoise": (
        _Param("rule", None, "kill_details", dwt.DENOISE_RULES),
        _Param("levels", int, None),
        _Param("kill_count", int, None),
        _Param("vanishing_moments", int, 2),
    ),
    "spectrum": (_Param("window", None, "none", spectral.WINDOWS),),
    "fit": (_Param("f_lo", float), _Param("f_hi", float)),
    "heisenberg": (
        _Param("f_lo", float),
        _Param("f_hi", float),
        _Param("regime", float, "neutral", tuple(spectral.REGIMES)),
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
        _Param("norm", None, "l2", cwtmod.NORMS),
    ),
    "globalpower": (
        _OMEGA0,
        _Param("background", None, "white", cwtmod.BACKGROUNDS),
        _Param("max_peaks", int, None),
    ),
    "lyapunov": (
        _Param("dim", int, 5),
        _Param("delay", int, "auto", ("auto",)),
        _Param("theiler", int, None),
        _Param("max_iter", int, None),
    ),
}


def _attempt(outdir: Path, stage_name: str, fn, *args):
    """``fn(*args)``; if it raises, a ``<stage_name>.failed`` marker in
    ``outdir`` records the reason and StageError names the stage."""
    try:
        return fn(*args)
    except Exception as err:
        marker = outdir / f"{stage_name}.failed"
        marker.write_text(f"{type(err).__name__}: {err}\n", encoding="utf-8")
        raise StageError(f"stage '{stage_name}': {err}") from err


def _run_stages(ts, pipeline, outdir, wanted, written, prefix="") -> dict:
    """Run ``pipeline``'s stage mappings in turn, from ``ts``, each through
    _attempt, and return their summary.  Stage i writes with the prefix
    ``<prefix><i:02d>_<stage>_``.

    The stages share one result through a _Shared: a spectrum or a
    scalogram, computed once per series and params and held until the next
    shared call, a stage that returns a new series or the end of the loop.
    The summary keeps the first stage of a name under that name and each
    repeat under ``<i:02d>_<stage>``, so ``[fit, fit]`` reports ``fit`` and
    ``01_fit``.
    """
    shared = _Shared()
    summary: dict = {}
    for i, stage in enumerate(pipeline):
        name = stage["stage"]
        params = _with_defaults(stage, _STAGE_PARAMS[name])
        tag = f"{i:02d}_{name}"
        emit = writer(outdir, f"{prefix}{tag}_", wanted, written)
        key = tag if name in summary else name
        ts, summary[key] = _attempt(outdir, name, _STAGE_FUNCS[name], ts, params, emit, shared)
    return summary


def run(cfg: RunConfig) -> RunReport:
    """Execute a validated pipeline; see :func:`validate_config`.

    Raises StageError naming the failing stage; before the raise, a
    ``<stage>.failed`` marker records the reason next to any partial
    output of that stage.  ``cwt`` and ``globalpower`` read one
    ``power_summary`` record, which always bins the heat map, so in either
    order each row's inverse FFT runs once.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary: dict = {}

    def wanted(name):
        return cfg.formats[name.rsplit(".", 1)[1]]

    ts = _attempt(outdir, "input", _build_input, cfg)
    writer(outdir, "", wanted, written)("input.csv", lambda path: write_csv(ts, path))
    summary["input"] = {
        "n": int(ts.samples.size),
        "sample_rate_hz": float(ts.sample_rate),
        "label": ts.label,
    }
    summary.update(_run_stages(ts, cfg.pipeline, outdir, wanted, written))
    report = RunReport(
        artifacts=[
            {"path": p.name, "sha256": _sha256(p)} for p in written
        ],
        summary=summary,
    )
    write_json(
        outdir / "report.json",
        {"artifacts": report.artifacts, "summary": report.summary, "exit_code": 0},
    )
    return report


def figure_repro(name: str, out_dir: str | Path) -> list[Path]:
    """Rebuild one documentation figure: its preset's stages run on the
    stand-in through _run_stages with every format on, each file named
    ``<name>_<NN>_<stage>_<file>``, then its extra writer, if any."""
    if name not in FIGURES:
        raise ConfigError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")
    build, pipeline, extra = FIGURES[name]
    outdir = Path(out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if build is not None:
        _run_stages(build(), pipeline, outdir, lambda f: True, written, f"{name}_")
    if extra is not None:
        extra(writer(outdir, "", lambda f: True, written))
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
    sp.set_defaults(handler=_cmd_synth)

    for name, params in _STAGE_PARAMS.items():
        sp = sub.add_parser(
            name, help=_STAGE_FUNCS[name].__doc__, argument_default=argparse.SUPPRESS
        )
        sp.add_argument("--input", dest="path", required=True, help="input CSV path")
        _add_flags(sp, _INPUT_PARAMS["csv"][1:])  # path comes from --input
        _add_flags(sp, params)
        sp.add_argument("--outdir", required=True)
        sp.add_argument("--svg", action="store_true", default=False)
        sp.set_defaults(handler=_cmd_stage)

    sp = sub.add_parser("phase", help="phase difference of two series")
    sp.add_argument("--input-a", required=True)
    sp.add_argument("--input-b", required=True)
    sp.add_argument("--sample-rate", type=float, default=None)
    sp.add_argument("--period", type=float, required=True,
                    help="analysis period in seconds")
    sp.add_argument("--outdir", required=True)
    sp.add_argument("--svg", action="store_true")
    sp.set_defaults(handler=_cmd_phase)

    sp = sub.add_parser("run", help="execute a JSON pipeline config")
    sp.add_argument("--config", required=True)
    sp.set_defaults(handler=_cmd_run)

    sp = sub.add_parser("figure-repro", help="rebuild a documentation figure")
    sp.add_argument("--name", required=True, choices=FIGURE_NAMES)
    sp.add_argument("--outdir", required=True)
    sp.set_defaults(handler=_cmd_figure)
    return ap


def _cmd_synth(args) -> int:
    spec = {
        k: v for k, v in vars(args).items() if k not in ("command", "handler", "out")
    }
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
    print(f"{name}: " + json.dumps(report.summary[name], sort_keys=True))
    return 0


def _cmd_phase(args) -> int:
    if not (math.isfinite(args.period) and args.period > 0):
        raise ConfigError(f"--period must be finite and > 0, got {args.period}")
    a = load_csv(args.input_a, sample_rate=args.sample_rate)
    b = load_csv(args.input_b, sample_rate=args.sample_rate)
    period, cmp_, bands = phase_comparison(
        cwtmod.cwt_morlet(a), cwtmod.cwt_morlet(b), args.period
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    emit = writer(outdir, "", lambda f: args.svg or not f.endswith(".svg"), [])
    emit_phase(
        emit, "phase.svg", "phase_difference.csv", cmp_, bands,
        "delta phi", "phase difference",
    )
    info = {
        "period_s": period,
        "median_rad": cmp_.median,
        "segments": cmp_.segments,
        "min_duration_s": cmp_.min_duration_s,
    }
    emit("phase.json", write_json, info)
    print(f"phase: median {cmp_.median:+.4f} rad, {len(cmp_.segments)} segment(s)")
    return 0


def _cmd_run(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as err:
            raise ConfigError(f"{args.config}: not UTF-8 text ({err.reason})")
        except RecursionError:
            raise ConfigError(f"{args.config}: nested too deeply")
    cfg = validate_config(raw)
    report = run(cfg)
    print(f"run complete: {len(report.artifacts)} artifact(s) in {cfg.output_dir}")
    return 0


def _cmd_figure(args) -> int:
    for p in figure_repro(args.name, args.outdir):
        print(p)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
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
