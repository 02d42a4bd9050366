"""The paper's figures 7-12 rebuilt from synthetic stand-ins, and the
artifact writer and plot helpers that the pipeline stages share.

Stages, presets and ``phase`` write every file through ``writer``;
``cli`` imports it and the helpers below by their public names, and
``__all__`` lists only the figure entry points.  Everything written is
deterministic: JSON has sorted keys and repr-roundtrip floats, CSV
numbers use repr, SVG uses fixed precision, and no artifact carries a
timestamp.  Nothing here imports ``cli``.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from . import cwt as cwtmod
from . import mfdfa, spectral, svg, synth
from .errors import ConfigError
from .signal_core import TimeSeries, profile, write_table

__all__ = ["FIGURE_NAMES", "figure_repro"]


# --------------------------------------------------------------------------
# artifact helpers


def plain(obj):
    """Recursively convert numpy containers so json sees pure Python."""
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def write_json(path: Path, obj) -> None:
    path.write_text(
        json.dumps(plain(obj), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )



def writer(outdir: Path, prefix: str, wanted, written: list):
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


def spectrum_plot(path, ps, title, guides=(), label="power"):
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


def write_fq_table(path, table):
    header = ["scale"] + [f"q={v:g}" for v in table.q_values]
    cols = [table.scales.astype(float)] + [
        table.fluctuation[i] for i in range(table.q_values.size)
    ]
    write_table(path, header, cols)


def fq_plot(path, table, rows, xlabel, title):
    """Log-log F_q(s) curves for the moment orders at ``rows``."""
    curves = [
        (table.scales.astype(float), table.fluctuation[i], f"q={table.q_values[i]:g}")
        for i in rows
    ]
    return svg.line_plot(
        path, curves, xlabel=xlabel, ylabel="F_q(s)", title=title, xlog=True, ylog=True
    )


def scalogram_plot(path, sg, title):
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
    samples = synth.fourier_noise(amp, np.random.default_rng(11))
    return TimeSeries(samples, rate, label="two-regime noise")


def _fig7(emit) -> None:
    ts = synth.gen_power_law_noise(1.0, 2**14, seed=7, sample_rate=50000.0)
    prof = profile(ts)
    walk = TimeSeries(prof, ts.sample_rate)
    ps = spectral.power_spectrum(walk)
    fit = spectral.fit_power_law(ps, 330.0, 8000.0)
    hurst = spectral.hurst_from_alpha(min(fit.alpha_abs, 2.999))
    t = np.arange(prof.size) / ts.sample_rate
    emit(
        "fig7a.svg",
        svg.line_plot,
        [(t, prof, "profile")],
        xlabel="time (s)",
        ylabel="cumulative sum",
        title="profile of the series",
    )
    emit(
        "fig7b.svg",
        spectrum_plot,
        ps,
        "power law of the profile",
        [(fit, None, f"slope {fit.slope:.2f}")],
        label="profile power",
    )
    emit("fig7.csv", write_table, ["freq_hz", "power"], [ps.freqs, ps.power])
    info = {"alpha_abs": fit.alpha_abs, "slope": fit.slope, "hurst": hurst}
    emit("fig7.json", write_json, info)


def _fig8(emit) -> None:
    ts = _four_tone_series()
    sg = cwtmod.cwt_morlet(ts)
    emit("fig8.svg", scalogram_plot, sg, "scalogram with cone of influence")
    emit(
        "fig8.csv",
        write_table,
        ["period_s", "mean_power_outside_coi"],
        [sg.periods, sg.power_summary(heatmap=True).mean_relative],
    )


def _fig9(emit) -> None:
    ts = synth.gen_binomial_cascade(synth.CascadeParams(0.75, 14))
    table = mfdfa.fluctuation_function(profile(ts))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = mfdfa.generalized_hurst(
            table, fit_range=(16.0, table.n / 16.0)
        )
    sel = np.flatnonzero(np.isin(table.q_values, (-10, -5, -2, 0, 2, 5, 10)))
    emit(
        "fig9a.svg",
        fq_plot,
        table,
        sel,
        "scale s (samples)",
        "fluctuation functions of the cascade",
    )
    emit("fig9a.csv", write_fq_table, table)
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
        write_table,
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
    emit("fig10a.csv", write_table, ["period_s", "power"], [gp.periods, gp.power])
    emit("fig10a.json", write_json, {"dominant_periods_s": sorted(peaks)})
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
        write_table,
        ["period_s", "power", "significance_95", "significant"],
        [gp.periods, gp.power, gp.significance_95, sig],
    )


def phase_comparison(sga, sgb, period: float):
    """Phase of ``sga`` minus phase of ``sgb`` at ``sga``'s scale nearest ``period``.

    Nearness is measured on the log axis, as ``phase_at_scale`` does.
    Returns the analysed period, the comparison and its synchronized
    segments as (start, end) time bands.
    """
    pa = cwtmod.phase_at_scale(sga, period / sga.fourier_factor)
    cmp_ = cwtmod.phase_difference(pa, cwtmod.phase_at_scale(sgb, pa.scale))
    bands = [(float(cmp_.times[a]), float(cmp_.times[b - 1])) for a, b in cmp_.segments]
    return pa.period, cmp_, bands


def emit_phase(emit, svg_name, csv_name, cmp_, bands, label, title) -> None:
    """Write a phase comparison as a line plot with its synchronized
    ``bands`` shaded, then as a ``time_s,delta_phi_rad`` table."""
    emit(
        svg_name,
        svg.line_plot,
        [(cmp_.times, cmp_.delta, label)],
        xlabel="time (s)",
        ylabel="delta phi (rad)",
        title=title,
        bands=bands,
    )
    emit(csv_name, write_table, ["time_s", "delta_phi_rad"], [cmp_.times, cmp_.delta])


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
        _, cmp_, bands = phase_comparison(sg, sga, period)
        cmps[tag] = cmp_
        emit_phase(
            emit, f"fig11_{tag}.svg", f"fig11_{tag}.csv", cmp_, bands,
            "phase difference", f"phase difference, {tag} pair",
        )
    emit(
        "fig11.json",
        write_json,
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
        spectrum_plot,
        ps,
        "spectral regimes",
        [
            (neutral.fit, neutral.target, "-5/3 neutral"),
            (dissip.fit, dissip.target, "-7 dissipation"),
        ],
    )
    emit("fig12.csv", write_table, ["freq_hz", "power"], [ps.freqs, ps.power])
    emit(
        "fig12.json",
        write_json,
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
    _FIGURES[name](writer(outdir, "", lambda f: f.startswith(name), written))
    return written
