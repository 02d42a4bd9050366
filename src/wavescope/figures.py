"""The paper's figures 7-12 as presets on synthetic stand-ins, and the
artifact writer and plot helpers that the pipeline stages share.

A preset is data: a stand-in series, a list of stages in the ``run``
config schema, and an extra writer or None (see ``FIGURES``).
``cli.figure_repro`` runs the stages through ``run``'s own stage loop, so
a figure is the files its stages write, plus those of its extra writer
(fig11, which compares three series, has only that).  Stages, presets
and ``phase`` write every file through ``writer``; ``cli`` imports it
and the helpers below by their public names.  Everything written is
deterministic: JSON has sorted keys and repr-roundtrip floats, CSV
numbers use repr, SVG uses fixed precision, and no artifact carries a
timestamp.  Nothing here imports ``cli``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import cwt as cwtmod
from . import mfdfa, svg, synth
from .signal_core import TimeSeries, profile, write_table

__all__ = ["FIGURE_NAMES"]


# --------------------------------------------------------------------------
# artifact helpers


def write_json(path: Path, obj) -> None:
    """Write ``obj``, of plain Python values only, as sorted, indented JSON."""
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


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


def spectrum_plot(path, ps, title, guides=()):
    """Log-log spectrum with a dashed guide line per ``(fit, slope, label)``.

    A guide runs across the fitted band, anchored at the band's centre on
    the fit; its slope is the fit's own when ``slope`` is None.
    """
    nz = ps.freqs > 0
    curves = [(ps.freqs[nz], ps.power[nz], "power")]
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


def fq_plot(path, table, rows):
    """Log-log F_q(s) curves for the moment orders at ``rows``."""
    curves = [
        (table.scales.astype(float), table.fluctuation[i], f"q={table.q_values[i]:g}")
        for i in rows
    ]
    return svg.line_plot(
        path, curves, xlabel="scale (samples)", ylabel="F_q(s)",
        title="fluctuation function", xlog=True, ylog=True,
    )


def scalogram_plot(path, sg):
    """Heatmap of log10 power relative to the variance, cone of influence
    drawn, from the column bins of ``sg.power_summary(heatmap=True)``."""
    return svg.heatmap(
        path,
        sg.times,
        sg.periods,
        sg.power_summary(heatmap=True).heatmap,
        xlabel="time (s)",
        ylabel="period (s)",
        title="scalogram, log10 power / variance",
        ylog=True,
        overlay=(sg.times, sg.coi),
    )


# --------------------------------------------------------------------------
# figure presets

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


def _profiled_noise() -> TimeSeries:
    """The profile of 1/f noise, whose spectrum falls about as f^-3."""
    ts = synth.gen_power_law_noise(1.0, 2**14, seed=7, sample_rate=50000.0)
    return TimeSeries(profile(ts.samples), ts.sample_rate)


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


def _cascade_closed_form(emit) -> None:
    """The cascade's h(q) in closed form, on the ``mfdfa`` stage's q grid."""
    q = mfdfa.Q_VALUES
    closed = np.array([synth.cascade_hurst(0.75, v) for v in q])
    emit("fig9_closed_form.csv", write_table, ["q", "h_closed_form"], [q, closed])


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


#: name -> (stand-in series maker, stages in the ``run`` config schema,
#: extra writer or None); ``cli.figure_repro`` runs them.  fig11 compares
#: three series, so it is an extra writer alone.
FIGURES = {
    "fig7": (_profiled_noise, [{"stage": "spectrum"},
                               {"stage": "fit", "f_lo": 330.0, "f_hi": 8000.0}], None),
    "fig8": (_four_tone_series, [{"stage": "cwt"}], None),
    "fig9": (lambda: synth.gen_binomial_cascade(0.75, 14),
             [{"stage": "mfdfa", "fit_lo": 16.0, "fit_hi": 1024.0}], _cascade_closed_form),
    "fig10": (_four_tone_series, [{"stage": "globalpower", "max_peaks": 4}], None),
    "fig11": (None, [], _fig11),
    "fig12": (_two_regime_noise, [
        {"stage": "spectrum"},
        {"stage": "heisenberg", "f_lo": 20.0, "f_hi": 400.0, "regime": "neutral"},
        {"stage": "heisenberg", "f_lo": 800.0, "f_hi": 20000.0, "regime": "dissipation"},
    ], None),
}
FIGURE_NAMES = tuple(FIGURES)
