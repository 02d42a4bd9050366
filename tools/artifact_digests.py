"""Build a fixed set of wavescope artifacts and print ``sha256  path`` for each.

Usage::

    PYTHONPATH=src python tools/artifact_digests.py OUTDIR

The set is the byte comparison for a change that must leave every
artifact as it was: run the script on both trees, each into its own
OUTDIR, and compare the printed lines (``diff`` or ``sort | uniq -u``).
It holds

- every figure preset (``figure-repro``), each into its own directory:
  the files that its stages write, named ``<fig>_<NN>_<stage>_<file>``,
  and its extra writer's files (fig9's ``fig9_closed_form.csv``, fig11's
  phase comparisons);
- one ``synth`` CSV of every input kind, two of them sines;
- one ``run`` of 2^14 fBm through every stage, with both denoise rules
  and a white and a red ``globalpower``, its ``input.csv`` and
  ``report.json`` included;
- one ``run`` of a binomial cascade;
- one ``run`` of 2^12 fBm with the declared choices that the others
  leave out: a numeric ``heisenberg`` regime, ``cwt`` with ``norm:
  "eq4"`` and a ``lyapunov`` delay given as an integer;
- ``phase`` on the two sine CSVs;
- the one-shots ``denoise --rule soft_threshold`` and ``globalpower``
  on the fBm run's ``input.csv``.

Every step runs through ``wavescope.cli.main`` and must exit 0.  Paths
are printed relative to OUTDIR, in sorted order; the run configs that
the script writes are left out.  It takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from wavescope.cli import main
from wavescope.figures import FIGURE_NAMES

#: The 2^14 fBm input of the full run and of the one-shots.
FBM = {"kind": "fbm", "hurst": 0.7, "n": 2**14, "sample_rate": 100.0}

#: The full run's stages: each stage at least once, both denoise rules,
#: and a white and a red global power.  The analyses come first, so that
#: they read the generated series, not a denoised one.
FBM_PIPELINE = [
    {"stage": "spectrum", "window": "hann"},
    {"stage": "fit", "f_lo": 0.5, "f_hi": 20.0},
    {"stage": "heisenberg", "f_lo": 0.5, "f_hi": 20.0},
    {"stage": "mfdfa", "difference": True},
    {"stage": "cwt"},
    {"stage": "globalpower"},
    {"stage": "globalpower", "background": "red", "max_peaks": 3},
    {"stage": "lyapunov"},
    {"stage": "denoise"},
    {"stage": "denoise", "rule": "soft_threshold"},
]

#: name -> run config, without its output_dir (OUTDIR / name).
RUNS = {
    "run_fbm": {
        "input": {"kind": "synth", "synth": FBM},
        "pipeline": FBM_PIPELINE,
        "seed": 1,
        "formats": {"svg": True},
    },
    "run_cascade": {
        "input": {"kind": "synth", "synth": {"kind": "cascade", "a": 0.75, "levels": 14}},
        "pipeline": [{"stage": "mfdfa", "fit_lo": 16.0, "fit_hi": 1024.0}, {"stage": "spectrum"}],
        "formats": {"svg": True},
    },
    # A numeric regime is the target slope itself.
    "run_choices": {
        "input": {"kind": "synth", "synth": {**FBM, "n": 2**12}},
        "pipeline": [
            {"stage": "heisenberg", "f_lo": 0.5, "f_hi": 20.0, "regime": -2.0},
            {"stage": "cwt", "norm": "eq4"},
            {"stage": "lyapunov", "delay": 4},
        ],
        "seed": 2,
        "formats": {"svg": True},
    },
}

#: CSV name under OUTDIR / synth -> the ``synth`` flags that build it.
SYNTHS = {
    "fbm.csv": ["--kind", "fbm", "--hurst", "0.3", "--n", "1024", "--sample-rate", "10",
                "--seed", "4"],
    "powerlaw.csv": ["--kind", "powerlaw", "--beta", "1.5", "--n", "1024",
                     "--sample-rate", "10", "--seed", "2"],
    "sines_a.csv": ["--kind", "sines", "--component", "0.5,1,0", "--component", "2,0.5,1",
                    "--sample-rate", "20", "--n", "2048"],
    "sines_b.csv": ["--kind", "sines", "--component", "0.5,1,0.7", "--sample-rate", "20",
                    "--n", "2048"],
    "bounce.csv": ["--kind", "bounce", "--amplitude", "9", "--drive-freq", "25",
                   "--restitution", "0.7", "--n-impacts", "200", "--seed", "2"],
    "cascade.csv": ["--kind", "cascade", "--a", "0.7", "--levels", "10"],
}


def steps(out: Path) -> list[list[str]]:
    """The argv of every step, in the order they run; a ``run`` step reads
    the config that :func:`write_configs` writes for it."""
    argvs = [
        ["figure-repro", "--name", name, "--outdir", str(out / "figures" / name)]
        for name in FIGURE_NAMES
    ]
    argvs += [
        ["synth", *flags, "--out", str(out / "synth" / name)] for name, flags in SYNTHS.items()
    ]
    argvs += [["run", "--config", str(out / "configs" / f"{name}.json")] for name in RUNS]
    argvs.append(
        ["phase", "--input-a", str(out / "synth" / "sines_a.csv"),
         "--input-b", str(out / "synth" / "sines_b.csv"), "--period", "0.5",
         "--outdir", str(out / "phase"), "--svg"]
    )
    fbm_csv = str(out / "run_fbm" / "input.csv")
    argvs.append(
        ["denoise", "--input", fbm_csv, "--rule", "soft_threshold",
         "--outdir", str(out / "denoise")]
    )
    argvs.append(["globalpower", "--input", fbm_csv, "--outdir", str(out / "globalpower"), "--svg"])
    return argvs


def write_configs(out: Path) -> None:
    """Write each of RUNS to OUTDIR / configs / <name>.json."""
    configs = out / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    for name, cfg in RUNS.items():
        text = json.dumps({**cfg, "output_dir": str(out / name)}, indent=2)
        (configs / f"{name}.json").write_text(text + "\n", encoding="utf-8")


def digests(out: Path) -> list[str]:
    """``sha256  path`` of every file under ``out`` but the configs."""
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out)
        if rel.parts[0] != "configs":
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel.as_posix()}")
    return lines


def build(out: Path) -> None:
    """Run every step into ``out``; a step that does not exit 0 stops the build."""
    (out / "synth").mkdir(parents=True, exist_ok=True)
    write_configs(out)
    for argv in steps(out):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: artifact_digests.py OUTDIR")
    outdir = Path(sys.argv[1]).resolve()
    build(outdir)
    print("\n".join(digests(outdir)))
