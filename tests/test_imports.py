import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavescope
from wavescope import cwt, lyapunov, mfdfa, signal_core, spectral, svg, synth


def _python(*args):
    """Run the interpreter on this checkout's package."""
    src = str(Path(wavescope.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True, env=env
    )


def test_import_leaves_heavy_scipy_modules_out():
    # scipy.stats, scipy.signal, scipy.spatial and scipy.special dominate
    # the import time; the package needs scipy.signal only to render a
    # bouncing-ball series, scipy.spatial only for the Lyapunov estimator,
    # scipy.special only for CWT significance levels and MFDFA moments,
    # and never scipy.stats.  xml.sax.saxutils would pull in the network
    # and mail modules, about 40 ms; svg escapes its labels itself.
    heavy = ("scipy.stats", "scipy.signal", "scipy.spatial", "scipy.special",
             "xml.sax", "urllib.request", "http.client", "email", "ssl")
    code = f"import sys, wavescope; print(sorted(m for m in {heavy!r} if m in sys.modules))"

    assert _python("-c", code).stdout.strip() == "[]"


def test_python_dash_m_runs_the_cli_without_a_warning():
    out = _python("-m", "wavescope", "--help")
    assert out.stdout.startswith("usage: wavescope")
    assert "RuntimeWarning" not in out.stderr


# Each of these was a keyword that only tests set; its value is now a
# named module constant (or, for map_lyapunov, p.n_impacts alone).
_FIXED_SETTINGS = [
    (cwt.global_power, "siglevel"),
    (cwt.pointwise_significance, "siglevel"),
    (spectral.dominant_frequency, "exclude_dc"),
    (mfdfa.MfdfaConfig, "min_segments"),
    (mfdfa.default_scales, "min_segments"),
    (mfdfa.segment_variance, "min_segments"),
    (mfdfa.generalized_hurst, "min_scales"),
    (mfdfa.generalized_hurst, "r2_floor"),
    (svg.heatmap, "max_cols"),
    (signal_core.column_bins, "max_cols"),
    (lyapunov.map_lyapunov, "n_impacts"),
    (synth.gen_bouncing_ball, "burn_in"),
    (synth.CascadeParams, "seed"),
]


@pytest.mark.parametrize(
    "func, name", _FIXED_SETTINGS, ids=[f"{f.__name__}-{n}" for f, n in _FIXED_SETTINGS]
)
def test_fixed_settings_are_constants_not_parameters(func, name):
    assert name not in inspect.signature(func).parameters
