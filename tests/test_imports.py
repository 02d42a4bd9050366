import ast
import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

import wavescope
from wavescope import cwt, dwt, errors, lyapunov, mfdfa, signal_core, spectral, svg, synth


def test_import_leaves_heavy_scipy_modules_out(fresh_python):
    # scipy.stats, scipy.signal, scipy.spatial and scipy.special dominate
    # the import time; the package needs scipy.spatial only for the
    # Lyapunov estimator, scipy.special only for CWT significance levels,
    # and never scipy.signal or scipy.stats: the bouncing-ball ring-down
    # and the MFDFA moments are computed here.  xml.sax.saxutils would
    # pull in the network and mail modules, about 40 ms; svg escapes its
    # labels itself.
    heavy = ("scipy.stats", "scipy.signal", "scipy.spatial", "scipy.special",
             "xml.sax", "urllib.request", "http.client", "email", "ssl")
    code = f"import sys, wavescope; print(sorted(m for m in {heavy!r} if m in sys.modules))"

    assert fresh_python(code).stdout.strip() == "[]"


def test_bounce_render_and_mfdfa_load_no_scipy_and_stay_small(fresh_python):
    # Rendering a bounce series and fitting its h(q) once imported
    # scipy.signal (lfilter) and scipy.special (logsumexp), which pulled in
    # scipy.stats too, and grew a fresh process's RSS by about 73 MiB; it
    # reads about 5 MiB without them.
    code = (
        "ts = synth.gen_bouncing_ball(synth.BounceParams(9.0, 25.0, 0.7, 400, seed=2))\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore')\n"
        "    mfdfa.generalized_hurst(mfdfa.fluctuation_function(profile(ts.samples)))\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.special', 'scipy.stats')"
        " if m in sys.modules))"
    )
    setup = "import warnings\nfrom wavescope import mfdfa, synth\nfrom wavescope.signal_core import profile"
    run = fresh_python(code, setup)
    assert run.stdout.strip() == "[]"
    assert run.maxrss_kib < 20 * 1024


def test_python_dash_m_runs_the_cli_without_a_warning(fresh_python):
    # runpy.run_module is what ``python -m wavescope --help`` runs,
    # including its check for a module imported before it is executed.
    out = fresh_python(
        "import runpy\n"
        "sys.argv = ['wavescope', '--help']\n"
        "runpy.run_module('wavescope', run_name='__main__', alter_sys=True)"
    )
    assert out.stdout.startswith("usage: wavescope")
    assert "RuntimeWarning" not in out.stderr


# Each of these was a keyword that only tests set; its value is now a
# named module constant (or, for map_lyapunov, p.n_impacts alone).
# profile's sample_rate fed only a field that nothing read, and a CSV
# header alone names load_csv's time column.  dwt_reconstruct's keep, a
# selector-string set, gave way to None detail bands.  The analysis grids
# are the package's own: cwt_morlet's scales and fluctuation_function's
# are always the default ladders, estimate_delay scans up to n // 4 lags,
# a red global_power always estimates its AR(1) coefficient from the
# scalogram's own samples, and write_table always ends its lines with a
# line feed.  gen_binomial_cascade is deterministic: it takes no seed.
# The DWT has one wavelet, the 4-tap Daubechies filter, so no transform
# takes a wavelet, and denoise always decomposes to max(1,
# dwt_max_level(n) - 2) levels and kills the finest half, rounded up.
_FIXED_SETTINGS = [
    (cwt.global_power, "siglevel"),
    (spectral.dominant_frequency, "exclude_dc"),
    (mfdfa.fluctuation_function, "min_segments"),
    (mfdfa.default_scales, "min_segments"),
    (mfdfa.fluctuation_function, "wavelet"),
    (mfdfa.default_scales, "wavelet"),
    (mfdfa.segment_variance, "min_segments"),
    (mfdfa.generalized_hurst, "min_scales"),
    (mfdfa.generalized_hurst, "r2_floor"),
    (dwt.dwt_reconstruct, "keep"),
    (svg.heatmap, "max_cols"),
    (signal_core.column_bins, "max_cols"),
    (lyapunov.map_lyapunov, "n_impacts"),
    (lyapunov._mutual_information, "bins"),
    (lyapunov._linear_region, "r2_floor"),
    (synth.gen_bouncing_ball, "burn_in"),
    (synth.gen_binomial_cascade, "seed"),
    (signal_core.profile, "sample_rate"),
    (signal_core.load_csv, "time_column"),
    (cwt.cwt_morlet, "scales"),
    (mfdfa.fluctuation_function, "scales"),
    (lyapunov.estimate_delay, "max_lag"),
    (cwt.global_power, "ar1"),
    (cwt.global_power, "series"),
    (signal_core.write_table, "eol"),
    (cwt.cwt_morlet, "omega0"),
    (mfdfa.fluctuation_function, "q_values"),
    (dwt.dwt_decompose, "spec"),
    (dwt.dwt_max_level, "spec"),
    (dwt.extract_fluctuation, "spec"),
    (dwt.denoise, "spec"),
    (dwt.denoise, "levels"),
    (dwt.denoise, "kill_count"),
]


@pytest.mark.parametrize(
    "func, name", _FIXED_SETTINGS, ids=[f"{f.__name__}-{n}" for f, n in _FIXED_SETTINGS]
)
def test_fixed_settings_are_constants_not_parameters(func, name):
    assert name not in inspect.signature(func).parameters


_PACKAGE = Path(wavescope.__file__).resolve().parent
_TREES = {
    p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(_PACKAGE.glob("*.py"))
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _bound(body):
    """Names that the statements of ``body`` define or assign."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _private_definitions(tree):
    """Underscore names a module defines at module level or as a class
    member: a method, a class attribute or an assigned ``self._x``."""
    names = _bound(tree.body)
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        names |= _bound(cls.body)
        names |= {
            n.attr for n in ast.walk(cls)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        }
    return {n for n in names if _private(n)}


def _private_reads(module, defined):
    """``module`` importing another module's underscore name, or reading
    one as ``x._name``, each as ``"module reads owner._name"``."""
    tree = _TREES[module]
    others = {
        name: owner for owner, names in defined.items() if owner != module for name in names
    }
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    reads.add(f"{module} reads {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in aliases:
            reads.add(f"{module} reads {aliases[node.value.id]}.{node.attr}")
        elif node.attr in others and node.attr not in defined[module]:
            reads.add(f"{module} reads {others[node.attr]}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_name():
    # Modules share helpers by public names that one module owns; an
    # underscore name stays inside the module that defines it.
    defined = {name: _private_definitions(tree) for name, tree in _TREES.items()}
    assert {"_bands", "_outside_slices", "_spec", "_morlet_hat"} <= defined["cwt"]
    reads = set().union(*(_private_reads(name, defined) for name in _TREES))
    assert sorted(reads) == [], "; ".join(sorted(reads))


def test_the_scalogram_is_read_only_through_its_rows():
    # Scalogram.rows is the one reader of coefficients.  The S x n grid
    # ``coeffs`` (16 S n bytes), its ``_coeffs`` cache and the (scale,
    # time) ``reliable_mask`` had no caller and stay out of the package.
    removed = {"coeffs", "_coeffs", "reliable_mask"}
    defined = set()
    for tree in _TREES.values():
        defined |= _bound(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined |= _bound(node.body)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
    assert "rows" in defined and "power_summary" in defined  # the walk sees methods
    assert sorted(removed & defined) == []
    assert not any(hasattr(cwt.Scalogram, name) for name in removed)


def _attribute_sites(tree, names):
    """``"function.attr"`` for each read of an attribute in ``names``,
    named by the chain of functions that encloses it."""
    sites = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, where + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr in names:
                sites.add(".".join(where + (child.attr,)))
            visit(child, where)

    visit(tree, ())
    return sites


def test_whole_file_reads_and_writes_stay_at_small_file_sites():
    # CSV tables and SVG plots are written, and artifacts hashed, a block
    # at a time.  A whole-file write_text, write_bytes or read_bytes is
    # left only where the file is small: the JSON writer and the marker
    # of a failed stage.  Any other site would build a whole artifact in
    # memory again.
    whole = {"write_text", "write_bytes", "read_bytes"}
    sites = {
        f"{module}.{site}"
        for module, tree in _TREES.items()
        for site in _attribute_sites(tree, whole)
    }
    assert sorted(sites) == ["cli._attempt.write_text", "figures.write_json.write_text"]


def test_every_public_callable_has_a_caller():
    # Each module's __all__ callable is loaded by name somewhere in the
    # package (outside the re-exports of __init__) or called by the
    # benchmark: ``name(`` in its sources, not the name in a string.
    loaded = set()
    for name, tree in _TREES.items():
        if name != "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
    bench = "".join(
        p.read_text(encoding="utf-8") for p in sorted((_PACKAGE.parents[1] / "bench").glob("*.py"))
    )
    assert "map_lyapunov(" in bench  # the benchmark's sources were read
    uncalled = []
    for name, tree in sorted(_TREES.items()):
        if name == "__init__" or "__all__" not in _bound(tree.body):
            continue
        module = importlib.import_module(f"wavescope.{name}")
        for attr in module.__all__:
            if callable(getattr(module, attr)) and attr not in loaded:
                if not re.search(rf"\b{attr}\(", bench):
                    uncalled.append(f"{name}.{attr}")
    assert uncalled == [], "no caller: " + ", ".join(uncalled)


# Deleted exported callables: the first four had no caller outside tests;
# the wrapper types Profile and MfdfaConfig, and default_q_values, gave way
# to a plain profile array, fluctuation_function's keywords and q_grid.
# bounce_map_jacobian is the tests' Jacobian oracle (tests/map_oracle.py).
# CascadeParams was built only to call gen_binomial_cascade, which now
# takes its two numbers as keywords.  q_grid gave way to the one grid
# mfdfa.Q_VALUES.  daubechies and WaveletSpec built and held the filter
# family, of which only the 4-tap member was used: it is dwt.SCALING,
# with MAX_VANISHING_MOMENTS, the family's order bound, gone too.
_REMOVED_CALLABLES = [
    (signal_core, "detrend_mean"),
    (spectral, "alpha_from_hurst"),
    (synth, "fgn_lag1_autocorr"),
    (cwt, "pointwise_significance"),
    (signal_core, "Profile"),
    (mfdfa, "MfdfaConfig"),
    (mfdfa, "default_q_values"),
    (synth, "bounce_map_jacobian"),
    (synth, "CascadeParams"),
    (mfdfa, "q_grid"),
    (dwt, "daubechies"),
    (dwt, "WaveletSpec"),
    (dwt, "MAX_VANISHING_MOMENTS"),
]


@pytest.mark.parametrize(
    "module, name", _REMOVED_CALLABLES, ids=[n for _, n in _REMOVED_CALLABLES]
)
def test_removed_callables_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(wavescope, name)
    assert name not in wavescope.__all__


# Result fields, properties and exception attributes that no caller read:
# each is derived from what the result holds or from a constant.
# PowerSpectrum.df is sample_rate / n; GlobalPower.n_averaged is
# power_summary().counts and its background the caller's argument;
# PhaseSeries.amplitude is |Scalogram.rows| at the scale; a pyramid's depth
# is len(details) and its filter is dwt's one; a FluctuationTable's levels
# are 1..len(scales) of that wavelet, of support 4; and the messages of
# OutOfRangeError and StageError state the value and the stage.
# PowerSummary.mean_relative was read only by a figure writer, which now
# runs the cwt stage and writes its mean_power.
_REMOVED_FIELDS = [
    (spectral.PowerSpectrum, "df"),
    (cwt.GlobalPower, "n_averaged"),
    (cwt.GlobalPower, "background"),
    (cwt.PhaseSeries, "amplitude"),
    (dwt.DwtDecomposition, "levels"),
    (dwt.DwtDecomposition, "spec"),
    (mfdfa.FluctuationTable, "levels"),
    (mfdfa.FluctuationTable, "wavelet_support"),
    (errors.OutOfRangeError, "value"),
    (errors.StageError, "stage"),
    (cwt.PowerSummary, "mean_relative"),
]


@pytest.mark.parametrize(
    "owner, name", _REMOVED_FIELDS, ids=[f"{o.__name__}-{n}" for o, n in _REMOVED_FIELDS]
)
def test_removed_fields_are_gone(owner, name):
    assert not hasattr(owner, name)
    if dataclasses.is_dataclass(owner):
        assert name not in {f.name for f in dataclasses.fields(owner)}
    else:  # an exception takes its message alone
        assert not hasattr(owner("message"), name)


# Per-layer names that the benchmark derives rather than traces: a
# scalogram's size, file sizes, its own seeded probe, its overhead and its
# checks.
_DERIVED_TARGETS = re.compile(
    r"cwt\.coeff_bytes$|svg\.\w+\.bytes$|cli\.artifact_bytes\.|lyapunov\.seeded_fbm\.|trace\.|check\."
)


def test_every_traced_benchmark_target_names_a_function_that_exists():
    # A traced run (--trace 1) fails when a per-layer target goes
    # unmeasured, so a target whose function or stage was deleted or
    # renamed would show only then.  The benchmark traces each public
    # function in a module's __all__ as <module>.<function> and each
    # stage of the run as cli.stage.<name>.
    from wavescope import cli

    reference = _PACKAGE.parents[1] / "bench" / "reference.json"
    targets = json.loads(reference.read_text(encoding="utf-8"))["per_layer_targets"]
    assert "dwt.denoise.s" in targets  # the reference was read
    missing = []
    for name in targets:
        if _DERIVED_TARGETS.match(name):
            continue
        module_name, attr, *_ = name.split(".")
        if module_name == "cli" and attr == "stage":
            if name.split(".")[2] not in cli._STAGE_FUNCS:
                missing.append(name)
            continue
        module = importlib.import_module(f"wavescope.{module_name}")
        fn = getattr(module, attr, None)
        if not (attr in module.__all__ and inspect.isfunction(fn)
                and fn.__module__ == module.__name__):
            missing.append(name)
    assert missing == [], "no such function or stage: " + ", ".join(missing)
