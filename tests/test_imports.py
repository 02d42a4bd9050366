import ast
import importlib
import inspect
import os
import re
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
# profile's sample_rate fed only a field that nothing read.
_FIXED_SETTINGS = [
    (cwt.global_power, "siglevel"),
    (spectral.dominant_frequency, "exclude_dc"),
    (mfdfa.fluctuation_function, "min_segments"),
    (mfdfa.default_scales, "min_segments"),
    (mfdfa.segment_variance, "min_segments"),
    (mfdfa.generalized_hurst, "min_scales"),
    (mfdfa.generalized_hurst, "r2_floor"),
    (svg.heatmap, "max_cols"),
    (signal_core.column_bins, "max_cols"),
    (lyapunov.map_lyapunov, "n_impacts"),
    (synth.gen_bouncing_ball, "burn_in"),
    (synth.CascadeParams, "seed"),
    (signal_core.profile, "sample_rate"),
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
    assert {"_evaluate", "_outside_slices", "_spec", "_mean_or_nan"} <= defined["cwt"]
    reads = set().union(*(_private_reads(name, defined) for name in _TREES))
    assert sorted(reads) == [], "; ".join(sorted(reads))


def test_every_public_callable_has_a_caller():
    # Each module's __all__ callable is loaded by name somewhere in the
    # package (outside the re-exports of __init__) or named by the benchmark.
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
    assert "bounce_map_jacobian" in bench  # the benchmark's sources were read
    uncalled = []
    for name, tree in sorted(_TREES.items()):
        if name == "__init__" or "__all__" not in _bound(tree.body):
            continue
        module = importlib.import_module(f"wavescope.{name}")
        for attr in module.__all__:
            if callable(getattr(module, attr)) and attr not in loaded:
                if not re.search(rf"\b{attr}\b", bench):
                    uncalled.append(f"{name}.{attr}")
    assert uncalled == [], "no caller: " + ", ".join(uncalled)


# Deleted exported callables: the first four had no caller outside tests;
# the wrapper types Profile and MfdfaConfig, and default_q_values, gave way
# to a plain profile array, fluctuation_function's keywords and q_grid.
_REMOVED_CALLABLES = [
    (signal_core, "detrend_mean"),
    (spectral, "alpha_from_hurst"),
    (synth, "fgn_lag1_autocorr"),
    (cwt, "pointwise_significance"),
    (signal_core, "Profile"),
    (mfdfa, "MfdfaConfig"),
    (mfdfa, "default_q_values"),
]


@pytest.mark.parametrize(
    "module, name", _REMOVED_CALLABLES, ids=[n for _, n in _REMOVED_CALLABLES]
)
def test_removed_callables_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(wavescope, name)
    assert name not in wavescope.__all__
