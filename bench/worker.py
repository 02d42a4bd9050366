"""One workload in one fresh process; prints its measurements as JSON.

Started by ``run.py`` with the thread pools pinned and ``src`` on the
path.  Order of work: import wavescope, set the inputs up, run one
warm-up iteration, run the untraced pass for ``--seconds`` (end-to-end
numbers), then with ``--trace 1`` a traced pass for ``--seconds``
(spans, self times, counters), one more iteration for tracemalloc peaks
and the workload's probe, if it has one.  With ``--setup-only`` it stops
after set-up, which gives ``run.py`` more set-up samples.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import importlib
import inspect
import json
import os
import platform
import resource
import sys
from pathlib import Path

from harness import DigestLedger, PeakTracker, Tally, Tracer, median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Modules whose public functions the traced pass wraps.
TRACED_MODULES = ("signal_core", "synth", "dwt", "mfdfa", "cwt", "spectral", "lyapunov", "svg", "cli")
#: Called ~10**5 times per iteration; a span there would dwarf the work.
UNTRACED = {"synth.bounce_map_jacobian"}
#: Reported per kind of input: ``<span>.bounce`` and ``<span>.fbm``.
SPLIT_BY_INPUT = {"lyapunov.estimate_delay", "lyapunov.largest_lyapunov"}
#: Spans whose tracemalloc peak is recorded, in a pass of their own.
PEAK_SPANS = ("cwt.cwt_morlet", "cwt.global_power")
THREAD_VARS = ("WAVESCOPE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


#: Counters derived from a traced call's result.
HOOKS = {
    "svg.line_plot": lambda p: {"svg.line_plot.bytes": Path(p).stat().st_size},
    "svg.heatmap": lambda p: {"svg.heatmap.bytes": Path(p).stat().st_size},
    # computed from the array shape: complex128 coefficients, scales x n
    "cwt.cwt_morlet": lambda sg: {"cwt.coeff_bytes": sg.scales.size * sg.times.size * 16},
}


def _wavescope_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "wavescope" or name.startswith("wavescope.")]


def _public_functions():
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"wavescope.{short}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                yield f"{short}.{attr}", fn


def install_spans(tracer: Tracer):
    from wavescope import cli

    modules = _wavescope_modules()
    for name, fn in _public_functions():
        if name not in UNTRACED:
            tracer.install(modules, name, fn, split=name in SPLIT_BY_INPUT, hook=HOOKS.get(name))
    for stage in list(cli._STAGE_FUNCS):
        tracer.install_item(cli._STAGE_FUNCS, stage, f"cli.stage.{stage}")


def install_peaks(peaks: PeakTracker):
    modules = _wavescope_modules()
    for name, fn in _public_functions():
        if name in PEAK_SPANS:
            peaks.install(modules, name, fn)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def run_pass(workload, state, tally: Tally, seconds: float, label, after_iteration=None):
    """Whole iterations until ``seconds`` have passed (at least one)."""
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall = cpu = 0.0
        for op in workload.ops(state, label):
            dw, dc = tally.run(op)
            wall += dw
            cpu += dc
        walls.append(wall)
        cpus.append(cpu)
        if after_iteration is not None:
            after_iteration()
        if time.perf_counter() - start >= seconds:
            return walls, cpus


def _median_by_key(rows: list[dict]) -> dict:
    keys = {k for row in rows for k in row}
    return {k: median(row.get(k, 0.0) for row in rows) for k in sorted(keys)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import wavescope

    import_s = time.perf_counter() - _T0
    source = Path(wavescope.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"wavescope imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    t = time.perf_counter()
    state = workload.setup(args.seed, args.workdir)
    setup_s = import_s + time.perf_counter() - t
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    expected = {}
    if args.seed == reference["default_seed"]:
        expected = reference["digests"].get(args.workload, {})
    state["ledger"] = DigestLedger(expected)
    tally = Tally()
    # nullcontext(name) is a no-op label for the untraced passes
    no_label = contextlib.nullcontext

    # The first iteration of a fresh process pays for first-touch page
    # faults and lazy initialisation, which swing with the host's state:
    # it is checked like any other but not timed.
    run_pass(workload, state, tally, 0.0, no_label)
    walls, cpus = run_pass(workload, state, tally, args.seconds, no_label)
    result.update(
        wall_s=walls,
        cpu_s=cpus,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )

    if args.trace:
        tracer = Tracer()
        install_spans(tracer)
        try:
            workload.setup(args.seed, args.workdir)
            setup_flat = tracer.flat()
            rows = []

            def snapshot():
                row = tracer.flat()
                for ext, size in state.get("artifact_bytes", {}).items():
                    row[f"cli.artifact_bytes.{ext}"] = size
                rows.append(row)
                tracer.reset()

            tracer.reset()
            traced_walls, _ = run_pass(workload, state, tally, args.seconds, tracer.labelled, snapshot)
        finally:
            tracer.uninstall()
        peaks = PeakTracker()
        install_peaks(peaks)
        try:
            run_pass(workload, state, tally, 0.0, no_label)
        finally:
            peaks.uninstall()
        layers = {**setup_flat, **_median_by_key(rows), **peaks.flat()}
        layers["trace.overhead_s"] = median(traced_walls) - median(walls)
        if workload.probe is not None:
            layers.update(workload.probe(args.seed))
        result["per_layer"] = layers

    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures[:20],
        oracle_margin=tally.oracle_margin,
        digests=state["ledger"].seen,
        env=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
