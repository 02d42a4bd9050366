"""wavescope benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload pipeline_fbm16 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, default seed
    python3 -m pytest -q bench                 # self-tests of the harness

Each workload runs in a fresh worker process (``worker.py``) with one
thread: ``WAVESCOPE_THREADS=1`` and every BLAS/OpenMP pool pinned to 1.
Load is a closed loop with one client: each operation starts when the
previous one has returned, and after one untimed warm-up iteration,
iterations repeat until ``--seconds`` have passed (at least one).
Before and after the measuring worker, ``SETUP_REPEATS`` more fresh
processes only import wavescope and build the inputs, so ``setup_s`` is
a median of several samples: one import varies by +-20 % from process
to process on a shared host.  Workloads, metric names and units live in
``BENCHMARK.json``; reference digests, known defects and the metric
each layer figure should move live in ``bench/reference.json``.

Output: human-readable lines, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Exits non-zero without that line when the workload
cannot run at all, for instance when ``src/wavescope`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from harness import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
#: A run must end within 180 s; keep a margin for the parent's own work.
RUN_BUDGET_S = 170.0
PINNED = {
    "WAVESCOPE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _llc_bytes() -> int | None:
    proc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=30)
    size = proc.stdout.strip()
    return int(size) if proc.returncode == 0 and size.isdigit() and int(size) > 0 else None


def machine() -> dict:
    llc = _llc_bytes()
    largest = 2**20 * 8
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "largest_array_bytes": largest,
        "note": (
            f"the largest input, 2**20 float64 ({largest / 2**20:g} MiB), is smaller than the "
            f"last-level cache ({llc / 2**20:g} MiB), so byte figures are computed from "
            "array sizes and no bandwidth metric is claimed"
            if llc else "last-level cache size unknown; byte figures are computed"
        ),
    }


def _worker(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED, "PYTHONPATH": str(ROOT / "src")}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    try:
        # run() kills the child on timeout and waits for it to end.
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {RUN_BUDGET_S:g} s budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def per_layer_metrics(layers: dict, spec: dict, targets: dict, workload: str) -> dict:
    """Every per-layer metric of ``spec``; 0 where it does not apply.

    A metric that ``targets`` lists for ``workload`` must have been
    measured: a missing span would otherwise read as an improvement.
    """
    missing = [m["name"] for m in spec["per_layer"]
               if m["name"] not in layers and workload in targets[m["name"]]["workloads"]]
    if missing:
        raise BenchError(f"{workload}: per-layer metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]}


def run_workload(args, spec: dict, targets: dict) -> dict:
    """Measure one workload; returns the result object of the last line."""
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        # Set-up samples on both sides of the measuring worker, so that
        # their median spans the run rather than its first seconds.
        before = SETUP_REPEATS // 2
        setups = [_worker(args, workdir, deadline, True)["setup_s"] for _ in range(before)]
        res = _worker(args, workdir, deadline, False)
        setups += [_worker(args, workdir, deadline, True)["setup_s"]
                   for _ in range(SETUP_REPEATS - before)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    setups.append(res["setup_s"])

    frac = res["failed"] / res["attempted"]
    print(f"[{args.workload}] seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  env: {json.dumps({**machine(), **res['env']}, sort_keys=True)}")
    print(f"  wall_s       {median(res['wall_s']):.4f} s   median of {len(res['wall_s'])} iterations")
    print(f"  cpu_s        {median(res['cpu_s']):.4f} s   median of {len(res['cpu_s'])} iterations")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MiB")
    print(f"  setup_s      {median(setups):.4f} s   median of {len(setups)} processes "
          f"(import {res['import_s']:.3f} s in the measuring one)")
    print(f"  failed_ops_frac {frac:.4g} frac   ({res['failed']} of {res['attempted']} operations)")
    print(f"  oracle_margin   {res['oracle_margin']} ratio   (at most 1 passes)")
    for line in res["failures"]:
        print(f"  FAILED {line}")

    if args.trace:
        layers = {**res["per_layer"], "check.failed_ops_frac": frac,
                  "check.oracle_margin": res["oracle_margin"]}
        metrics = per_layer_metrics(layers, spec, targets, args.workload)
    else:
        layers = {
            "wall_s": median(res["wall_s"]),
            "cpu_s": median(res["cpu_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": median(setups),
        }
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = json.loads((BENCH_DIR / "reference.json").read_text())["per_layer_targets"]
    if set(targets) != {m["name"] for m in spec["per_layer"]}:
        print("BENCHMARK.json per_layer and reference.json per_layer_targets name "
              "different metrics", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wavescope" / "__init__.py").is_file():
        print(f"no wavescope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    todo = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in todo:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), spec, targets)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    if len(todo) == 1:
        print(json.dumps(results[todo[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
