"""Run the benchmark of two trees in alternating pairs and compare them.

Usage::

    python tools/bench_pairs.py PARENT CHANGE --pairs 10 --workload all --seed S \
        [--seconds N] [--json OUT]

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
each tree's own ``bench/run.py --trace 0`` once, from that tree; the
parent goes first in odd pairs (counting from 1) and the change in even
ones.  For each workload and end-to-end metric of the parent's
``BENCHMARK.json`` it prints both sides' medians and quartiles (linear
interpolation, numpy's default), the pairs in which the change reads
better (ties count for neither side), the median of the per-pair ratios
change / parent, and two verdicts:

- ``gain``: the change reads better in at least nine tenths of the pairs
  and its median beats the parent's by more than the distance between
  the parent's quartiles;
- ``bound``: ``WORSE`` when the change's median is worse than the
  parent's by more than the metric's bound, a fraction of the parent's
  median; ``unresolved`` when the spread of either side's runs (the
  distance between its quartiles, over the parent's median) exceeds the
  bound and not every change run reads better than every parent run;
  ``ok`` otherwise.

The failed and attempted operations of each side are printed too, and
``--json`` writes every run and the summary to OUT.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """The result object that ``tree``'s ``bench/run.py`` prints last,
    its metrics keyed ``<workload>.<metric>`` also for one workload."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: bench/run.py exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if workload != "all":
        result["metrics"] = {f"{workload}.{k}": v for k, v in result["metrics"].items()}
    return result


def _quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric over paired runs: ``parent[i]`` and
    ``change[i]`` are pair i; ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equal lists of at least two paired runs")
    sign = 1.0 if better == "lower" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q_p, q_c = _quartiles(parent), _quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ratios = [c / p if p else math.inf for p, c in zip(parent, change)]
    iqr_p = q_p[1] - q_p[0]
    worse_by = sign * (med_c - med_p) / med_p if med_p else 0.0
    spread = max(iqr_p, q_c[1] - q_c[0]) / med_p if med_p else 0.0
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if worse_by > bound:
        verdict = "WORSE"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "parent_median": med_p,
        "parent_quartiles": q_p,
        "change_median": med_c,
        "change_quartiles": q_c,
        "change_better": wins,
        "pairs": len(parent),
        "median_ratio": statistics.median(ratios),
        "gain": wins >= math.ceil(0.9 * len(parent)) and sign * (med_p - med_c) > iqr_p,
        "worse_by": worse_by,
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
    }


def summarize(runs: list[dict], spec: dict) -> list[dict]:
    """One row per workload and end-to-end metric present in ``runs``,
    each run ``{"pair", "side", "result"}``."""
    by_side = {side: [r["result"] for r in sorted(runs, key=lambda r: r["pair"])
                      if r["side"] == side] for side in SIDES}
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            if key not in by_side["parent"][0]["metrics"]:
                continue
            values = {side: [res["metrics"][key]["value"] for res in by_side[side]]
                      for side in SIDES}
            rows.append({"workload": workload, "metric": metric["name"], "unit": metric["unit"],
                         **summarize_metric(values["parent"], values["change"],
                                            metric["better"], metric["bound"])})
    return rows


def _format(row: dict) -> str:
    def side(name):
        q1, q3 = row[f"{name}_quartiles"]
        return f"{row[f'{name}_median']:.4g} [{q1:.4g}, {q3:.4g}]"

    return (f"{row['workload']:15s} {row['metric']:12s} {row['unit']:4s} "
            f"parent {side('parent'):28s} change {side('change'):28s} "
            f"better {row['change_better']}/{row['pairs']}  ratio {row['median_ratio']:.4f}  "
            f"gain {'yes' if row['gain'] else 'no'}  "
            f"bound {row['bound']:g}: {row['verdict']} "
            f"(worse by {row['worse_by']:+.2%}, spread {row['spread']:.2%})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--json", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            result = run_once(trees[side], args.workload, args.seed, args.seconds)
            runs.append({"pair": pair, "side": side, "result": result})
            print(f"pair {pair} {side}: correct={result['correct']} "
                  f"failed {result['failed']} of {result['attempted']}", flush=True)
    rows = summarize(runs, spec)
    for side in SIDES:
        results = [r["result"] for r in runs if r["side"] == side]
        print(f"{side}: failed {sum(r['failed'] for r in results)} of "
              f"{sum(r['attempted'] for r in results)} operations, "
              f"correct in {sum(r['correct'] for r in results)} of {len(results)} runs")
    for row in rows:
        print(_format(row))
    if args.json is not None:
        method = (f"tools/bench_pairs.py --pairs {args.pairs} --workload {args.workload} "
                  f"--seed {args.seed}" + (f" --seconds {args.seconds:g}" if args.seconds else ""))
        args.json.write_text(json.dumps({"method": method, "runs": runs, "summary": rows},
                                        indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
