"""Self-tests of the benchmark harness.  Run: python3 -m pytest -q bench"""

import types

import pytest

import json
import math
from pathlib import Path

from harness import MARGIN_CAP, Check, DigestLedger, Op, Tally, Tracer, digest, exact, median, within
from worker import run_pass


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(1.0))

    def mid_body():
        clock.advance(0.5)
        leaf()
        leaf()

    mid = tracer.wrap("mid", mid_body)

    def outer_body():
        clock.advance(0.25)
        mid()

    tracer.wrap("outer", outer_body)()
    st = tracer.stats
    assert st["leaf"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert st["mid"] == {"calls": 1, "s": 2.5, "self_s": 0.5}
    # the grandchildren are already inside mid's 2.5 s
    assert st["outer"] == {"calls": 1, "s": 2.75, "self_s": 0.25}


def test_span_survives_exception_and_labels_split_names():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    traced = tracer.wrap("f", boom, split=True)
    with tracer.labelled("fbm"), pytest.raises(ValueError):
        traced()
    with pytest.raises(ValueError):
        traced()
    assert tracer.stats["f.fbm"]["s"] == 1.0
    assert tracer.stats["f"]["calls"] == 1
    assert tracer._stack == []


def test_install_patches_every_alias_and_restores():
    def original():
        return "orig"

    home = types.SimpleNamespace(fn=original)
    importer = types.SimpleNamespace(fn=original, other=len)
    tracer = Tracer()
    tracer.install([home, importer], "home.fn", original, hook=lambda r: {"n": len(r)})
    assert home.fn is not original and importer.fn is not original
    assert importer.fn() == "orig" and home.fn() == "orig"
    assert tracer.flat() == {"home.fn.calls": 2, "home.fn.s": pytest.approx(tracer.stats["home.fn"]["s"]),
                             "home.fn.self_s": pytest.approx(tracer.stats["home.fn"]["self_s"]), "n": 8}
    table = {"a": original}
    tracer.install_item(table, "a", "stage.a")
    table["a"]()
    assert tracer.stats["stage.a"]["calls"] == 1
    tracer.uninstall()
    assert home.fn is original and importer.fn is original and table["a"] is original


def test_median_and_sample_count():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])

    calls = []
    workload = types.SimpleNamespace(ops=lambda state, label: [Op("x", lambda: calls.append(1))])
    walls, cpus = run_pass(workload, {}, Tally(), 0.0, None)
    # a zero budget still measures one whole iteration
    assert len(walls) == len(cpus) == len(calls) == 1


def test_injected_exception_counts_one_failed_op():
    tally = Tally()

    def raises():
        raise RuntimeError("injected")

    tally.run(Op("bad", raises))
    tally.run(Op("good", lambda: 1.0, lambda out: [within("value", out, 1.0, 0.1)]))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed_frac == 0.5
    assert "injected" in tally.failures[0]


def test_injected_digest_mismatch_counts_one_failed_op():
    ledger = DigestLedger(reference={"out.csv": digest(b"expected")})
    tally = Tally()
    for payload in (b"expected", b"expected", b"tampered"):
        tally.run(Op("write", lambda p=payload: p, lambda out: ledger.check("out.csv", digest(out))))
    # the third op misses both the stability and the reference check, once
    assert (tally.attempted, tally.failed) == (3, 1)


def test_oracle_margin_is_largest_ratio_and_misses_fail():
    tally = Tally()
    tally.run(Op("a", lambda: 0.65, lambda v: [within("h2", v, 0.6, 0.1)]))
    tally.run(Op("b", lambda: 0.72, lambda v: [within("h2", v, 0.6, 0.1), exact("flag", True)]))
    assert tally.oracle_margin == pytest.approx(1.2)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_non_finite_margin_reports_the_cap():
    tally = Tally()
    tally.run(Op("chaotic", lambda: None, lambda out: [Check("sign", False, math.inf)]))
    tally.run(Op("nan", lambda: math.nan, lambda v: [within("h2", v, 0.6, 0.1)]))
    assert tally.oracle_margin == MARGIN_CAP
    assert (tally.attempted, tally.failed) == (2, 2)


def test_per_layer_names_agree_with_their_targets():
    bench = Path(__file__).resolve().parent
    spec = json.loads((bench.parent / "BENCHMARK.json").read_text())
    targets = json.loads((bench / "reference.json").read_text())["per_layer_targets"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(targets)
    workloads = {w["name"] for w in spec["workloads"]}
    assert all(set(t["workloads"]) <= workloads for t in targets.values())


def test_missing_targeted_metric_fails_and_others_read_zero():
    from run import BenchError, per_layer_metrics

    spec = {"per_layer": [{"name": "a.s", "unit": "s"}, {"name": "b.s", "unit": "s"}]}
    targets = {"a.s": {"workloads": ["w1"]}, "b.s": {"workloads": ["w2"]}}
    got = per_layer_metrics({"a.s": 0.5}, spec, targets, "w1")
    assert got == {"a.s": {"value": 0.5, "unit": "s"}, "b.s": {"value": 0.0, "unit": "s"}}
    with pytest.raises(BenchError, match="b.s"):
        per_layer_metrics({"a.s": 0.5}, spec, targets, "w2")
