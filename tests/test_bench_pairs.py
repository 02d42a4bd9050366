"""tools/bench_pairs.py's summary of paired benchmark runs, on synthetic
pairs: no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_change_better_in_every_pair_by_more_than_the_iqr_is_a_gain():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
    change = [p - 0.1 for p in parent]
    row = _tool().summarize_metric(parent, change, "lower", 0.25)
    assert row["change_better"] == 10 and row["pairs"] == 10
    assert row["gain"] and row["verdict"] == "ok"
    assert row["parent_median"] == pytest.approx(1.0)
    assert row["parent_quartiles"] == pytest.approx((0.99, 1.01))
    assert row["median_ratio"] == pytest.approx(0.9, abs=0.002)


def test_ties_count_for_neither_side():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    tool = _tool()
    same = tool.summarize_metric(parent, list(parent), "lower", 0.25)
    assert same["change_better"] == 0 and not same["gain"]
    assert same["median_ratio"] == 1.0 and same["worse_by"] == 0.0
    # nine pairs better and one tie: nine of ten is enough, if the medians
    # part by more than the parent's IQR
    change = [p - 6.0 for p in parent[:9]] + [parent[9]]
    row = tool.summarize_metric(parent, change, "lower", 10.0)
    assert row["change_better"] == 9 and row["gain"]
    eight = tool.summarize_metric(parent, [p - 6.0 for p in parent[:8]] + parent[8:], "lower", 10.0)
    assert eight["change_better"] == 8 and not eight["gain"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # parent quartiles 3.25 and 7.75 about a median of 5.5: a spread of 82 %
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
    tool = _tool()
    row = tool.summarize_metric(parent, change, "lower", 0.25)
    assert row["spread"] == pytest.approx(4.5 / 5.5)
    assert row["verdict"] == "unresolved" and not row["gain"]
    # unless every change run reads better than every parent run
    apart = tool.summarize_metric([p + 20.0 for p in parent], parent, "lower", 0.1)
    assert apart["verdict"] == "ok" and apart["gain"]


def test_a_median_worse_by_more_than_the_bound_is_worse():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    tool = _tool()
    row = tool.summarize_metric(parent, [p * 1.06 for p in parent], "lower", 0.05)
    assert row["verdict"] == "WORSE" and row["worse_by"] == pytest.approx(0.06)
    assert tool.summarize_metric(parent, [p * 1.04 for p in parent], "lower", 0.05)["verdict"] == "ok"
    # for a metric where higher is better, the same runs read the other way
    assert tool.summarize_metric(parent, [p * 1.06 for p in parent], "higher", 0.05)["gain"]


def test_summary_rows_follow_the_spec_and_the_pair_order():
    spec = {
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
    }
    runs = []
    for pair, (p, c) in enumerate([(2.0, 1.0), (3.0, 4.0), (2.5, 1.5)], start=1):
        for side, value in (("change", c), ("parent", p)):
            metrics = {"w1.wall_s": {"value": value, "unit": "s"}}
            runs.append({"pair": pair, "side": side, "result": {"metrics": metrics}})
    (row,) = _tool().summarize(runs, spec)  # w2 was not run
    assert (row["workload"], row["metric"], row["unit"]) == ("w1", "wall_s", "s")
    assert row["change_better"] == 2 and row["pairs"] == 3
    assert row["median_ratio"] == pytest.approx(0.6)


def test_fewer_than_two_pairs_are_refused():
    with pytest.raises(ValueError):
        _tool().summarize_metric([1.0], [1.0], "lower", 0.25)
