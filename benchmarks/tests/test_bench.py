"""Tests of the benchmark itself: python3 -m pytest benchmarks/tests -q"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_of_nested_tree():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, 0),
        span("c", 5.0, 9.0, 0),
        span("d", 6.0, 7.0, 2),
        span("c", 7.5, 8.5, 2),  # c re-entered inside c
    ]
    assert layertrace.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.0])
    summary = layertrace.span_summary(spans)
    assert summary["c"]["calls"] == 2
    assert summary["c"]["self_s"] == pytest.approx(3.0)
    assert summary["c"]["total_s"] == pytest.approx(4.0)  # outermost c only
    assert summary["a"]["total_s"] == pytest.approx(10.0)


def test_march_attributes_split_cold_and_warm():
    spans = [span("greenhyp.march", 0.0, 2.0, attrs={"columns": 4, "cold": True}),
             span("greenhyp.march", 2.0, 2.5, attrs={"columns": 4, "cold": False})]
    m = layertrace.span_summary(spans)["greenhyp.march"]
    assert (m["columns"], m["cold_s"], m["warm_s"]) == (8, 2.0, 0.5)


def test_absent_callables_are_reported_not_raised():
    import moellerlab.cli as cli
    import moellerlab.reports as reports
    import moellerlab.suites as suites

    original_dumps = reports.dumps
    original_cones = suites.SUITES["cones"]
    layers = [
        ("reports.dumps", "reports", "dumps", ("self_s",)),
        ("suites.cones", "suites", "suite_cones", ("total_s",)),
        ("gone.function", "reports", "no_such_function", ("calls",)),
        ("gone.method", "moller", "NoSuchClass.apply", ("calls",)),
        ("gone.module", "no_such_module", "f", ("calls",)),
    ]
    tracer = layertrace.Tracer().install(layers)
    try:
        assert tracer.absent == ["gone.function", "gone.method", "gone.module"]
        # the by-name import in cli and the suite registry are patched too
        assert cli.dumps is reports.dumps is not original_dumps
        assert suites.SUITES["cones"] is not original_cones
        cli.dumps({"x": 1})
        assert [s[0] for s in tracer.spans] == ["reports.dumps"]
    finally:
        tracer.uninstall()
    assert cli.dumps is reports.dumps is original_dumps
    assert suites.SUITES["cones"] is original_cones
    values = layertrace.layer_metrics([layertrace.span_summary(tracer.spans)], layers)
    assert values["gone.method.calls"] == 0


def test_count_mismatch_is_nondeterminism():
    a = {"greenhyp.march": {"calls": 3, "columns": 3, "self_s": 1.0}}
    b = {"greenhyp.march": {"calls": 3, "columns": 3, "self_s": 2.0}}
    c = {"greenhyp.march": {"calls": 4, "columns": 3, "self_s": 1.0}}
    assert layertrace.count_mismatches([a, b]) == 0
    assert layertrace.count_mismatches([a, b, c]) == 1


def report(**check):
    tree = {"scenario": "s", "pass": True, "suites": {"convergence": {
        "pass": True, "checks": [dict({"law": "l", "pass": True}, **check)]}}}
    return json.dumps(tree).encode()


def test_verdict_rejects_failed_checks_and_changed_bytes():
    ok = {"rc": 0, "error": None}
    good = report()
    assert run.verdict(ok, good, None, ["convergence"]) is None
    assert run.verdict(ok, good, good, ["convergence"]) is None
    assert "failed" in run.verdict(ok, report(**{"pass": False}), None, ["convergence"])
    assert "differs" in run.verdict(ok, report(residual=1.0), good, ["convergence"])
    assert "suites" in run.verdict(ok, good, None, ["hadamard"])
    assert "JSON" in run.verdict(ok, good[:-1], None, ["convergence"])
    assert "exit code" in run.verdict({"rc": 1, "error": None}, good, None, ["convergence"])


def test_forced_failing_iteration_counts_as_failed():
    workloads = {"broken": {"argv": ["converge", "--grids", "64,128", "--grid", "nonsense",
                                     "--out", "{out}"], "suites": ["convergence"]}}
    res = run.run("broken", 0, 0.1, 0, workloads)
    assert (res["attempted"], res["failed"]) == (1, 1)
    assert res["ok"] == []


def test_times_are_scaled_to_reference_speed():
    res = {"attempted": 3, "failed": 0, "setups": [0.4, 0.5, 0.6],
           "calibration_s": 2 * run.CALIBRATION_REF_S,
           "ok": [{"wall_s": w, "peak_rss_mb": 70.0} for w in (1.0, 2.0, 9.0)]}
    values = run.end_to_end(res)
    assert values["wall_s"] == pytest.approx(1.0)
    assert values["setup_s"] == pytest.approx(0.25)
    assert values["peak_rss_mb"] == 70.0


def test_traced_refinement_repeats_its_counts():
    res = run.run("refinement", 3, 0.1, 1)
    assert res["failed"] == 0 and res["attempted"] == 3
    values, consistent = run.per_layer(res)
    assert consistent
    assert values["greenhyp.march.calls"] == 3
    assert values["trace.absent_callables"] == 0
    assert values["suites.convergence.total_s"] > values["greenhyp.march.self_s"] > 0


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = layertrace.metric_units()
    names = list(run.END_TO_END) + list(per_layer)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
