"""Fast tests of the benchmark's own machinery (no workload is run).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py -q``.
"""

from __future__ import annotations

import json
import statistics

import pytest

import compare
import harness
import tracer

# ----------------------------------------------------------------------
# Names and the benchmark definition
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["wall_s", "cpu.replay_ns_per_event.vwb", "0x", "a-b.c_d"])
def test_valid_names(name):
    assert harness.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "warm%"])
def test_invalid_names(name):
    assert not harness.valid_name(name)


@pytest.mark.parametrize("unit", ["s", "MB", "1/s", "%", "count"])
def test_valid_units(unit):
    assert harness.valid_unit(unit)


def test_invalid_units():
    assert not harness.valid_unit("")
    assert not harness.valid_unit("x" * 17)
    assert not harness.valid_unit("m s")


def test_benchmark_json_is_well_formed():
    spec = harness.load_spec()
    assert 2 <= len(spec["workloads"]) <= 8
    names = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in names
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
        assert m["better"] in ("lower", "higher")
    assert len(spec["per_layer"]) <= 128


def test_load_spec_rejects_duplicates(tmp_path):
    spec = {"workloads": [{"name": "a", "why": "x"}],
            "end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": []}
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match="duplicate"):
        harness.load_spec(path)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def test_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, med, q3 = harness.quartiles(values)
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[::2])
    assert med == statistics.median(values)


def test_quartiles_of_one_value_and_none():
    assert harness.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        harness.quartiles([])


def test_summarize():
    s = harness.summarize([1.0, 2.0, 3.0, 4.0], "s")
    assert s == {"value": 2.5, "unit": "s", "q1": 1.25, "q3": 3.75, "n": 4}


def test_percentile_nearest_rank():
    values = list(range(1, 11))
    assert harness.percentile(values, 50) == 5
    assert harness.percentile(values, 90) == 9
    assert harness.percentile(values, 100) == 10
    assert harness.percentile([], 50) == 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def _span(sid, name, start, end, parent=0):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_direct_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 2.0, 3.0, parent=2),
        _span(4, "a", 5.0, 6.0, parent=1),
    ]
    own = harness.self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    assert sum(own.values()) == 10.0
    totals = harness.layer_totals(spans)
    assert totals["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}


def test_self_time_merges_overlapping_children():
    spans = [_span(1, "root", 0.0, 10.0), _span(2, "w", 1.0, 5.0, 1), _span(3, "w", 3.0, 12.0, 1)]
    assert harness.self_times(spans)[1] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Golden checks
# ----------------------------------------------------------------------

_TABLE = """== t: title (values in %) ==
benchmark  x=1  x=2  x=3
------------------------
gemm       1.0  2.0  3.0
AVERAGE    1.0  2.0  3.0
note: something
"""


def test_golden_diff_ignores_footer_lines():
    output = _TABLE + "(t regenerated in 4.5s)\nexec: 3 points — 0 cache hits\n"
    assert harness.golden_diff(output, _TABLE) is None


def test_golden_diff_reports_changed_and_missing_lines():
    changed = _TABLE.replace("gemm       1.0", "gemm       1.1")
    assert "line 4" in harness.golden_diff(changed, _TABLE)
    assert "lines" in harness.golden_diff(_TABLE + "note: extra\n", _TABLE)


def test_sweep_diff_compares_the_selected_columns():
    subset = """== t: title (values in %) ==
benchmark  x=1  x=3
-------------------
gemm       1.0  3.0
AVERAGE    1.0  3.0
note: other
"""
    assert harness.sweep_diff(subset, _TABLE) is None
    assert "x=3" in harness.sweep_diff(subset.replace("3.0\nAVERAGE", "3.1\nAVERAGE"), _TABLE)
    assert "not in the golden" in harness.sweep_diff(subset.replace("x=3", "x=4"), _TABLE)


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------


def _side(values):
    return {(seed, 0): v for seed, v in enumerate(values)}


BASE = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_verdict_improved():
    word, fails, won = compare.verdict(_side(BASE), _side([v - 1.0 for v in BASE]), "lower", 0.1)
    assert (word, fails, won) == ("improved", False, 1.0)


def test_verdict_regressed_beyond_bound():
    word, fails, _ = compare.verdict(_side(BASE), _side([v * 1.2 for v in BASE]), "lower", 0.1)
    assert (word, fails) == ("regressed", True)


def test_verdict_within_bound():
    word, fails, _ = compare.verdict(_side(BASE), _side([v * 1.02 for v in BASE]), "lower", 0.1)
    assert (word, fails) == ("within bound", False)


def test_verdict_respects_direction():
    word, _, _ = compare.verdict(_side(BASE), _side([v * 1.2 for v in BASE]), "higher", 0.1)
    assert word == "improved"


def test_verdict_unresolved_when_base_spread_exceeds_bound():
    noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0]
    word, fails, _ = compare.verdict(_side(noisy), _side(noisy[1:] + noisy[:1]), "lower", 0.1)
    assert (word, fails) == ("unresolved", False)


def test_verdict_per_layer_never_fails():
    word, fails, _ = compare.verdict(_side(BASE), _side([v * 2 for v in BASE]), "lower", None)
    assert (word, fails) == ("worse", False)


def test_verdict_missing_and_exact():
    assert compare.verdict({}, _side(BASE)) == ("MISSING", True, 0.0)
    assert compare.verdict(_side(BASE), {}) == ("MISSING", True, 0.0)
    assert compare.verdict(_side([1, 2]), _side([1, 2]), exact=True)[:2] == ("identical", False)
    assert compare.verdict(_side([1, 2]), _side([1, 3]), exact=True)[:2] == ("DIFFERS", True)


def _write_run(root, workload, seed, metrics, trace=0):
    path = root / workload / f"seed{seed}-{'traced' if trace else 'untraced'}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": seed, "trace": trace,
           "metrics": {n: {"value": v, "unit": "s"} for n, v in metrics.items()}}
    path.write_text(json.dumps(doc))


def test_compare_flags_missing_metrics_and_simulated_changes(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    for seed in range(3):
        _write_run(base, "w", seed, {"wall_s": 1.0, "peak_rss_mb": 5.0, "error_frac": 0.0})
        _write_run(new, "w", seed, {"wall_s": 1.0, "error_frac": 0.0})
        _write_run(base, "w", seed, {"sim.cycles.vwb": 100.0}, trace=1)
        _write_run(new, "w", seed, {"sim.cycles.vwb": 101.0}, trace=1)
    rows = {r["metric"]: r for r in compare.compare(base, new, harness.load_spec())}
    assert rows["peak_rss_mb"]["verdict"] == "MISSING" and rows["peak_rss_mb"]["fails"]
    assert rows["sim.cycles.vwb"]["verdict"] == "DIFFERS" and rows["sim.cycles.vwb"]["fails"]
    assert rows["wall_s"]["verdict"] == "within bound"
    assert rows["error_frac"]["verdict"] == "identical"
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(new)]) == 1


# ----------------------------------------------------------------------
# The tracer's wrappers
# ----------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    tracer.import_all()
    import repro.workloads
    from repro.cpu.system import System
    from repro.experiments import runner
    from repro.workloads import polybench

    original_build = polybench.build_kernel
    original_run = System.__dict__["run"]
    t = tracer.Tracer("test")
    tracer.install(t)
    try:
        assert repro.workloads.build_kernel is not original_build
        assert runner.build_kernel is repro.workloads.build_kernel
        assert System.__dict__["run"] is not original_run
        runner.build_kernel("gemm")
    finally:
        t.restore()
    assert [s["name"] for s in t.spans] == ["workloads.build"]
    assert repro.workloads.build_kernel is original_build
    assert runner.build_kernel is original_build
    assert polybench.build_kernel is original_build
    assert System.__dict__["run"] is original_run


def test_tracer_records_parents_and_captures():
    t = tracer.Tracer("test")

    def inner(x):
        return x + 1

    wrapped_inner = t.wrap("inner", inner, capture=lambda a, r: {"x": a["x"], "r": r})
    outer = t.wrap("outer", lambda: wrapped_inner(1))
    assert t.root("root", outer) == 2
    by_name = {s["name"]: s for s in t.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] == by_name["root"]["id"]
    assert by_name["root"]["parent"] == 0
    assert t.captures == [(by_name["inner"]["id"], "inner", {"x": 1, "r": 2})]
