"""Tests of the benchmark's own code: inputs, span arithmetic, output checks and metric names."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

import bench_checks
import bench_inputs
import bench_spans
import run

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _written(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload, tmp_path):
    first, again, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, again, other):
        d.mkdir()
    commands = bench_inputs.make_inputs(workload, 7, first)
    assert bench_inputs.make_inputs(workload, 7, again) == commands
    assert _written(first) == _written(again)
    other_commands = bench_inputs.make_inputs(workload, 8, other)
    assert (other_commands, _written(other)) != (commands, _written(first))


def test_presentation_is_a_power_of_two_scale_and_a_relabelling():
    doc = bench_inputs.growing_schedule(0)
    shown = bench_inputs.present(doc, random.Random(3), relabel=True)
    scale = shown["contracts"][0]["length"] / doc["contracts"][0]["length"]
    assert math.frexp(scale)[0] == 0.5
    assert [c["length"] / scale for c in shown["contracts"]] == [c["length"] for c in doc["contracts"]]
    for key in ("problem", "processor"):
        mapping = {a[key]: b[key] for a, b in zip(doc["contracts"], shown["contracts"])}
        assert all(mapping[a[key]] == b[key] for a, b in zip(doc["contracts"], shown["contracts"]))
        assert len(set(mapping.values())) == len(mapping)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["metrics.deficiency", 0.0, 10.0, -1],
        ["makespan.exact", 1.0, 3.0, 0],
        ["makespan.exact", 2.0, 5.0, 0],  # overlaps its sibling: [1, 5] is covered once
        ["core.simulate", 8.0, 12.0, 0],  # runs past its parent: only [8, 10] counts
        ["makespan.lpt", 2.5, 3.5, 2],  # a grandchild does not reduce the root again
    ]
    assert bench_spans.self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 4.0, 1.0])


def test_outermost_counts_nested_spans_of_one_layer_once():
    spans = [
        ["bounds.deficiency_upper_bound_at_beta", 0.0, 4.0, -1],
        ["bounds.deficiency_upper_bound", 1.0, 2.0, 0],
        ["makespan.exact", 2.0, 3.0, 0],
        ["bounds.geometric_functional", 2.1, 2.2, 2],
    ]
    assert bench_spans.outermost(spans) == [True, False, True, False]


def test_summarize_pass_adds_layer_times_and_repeat_shares():
    record = {
        "t_spawn": 10.0,
        "t_main": 10.25,
        "spans": [
            ["metrics.deficiency", 11.0, 15.0, -1],
            ["core.critical_times", 11.0, 11.5, 0],
            ["makespan.exact", 12.0, 13.0, 0],
            ["makespan.exact", 13.0, 14.5, 0],
        ],
        "counters": {"exact_distinct": 2, "shape_distinct": 1, "windows": 7},
    }
    figures = bench_spans.summarize_pass([record], untraced_wall=5.0, traced_wall=6.0)
    assert figures["makespan.exact_calls"] == 2
    assert figures["makespan.exact_s"] == pytest.approx(2.5)
    assert figures["makespan.exact_max_ms"] == pytest.approx(1500.0)
    assert figures["metrics.self_s"] == pytest.approx(1.0)
    assert figures["makespan.exact_repeat_share"] == 0.0
    assert figures["makespan.shape_repeat_share"] == 0.5
    assert figures["cli.process_start_s"] == pytest.approx(0.25)
    assert figures["trace.overhead_s"] == pytest.approx(1.0)
    assert set(figures) == {name for name, _, _ in bench_spans.LAYER_METRICS}


def _eval_stdout(value: float, ref: dict) -> str:
    return json.dumps({"measure": "deficiency", "value": value, "windows": ref["windows"],
                       "unserved_windows": ref["unserved_windows"], "analytic": None})


def test_eval_check_flags_a_wrong_value():
    refs = bench_checks.load_references()["random-growing-def"]
    check = {"kind": "eval", "ref": "0", "measure": "def", "solver": "exact"}
    right = refs["0"]["def_exact"]
    ok = bench_checks.check_command(check, refs, 0, _eval_stdout(right, refs["0"]), "", Path("."), {})
    assert ok == []
    wrong = bench_checks.check_command(check, refs, 0, _eval_stdout(right * 1.001, refs["0"]), "", Path("."), {})
    assert wrong and "reference" in wrong[0]
    failed = bench_checks.check_command(check, refs, 1, "", '{"error": {}}', Path("."), {})
    assert failed and "exit code 1" in failed[0]


def test_eval_check_flags_lpt_above_exact():
    refs = {"s": {"windows": 3, "unserved_windows": 0, "def_exact": 1.5, "def_lpt": 1.6}}
    seen: dict = {}
    exact = {"kind": "eval", "ref": "s", "measure": "def", "solver": "exact"}
    lpt = dict(exact, solver="lpt")
    assert bench_checks.check_command(exact, refs, 0, _eval_stdout(1.5, refs["s"]), "", Path("."), seen) == []
    problems = bench_checks.check_command(lpt, refs, 0, _eval_stdout(1.6, refs["s"]), "", Path("."), seen)
    assert problems == ["eval: def(lpt) 1.6 > def(exact) 1.5"]


def test_least_served_rule_and_single_processor_deficiency():
    contracts = [(0, 1.0), (1, 2.0), (0, 4.0), (1, 8.0)]
    doc = {"n": 2, "m": 1, "contracts": [{"problem": p, "processor": 0, "length": x} for p, x in contracts]}
    assert bench_checks.obeys_least_served(doc)
    # served windows at t=7 (lengths 1+2 done) and t=15 (4+2 done): sup is 15/6
    assert bench_checks.deficiency_m1(doc) == pytest.approx(2.5)
    doc["contracts"][2]["problem"] = 1  # problem 1 (length 2) starts again while problem 0 has only 1
    assert not bench_checks.obeys_least_served(doc)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_scaled_time_is_relative_to_the_reference_calibration():
    ref = run.CALIBRATION_REF_S
    assert run.scaled(3.0, ref, ref) == pytest.approx(3.0)
    # a host running at half speed takes twice as long for the calibration and the command
    assert run.scaled(6.0, 2 * ref, 2 * ref) == pytest.approx(3.0)
    assert run.scaled(6.0, 1.5 * ref, 2.5 * ref) == pytest.approx(3.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(bench_spans.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(bench_inputs.WORKLOADS)
