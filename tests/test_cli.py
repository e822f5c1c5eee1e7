import hashlib
import inspect
import json
import math
import os
import subprocess
import sys

import pytest

import contractsched
from contractsched import (
    Contract,
    Schedule,
    acceleration_ratio,
    deficiency_optimal_base,
    load_schedule,
    save_schedule,
    snapshot_before,
)
from contractsched import bounds, cli, verification
from contractsched.cli import BOUND_BUILDERS, main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


# --- gen -----------------------------------------------------------------------


def test_gen_writes_schedule_file(tmp_path, capsys):
    path = tmp_path / "sched.json"
    code, _, _ = run_cli(["gen", "--n", "2", "--m", "1", "--base", "auto-def", "--k", "12", "--out", str(path)], capsys)
    assert code == 0
    sched = load_schedule(path)
    assert sched.n_problems == 2 and sched.m_processors == 1
    assert len(sched.contracts) == 12
    assert sched.generator["base"] == pytest.approx(deficiency_optimal_base(2, 1), rel=1e-12)


def test_gen_stdout_json(capsys):
    code, out, _ = run_cli(["gen", "--n", "1", "--m", "1", "--base", "2", "--k", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [c["length"] for c in doc["contracts"]] == [1.0, 2.0, 4.0, 8.0]


def test_gen_auto_acc_base(capsys):
    code, out, _ = run_cli(["gen", "--n", "2", "--m", "1", "--base", "auto-acc", "--k", "6"], capsys)
    assert code == 0
    assert json.loads(out)["generator"]["base"] == pytest.approx(1.5, rel=1e-12)


def test_gen_rejects_bad_base(capsys):
    code, _, err = run_cli(["gen", "--n", "2", "--m", "1", "--base", "0.9", "--k", "6"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_gen_overflow_is_a_domain_error(capsys):
    code, out, err = run_cli(["gen", "--n", "2", "--m", "1", "--base", "2", "--k", "2000"], capsys)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert "base 2.0" in error["message"] and "k=2000" in error["message"]


# --- eval ----------------------------------------------------------------------


def test_eval_measure_and_csv(tmp_path, capsys):
    sched_path = tmp_path / "sched.json"
    csv_path = tmp_path / "series.csv"
    run_cli(["gen", "--n", "1", "--m", "1", "--base", "2", "--k", "40", "--out", str(sched_path)], capsys)
    code, out, _ = run_cli(
        ["eval", "--schedule", str(sched_path), "--measure", "def", "--csv", str(csv_path)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - 4.0) <= 1e-3
    assert doc["analytic"] == {"kind": "limit", "value": 4.0}
    assert doc["opt_solves"] == 0  # on one processor OPT is the snapshot total
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# command=eval")
    assert lines[1] == "time,s1,opt,ratio,served"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 40
    assert rows[0][3] == "inf" and rows[0][4] == "0"  # first window is unserved
    assert float(rows[-1][3]) == pytest.approx(4.0, abs=1e-3)


def test_eval_csv_unserved_rows_carry_snapshots(tmp_path, capsys):
    # problem 2 is first served at 7.5, so the unserved windows before it
    # hold nonzero lengths for problems 0 and 1
    rows = [(0, 0, 1.0), (1, 1, 2.0), (0, 0, 2.5), (1, 1, 3.0), (2, 0, 4.0), (0, 1, 5.0), (1, 0, 6.0), (2, 1, 7.0)]
    s = Schedule(3, 2, tuple(Contract(p, q, length) for p, q, length in rows))
    sched_path = tmp_path / "sched.json"
    csv_path = tmp_path / "series.csv"
    save_schedule(s, sched_path)
    code, _, _ = run_cli(["eval", "--schedule", str(sched_path), "--measure", "acc", "--csv", str(csv_path)], capsys)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "time,s1,s2,s3,denominator,ratio,served"
    unserved = [line.split(",")[:4] for line in lines[2:] if line.endswith(",0")]
    expected = [
        [f"{t:.12g}"] + [f"{v:.12g}" for v in sorted(snapshot_before(s, t))]
        for t in acceleration_ratio(s).unserved_times
    ]
    assert unserved == expected
    assert len(expected) == 5
    assert expected[-1] == ["7.5", "0", "2.5", "3"]


def test_eval_csv_rows_follow_time_order(tmp_path, capsys):
    # the windows at 1.0, 1.0000000000000002 (both unserved) and
    # 1.0000000000000004 (served) all print as "1", so the rows cannot be
    # ordered by their printed time
    rows = [(0, 0, 1.0), (1, 1, 1.0000000000000002), (1, 0, 4.440892098500626e-16), (0, 1, 3.0), (1, 0, 5.0)]
    s = Schedule(2, 2, tuple(Contract(p, q, length) for p, q, length in rows))
    sched_path = tmp_path / "sched.json"
    csv_path = tmp_path / "series.csv"
    save_schedule(s, sched_path)
    code, _, _ = run_cli(["eval", "--schedule", str(sched_path), "--measure", "acc", "--csv", str(csv_path)], capsys)
    assert code == 0
    report = acceleration_ratio(s)
    expected = [(f"{t:.12g}", "0") for t in report.unserved_times] + [(f"{x.time:.12g}", "1") for x in report.samples]
    assert [(line.split(",")[0], line.split(",")[-1]) for line in csv_path.read_text().splitlines()[2:]] == expected
    assert [flag for _, flag in expected] == ["0", "0", "1", "1", "1"]


def test_eval_acc_and_perf(tmp_path, capsys):
    sched_path = tmp_path / "sched.json"
    run_cli(["gen", "--n", "2", "--m", "1", "--base", "1.5", "--k", "40", "--out", str(sched_path)], capsys)
    code, out, _ = run_cli(["eval", "--schedule", str(sched_path), "--measure", "acc"], capsys)
    assert code == 0
    assert abs(json.loads(out)["value"] - 6.75) <= 1e-6
    code, out, _ = run_cli(["eval", "--schedule", str(sched_path), "--measure", "perf"], capsys)
    assert abs(json.loads(out)["value"] - 3.375) <= 1e-6


def test_eval_lpt_solver_flag(tmp_path, capsys):
    sched_path = tmp_path / "sched.json"
    run_cli(["gen", "--n", "3", "--m", "2", "--base", "1.4", "--k", "20", "--out", str(sched_path)], capsys)
    code, out, _ = run_cli(["eval", "--schedule", str(sched_path), "--measure", "def", "--solver", "lpt"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["solver"] == "lpt" and doc["exact"] is False
    assert doc["opt_solves"] == 0


def test_eval_def_window_counts_match_the_csv(tmp_path, capsys):
    # without --csv the value comes from the bound-pruned route, which keeps no samples
    rows = [(i % 4, i % 3, float(1 + (5 * i) % 7)) for i in range(30)]
    sched_path = tmp_path / "sched.json"
    csv_path = tmp_path / "series.csv"
    save_schedule(Schedule(4, 3, tuple(Contract(p, q, length) for p, q, length in rows)), sched_path)
    args = ["eval", "--schedule", str(sched_path), "--measure", "def"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    pruned = json.loads(out)
    code, out, _ = run_cli(args + ["--csv", str(csv_path)], capsys)
    assert code == 0
    full = json.loads(out)
    served = [line.split(",")[-1] for line in csv_path.read_text().splitlines()[2:]]
    assert (pruned["windows"], pruned["unserved_windows"]) == (served.count("1"), served.count("0"))
    assert (full["windows"], full["unserved_windows"]) == (served.count("1"), served.count("0"))
    assert full["pruned_windows"] == 0 < pruned["pruned_windows"]
    assert pruned["opt_solves"] < full["opt_solves"]
    assert (pruned["value"], pruned["argmax_time"]) == (full["value"], full["argmax_time"])


@pytest.mark.parametrize("measure", ["acc", "perf"])
def test_eval_acc_perf_print_the_same_json_with_and_without_csv(tmp_path, capsys, measure):
    # without --csv both ratios take the value-only route, which keeps no samples
    rows = [(i % 4, i % 3, float(1 + (5 * i) % 7)) for i in range(30)]
    sched_path = tmp_path / "sched.json"
    save_schedule(Schedule(4, 3, tuple(Contract(p, q, length) for p, q, length in rows)), sched_path)
    args = ["eval", "--schedule", str(sched_path), "--measure", measure]
    code, value_only, _ = run_cli(args, capsys)
    assert code == 0
    code, full, _ = run_cli(args + ["--csv", str(tmp_path / "series.csv")], capsys)
    assert code == 0
    assert value_only == full
    assert json.loads(full)["unserved_windows"] > 0


def test_eval_def_guard_error_on_both_routes(tmp_path, capsys):
    # 25 problems exceed the exact solver's guard of 24 jobs
    sched_path = tmp_path / "sched.json"
    save_schedule(Schedule(25, 2, tuple(Contract(p, p % 2, 1.0 + p) for p in range(25)) + (Contract(0, 0, 99.0),)),
                  sched_path)
    for extra in ([], ["--csv", str(tmp_path / "series.csv")]):
        code, out, err = run_cli(["eval", "--schedule", str(sched_path), "--measure", "def", *extra], capsys)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InstanceTooLargeError" and "guard of 24" in error["message"]


def one_contract(**fields):
    return {"n": 2, "m": 1, "contracts": [{"problem": 0, "processor": 0, "length": 1.0, **fields}]}


MALFORMED_SCHEDULES = {
    "top-level-list": ([], "must be a JSON object"),
    "contracts-not-a-list": ({"n": 1, "m": 1, "contracts": 5}, "'contracts' must be a list"),
    "contract-not-an-object": ({"n": 1, "m": 1, "contracts": [5]}, "contract 0 must be a JSON object"),
    "float-problem": (one_contract(problem=1.7), "problem must be an integer, got 1.7"),
    "float-processor": (one_contract(processor=0.0), "processor must be an integer, got 0.0"),
    "bool-problem": (one_contract(problem=False), "problem must be an integer, got False"),
    "string-length": (one_contract(length="1"), "length must be a number"),
    "huge-int-length": (one_contract(length=10**400), "contract 0: length is outside the float range"),
    "float-n": ({**one_contract(), "n": 2.0}, "n must be an integer, got 2.0"),
    "bool-m": ({**one_contract(), "m": True}, "m must be an integer, got True"),
    "generator-not-an-object": ({**one_contract(), "generator": 5}, "'generator' must be a JSON object"),
}


@pytest.mark.parametrize("doc, message", MALFORMED_SCHEDULES.values(), ids=MALFORMED_SCHEDULES.keys())
def test_eval_rejects_malformed_schedule(tmp_path, capsys, doc, message):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["eval", "--schedule", str(path), "--measure", "acc"], capsys)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert message in error["message"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_eval_rejects_a_non_finite_length_in_the_file(tmp_path, capsys, token):
    # json.loads reads these tokens as floats, so they pass the exact-type check and reach the length check
    rows = ['{"problem":%d,"processor":0,"length":%s}' % row for row in ((0, "1.0"), (1, token), (0, "4.0"))]
    path = tmp_path / "sched.json"
    path.write_text('{"n":2,"m":1,"contracts":[%s]}' % ",".join(rows))
    code, out, err = run_cli(["eval", "--schedule", str(path), "--measure", "acc"], capsys)
    assert code == 1 and out == "" and "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == f"contract 1: length must be positive and finite, got {float(token)}"


def test_eval_rejects_a_boolean_problem_in_the_file(tmp_path, capsys):
    path = tmp_path / "sched.json"
    rows = [{"problem": 0, "processor": 0, "length": 1.0}, {"problem": True, "processor": 0, "length": 2.0},
            {"problem": 1, "processor": 0, "length": 4.0}]
    path.write_text(json.dumps({"n": 2, "m": 1, "contracts": rows}))
    code, out, err = run_cli(["eval", "--schedule", str(path), "--measure", "acc"], capsys)
    assert code == 1 and out == "" and "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == "contract 1: problem must be an integer, got True"


def test_eval_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "sched.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(["eval", "--schedule", str(path), "--measure", "acc"], capsys)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and "nests too deeply" in error["message"]


def test_eval_rejects_overflowing_finish_times(tmp_path, capsys):
    # every length fits (2**1023 is the largest), but the running load reaches 2**1024 = inf
    path = tmp_path / "sched.json"
    code, _, _ = run_cli(["gen", "--n", "2", "--m", "1", "--base", "2", "--k", "1024", "--out", str(path)], capsys)
    assert code == 0
    # this one needs a normalization step (contract 2 is dominated), so normalize reads its finish times
    unnormalized = tmp_path / "unnormalized.json"
    save_schedule(Schedule(2, 1, [Contract(0, 0, 1e308), Contract(1, 0, 1e308), Contract(0, 0, 1e308)]), unnormalized)
    for args in (
        ["eval", "--schedule", str(path), "--measure", "acc"],
        ["eval", "--schedule", str(path), "--measure", "perf"],
        ["eval", "--schedule", str(path), "--measure", "def", "--solver", "lpt"],
        ["normalize", "--schedule", str(unnormalized)],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 1, args
        assert "Infinity" not in out
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "processor 0" in error["message"] and "overflow" in error["message"]


@pytest.mark.parametrize("measure", ["acc", "perf", "def"])
@pytest.mark.parametrize("base", [1, 0.5, "x", 10**400], ids=["1", "0.5", "x", "huge-int"])
def test_eval_rejects_a_bad_generator_base(tmp_path, capsys, measure, base):
    # base 1 divided by zero in the acceleration limit, 0.5 gave a negative analytic value,
    # and an integer beyond the float range cannot be converted
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({**one_contract(), "generator": {"family": "exponential", "base": base}}))
    code, out, err = run_cli(["eval", "--schedule", str(path), "--measure", measure], capsys)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == f"exponential generator base must be a finite number > 1, got {base!r}"


@pytest.mark.parametrize("measure, message", [
    ("acc", "cyclic-acceleration functional at a=1e+300 overflows the float range"),
    ("perf", "cyclic-acceleration functional at a=1e+300 overflows the float range"),
    ("def", "exponential deficiency bound at n=2, m=1, b=1e+300 overflows the float range"),
])
def test_eval_rejects_a_base_whose_closed_form_overflows(tmp_path, capsys, measure, message):
    # the analytic closed forms raised OverflowError tracebacks
    doc = {"n": 2, "m": 1, "generator": {"family": "exponential", "base": 1e300},
           "contracts": [{"problem": 0, "processor": 0, "length": 1.0}, {"problem": 1, "processor": 0, "length": 2.0}]}
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["eval", "--schedule", str(path), "--measure", measure], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


@pytest.mark.parametrize("field", ["n", "m"])
@pytest.mark.parametrize("args", [["eval", "--measure", "acc"], ["eval", "--measure", "def"], ["normalize"]],
                         ids=["eval-acc", "eval-def", "normalize"])
def test_schedule_rejects_n_and_m_beyond_an_index(tmp_path, capsys, field, args):
    # a per-problem or per-processor list of 10**20 entries raised an OverflowError traceback
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({**one_contract(), field: 10**20}))
    code, out, err = run_cli([*args, "--schedule", str(path)], capsys)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].endswith(f"must be in [1, {sys.maxsize}], got {10**20}")


# --- bounds ----------------------------------------------------------------------


def test_bounds_two_problem_lb(capsys):
    code, out, _ = run_cli(["bounds", "--name", "two-problem-lb"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(2.1165, abs=1e-3)
    assert doc["params"]["a"] == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)


def test_bounds_def_upper(capsys):
    code, out, _ = run_cli(["bounds", "--name", "def-upper", "--n", "1", "--m", "1", "--b", "2"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 4.0
    b = 1e154  # b**2 is just inside the float range, and the value stays the formula's
    code, out, _ = run_cli(["bounds", "--name", "def-upper", "--n", "1", "--m", "1", "--b", repr(b)], capsys)
    assert code == 0
    assert json.loads(out)["value"] == min(1.0, b / (b - 1.0)) * b**2 / (b - 1.0)


@pytest.mark.parametrize("n, m, b, message", [
    ("1", "1", "inf", "base must be a finite number > 1, got inf"),
    ("1", "1", "nan", "base must be a finite number > 1, got nan"),
    ("1", "1", "1e300", "exponential deficiency bound at n=1, m=1, b=1e+300 overflows the float range"),
    ("2", "2", "1e200", "exponential deficiency bound at n=2, m=2, b=1e+200 overflows the float range"),
    ("3000", "1", "2", "exponential deficiency bound at n=3000, m=1, b=2.0 overflows the float range"),
])
def test_bounds_def_upper_rejects_a_bound_beyond_the_float_range(capsys, n, m, b, message):
    # an infinite base printed NaN with exit 0, and the overflowing powers were tracebacks
    code, out, err = run_cli(["bounds", "--name", "def-upper", "--n", n, "--m", m, "--b", b], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


@pytest.mark.parametrize(
    "name, missing",
    [(name, field) for name, (needs, _) in BOUND_BUILDERS.items() for field in needs],
    ids=lambda v: v,
)
def test_bounds_missing_parameter(capsys, name, missing):
    given = {"n": "3", "m": "2", "b": "2"}
    args = ["bounds", "--name", name]
    for field in BOUND_BUILDERS[name][0]:
        if field != missing:
            args += [f"--{field}", given[field]]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["message"] == f"bound {name!r} requires --{missing}"


@pytest.mark.parametrize("name", sorted(BOUND_BUILDERS))
def test_bound_builders_take_their_needs_in_order(name):
    # cmd_bounds passes the needed fields positionally, in the order they are listed
    needs, builder = BOUND_BUILDERS[name]
    params = inspect.signature(getattr(bounds, builder)).parameters.values()
    assert [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD] == list(needs)
    assert len(params) == len(needs)


# --- makespan ----------------------------------------------------------------------


def test_makespan_exact(capsys):
    code, out, _ = run_cli(["makespan", "--sizes", "1,2,4", "--m", "2", "--solver", "exact"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["makespan"] == 4.0
    assert doc["optimal"] is True
    assert sorted(doc["loads"]) == [3.0, 4.0]


def test_makespan_greedy_and_lpt(capsys):
    _, out, _ = run_cli(["makespan", "--sizes", "1,2,4", "--m", "2", "--solver", "greedy"], capsys)
    assert json.loads(out)["makespan"] == 5.0
    _, out, _ = run_cli(["makespan", "--sizes", "3,3,2,2,2", "--m", "2", "--solver", "lpt"], capsys)
    assert json.loads(out)["makespan"] == 7.0


def test_makespan_rejects_m_beyond_an_index(capsys):
    code, out, err = run_cli(["makespan", "--sizes", "1,2", "--m", str(10**20)], capsys)
    assert code == 1 and out == ""
    message = f"m must be in [1, {sys.maxsize}], got {10**20}"
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


# --- normalize ----------------------------------------------------------------------


def test_normalize_cli(tmp_path, capsys):
    sched_path = tmp_path / "in.json"
    sched_path.write_text(
        json.dumps(
            {
                "n": 2,
                "m": 1,
                "contracts": [
                    {"problem": 0, "processor": 0, "length": 1.0},
                    {"problem": 0, "processor": 0, "length": 2.0},
                    {"problem": 1, "processor": 0, "length": 4.0},
                ],
            }
        )
    )
    out_path = tmp_path / "out.json"
    trace_path = tmp_path / "trace.json"
    code, _, _ = run_cli(
        ["normalize", "--schedule", str(sched_path), "--out", str(out_path), "--trace", str(trace_path)], capsys
    )
    assert code == 0
    out_sched = load_schedule(out_path)
    assert [c.problem for c in out_sched.contracts] == [0, 1, 0]
    trace = json.loads(trace_path.read_text())
    assert trace["steps"][0]["kind"] == "swap-assignment"
    assert trace["identity"] is False


def test_normalize_cli_with_reduction(tmp_path, capsys):
    sched_path = tmp_path / "in.json"
    sched_path.write_text(
        json.dumps(
            {
                "n": 2,
                "m": 1,
                "contracts": [
                    {"problem": 0, "processor": 0, "length": 1.0},
                    {"problem": 1, "processor": 0, "length": 10.0},
                    {"problem": 0, "processor": 0, "length": 2.0},
                    {"problem": 0, "processor": 0, "length": 3.0},
                    {"problem": 0, "processor": 0, "length": 4.0},
                ],
            }
        )
    )
    out_path = tmp_path / "out.json"
    code, _, _ = run_cli(
        ["normalize", "--schedule", str(sched_path), "--out", str(out_path), "--reduce-pairs"], capsys
    )
    assert code == 0
    out_sched = load_schedule(out_path)
    runs = []
    for c in out_sched.contracts:
        if runs and runs[-1][0] == c.problem:
            runs[-1][1] += 1
        else:
            runs.append([c.problem, 1])
    assert all(count <= 2 for _, count in runs)


# --- sweep ------------------------------------------------------------------------


def test_sweep_figure3(tmp_path, capsys):
    path = tmp_path / "fig3.csv"
    code, _, _ = run_cli(["sweep", "--figure", "3", "--csv", str(path)], capsys)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "n,lower,exp"
    assert len(lines) == 22  # comment + header + n = 1..20
    first = lines[2].split(",")
    assert first[0] == "1" and float(first[1]) == 2.0 and float(first[2]) == 4.0
    n20 = lines[-1].split(",")
    assert float(n20[1]) == pytest.approx(21 / 20, rel=1e-9)
    assert float(n20[2]) == pytest.approx(1.2226446837204858, rel=1e-9)


def test_sweep_figure1_anchors(tmp_path, capsys):
    path = tmp_path / "fig1.csv"
    run_cli(["sweep", "--figure", "1", "--csv", str(path)], capsys)
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    values = [float(r[1]) for r in rows]
    assert values[0] == 4.0
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > math.e for v in values)


def test_sweep_figure2_max(tmp_path, capsys):
    path = tmp_path / "fig2.csv"
    run_cli(["sweep", "--figure", "2", "--csv", str(path)], capsys)
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    assert len(rows) == 64 * 64
    best = max(rows, key=lambda r: float(r[2]))
    assert (best[0], best[1]) == ("2", "1")
    assert float(best[2]) == pytest.approx(2.803778964789789, abs=1e-6)


# SHA-256 of each figure's CSV: pins the content, which test_sweep_reproducible_bytes does not
FIGURE_DIGESTS = {
    1: "0c9528ba2d80bc02b322c30443f194bde62f5ea3ceba41856a79dfbcbeaac408",
    2: "97838df98082ff5d97ba847af5095d46bdc5f3533a37fa535714d5a679111c36",
    3: "c5cf2f38ec16eaabb66df6264cbae430f921b35a23ac019dba96ba9a979e27a4",
}


@pytest.mark.parametrize("figure", sorted(FIGURE_DIGESTS))
def test_sweep_csv_digests(tmp_path, capsys, figure):
    path = tmp_path / f"fig{figure}.csv"
    code, _, _ = run_cli(["sweep", "--figure", str(figure), "--csv", str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIGURE_DIGESTS[figure]


def test_sweep_reproducible_bytes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["sweep", "--figure", "2", "--csv", str(p1)], capsys)
    run_cli(["sweep", "--figure", "2", "--csv", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


# --- verify ------------------------------------------------------------------------


def test_verify_single_check(capsys):
    code, out, _ = run_cli(["verify", "--only", "C01"], capsys)
    assert code == 0
    assert out.startswith("C01 PASS")


def test_verify_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(["verify", "--only", "C01", "C05", "--json", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert [r["id"] for r in doc["results"]] == ["C01", "C05"]
    assert all(r["passed"] for r in doc["results"])


def test_cli_run_checks_forwards_to_verification():
    # the CLI keeps its own run_checks name for the benchmark's traced run; it must be the same run
    config = verification.VerifyConfig(seed=0)
    via_cli = cli.run_checks(config, ids=["C01", "C05"])
    direct = verification.run_checks(config, ids=["C01", "C05"])
    assert [(r.check_id, r.passed, r.details) for r in via_cli] == [(r.check_id, r.passed, r.details) for r in direct]
    assert [r.check_id for r in via_cli] == ["C01", "C05"]


def test_verify_tolerance_override(capsys):
    # absurdly tight tolerance scale must flip C01 to FAIL and exit nonzero
    code, out, _ = run_cli(["verify", "--only", "C01", "--tolerance-scale", "1e-12"], capsys)
    assert code == 1
    assert "C01 FAIL" in out


@pytest.mark.parametrize("args, message", [
    (["--trials-scale", "inf"], "trials scale must be a finite number > 0, got inf"),
    (["--trials-scale", "0"], "trials scale must be a finite number > 0, got 0.0"),
    (["--trials-scale", "-1"], "trials scale must be a finite number > 0, got -1.0"),
    (["--tolerance-scale", "nan"], "tolerance scale must be a finite number > 0, got nan"),
    (["--tolerance-scale", "inf"], "tolerance scale must be a finite number > 0, got inf"),
    (["--tolerance-scale", "0"], "tolerance scale must be a finite number > 0, got 0.0"),
    (["--only", "C99"], "unknown check ids: C99"),
    (["--only", "C01", "P77", "C99"], "unknown check ids: C99, P77"),
    (["--only"], "no check ids given"),
])
def test_verify_rejects_hostile_scales_and_ids(capsys, args, message):
    code, out, err = run_cli(["verify", *args], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


def run_child(args):
    # The child must import the same package as this process, whether it came
    # from an install or from a source directory on PYTHONPATH.
    package_root = os.path.dirname(os.path.dirname(contractsched.__file__))
    path = [package_root] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


def test_usage_error_exit_code():
    proc = run_child(["-m", "contractsched.cli", "nonsense"])
    assert proc.returncode == 2
    assert "invalid choice: 'nonsense'" in proc.stderr


# prints, as its last stdout line, the package's submodules that a CLI process loaded
LOADED_SUBMODULES = (
    "import json, sys, contractsched.cli\n"
    "code = contractsched.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(json.dumps(sorted(m.split('.')[1] for m in sys.modules if m.startswith('contractsched.'))))\n"
    "sys.exit(code)\n"
)
CLI_IMPORT_MODULES = {"cli", "core", "generators", "makespan"}


def test_cli_import_does_not_load_numpy():
    # the package has no third-party runtime dependency, and every CLI process pays for what it imports
    code = "import sys, contractsched.cli; print(contractsched.__file__); print('numpy' in sys.modules)\n"
    proc = run_child(["-c", code + LOADED_SUBMODULES])
    assert proc.returncode == 0, proc.stderr
    package_file, numpy_loaded, submodules = proc.stdout.splitlines()
    assert package_file == contractsched.__file__
    assert numpy_loaded == "False"
    assert set(json.loads(submodules)) == CLI_IMPORT_MODULES


@pytest.mark.parametrize("args, extra", [
    (["gen", "--n", "2", "--m", "1", "--k", "8"], set()),
    (["bounds", "--name", "def-upper-beta", "--n", "3", "--m", "2"], {"bounds"}),
    (["eval", "--schedule", "MULTI", "--measure", "def", "--solver", "exact"], {"bounds", "metrics"}),
    (["normalize", "--schedule", "SINGLE"], {"bounds", "metrics", "transforms"}),
], ids=["gen", "bounds", "eval", "normalize"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, args, extra):
    # one stray top-level import in cli.py would make every command compile every module again
    paths = {"MULTI": tmp_path / "multi.json", "SINGLE": tmp_path / "single.json"}
    save_schedule(Schedule(2, 2, [Contract(0, 0, 1.0), Contract(1, 1, 2.0), Contract(0, 1, 4.0)]), paths["MULTI"])
    save_schedule(Schedule(2, 1, [Contract(0, 0, 1.0), Contract(1, 0, 2.0), Contract(0, 0, 4.0)]), paths["SINGLE"])
    proc = run_child(["-c", LOADED_SUBMODULES, *(str(paths.get(a, a)) for a in args)])
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) == CLI_IMPORT_MODULES | extra


# SHA-256 of each demo's stdout, recorded before the measures shared one window loop
DEMO_DIGESTS = {
    "doubling_and_measures.py": "35229e9ef7bf46e293fe3b955cd29148fedf8e723fc91bd2c99fa3607db0f613",
    "lower_bound_functionals.py": "f97bd605f9dabbd644e2e41d4f1b86dbdd198e92c45dfb44da5ce5b579949d23",
    "makespan_solvers.py": "266b416b6b5d72798abcf3c6eac7506bc78e9fc02d12d7dcfb7ebe707d6d100d",
    "multiprocessor_deficiency.py": "f2aa1e43bf61e89b54cc354ae71d6d5ac2ce64378965e47fd1fea3146ca224cd",
    "normalization_walkthrough.py": "50f504ab3341f6702da82988688659e962d4ead79312d987fd214c9728fc623e",
}
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def test_every_demo_has_a_pinned_digest():
    assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_prints_its_pinned_output(demo):
    proc = run_child([os.path.join(DEMOS, demo)])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_DIGESTS[demo]
