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
from contractsched.cli import main


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
        [f"{t:.12g}"] + [f"{v:.12g}" for v in sorted(snapshot_before(s, t).longest)]
        for t in acceleration_ratio(s).unserved_times
    ]
    assert unserved == expected
    assert len(expected) == 5
    assert expected[-1] == ["7.5", "0", "2.5", "3"]


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


def test_bounds_missing_parameter(capsys):
    code, _, err = run_cli(["bounds", "--name", "def-upper", "--n", "1", "--m", "1"], capsys)
    assert code == 1
    assert "requires" in json.loads(err)["error"]["message"]


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


def test_verify_tolerance_override(capsys):
    # absurdly tight tolerance scale must flip C01 to FAIL and exit nonzero
    code, out, _ = run_cli(["verify", "--only", "C01", "--tolerance-scale", "1e-12"], capsys)
    assert code == 1
    assert "C01 FAIL" in out


def test_usage_error_exit_code():
    # The child must import the same package as this process, whether it came
    # from an install or from a source directory on PYTHONPATH.
    package_root = os.path.dirname(os.path.dirname(contractsched.__file__))
    path = [package_root] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run(
        [sys.executable, "-m", "contractsched.cli", "nonsense"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert proc.returncode == 2
    assert "invalid choice: 'nonsense'" in proc.stderr
