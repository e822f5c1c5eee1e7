"""Output checks of every benchmark command.

Values are compared with ``references.json``, recorded once by
``record_references.py`` from the program at the commit that introduced the
benchmark, and with invariants that hold whatever the reference says:

* def(lpt) <= def(exact) on the same schedule;
* a value is at most its ``analytic`` upper bound, when the report gives one;
* ``normalize`` output obeys the least-served rule, and no recorded step
  raises the deficiency;
* ``verify`` passes every check.

The single-processor deficiency and the least-served rule are computed here
from the schedule JSON, independently of the program.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from bench_spans import VERIFY_CHECKS

REFERENCES = Path(__file__).with_name("references.json")

# Reference values are bit-exact at the recording commit; the tolerance leaves
# room for a later change of summation order.
REL_TOL = 1e-9
# Slack of the "no step raises the deficiency" check, the same as the
# repository's own transform-safety gate (verification C09): a suffix swap
# reorders floating-point sums, which can move a value by one ulp.
STEP_SLACK = 1e-9


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def deficiency_m1(doc: dict) -> float:
    """sup over served windows of t / (sum of per-problem longest lengths completed before t), on one processor."""
    longest = [0.0] * doc["n"]
    finish = 0.0
    best = -math.inf
    for c in doc["contracts"]:
        finish += c["length"]
        if min(longest) > 0.0:
            best = max(best, finish / sum(longest))
        longest[c["problem"]] = max(longest[c["problem"]], c["length"])
    return best if best > -math.inf else math.inf


def obeys_least_served(doc: dict) -> bool:
    """True if every contract starts for a problem whose completed length is minimal (within 1e-9)."""
    longest = [0.0] * doc["n"]
    for c in doc["contracts"]:
        low = min(longest)
        mine = longest[c["problem"]]
        if mine > low and not math.isclose(mine, low, rel_tol=1e-9, abs_tol=1e-12):
            return False
        longest[c["problem"]] = max(mine, c["length"])
    return True


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL_TOL)


def _check_gen(check: dict, ref: dict, work: Path) -> list[str]:
    doc = json.loads((work / check["out"]).read_text(encoding="utf-8"))
    n, m, k, base = ref["n"], ref["m"], ref["k"], ref["base"]
    problems = []
    if (doc["n"], doc["m"], len(doc["contracts"])) != (n, m, k):
        problems.append(f"gen: shape {(doc['n'], doc['m'], len(doc['contracts']))} != {(n, m, k)}")
        return problems
    if not _close(doc.get("generator", {}).get("base", math.nan), base):
        problems.append(f"gen: base {doc.get('generator')} != {base}")
    for i in sorted({0, 1, k // 2, k - 1}):
        c = doc["contracts"][i]
        if (c["problem"], c["processor"]) != (i % n, i % m) or not _close(c["length"], base**i):
            problems.append(f"gen: contract {i} is {c}")
    return problems


def _check_eval(check: dict, ref: dict, stdout: str, seen: dict) -> list[str]:
    report = json.loads(stdout)
    if "error" in report:
        return [f"eval: error {report['error']}"]
    measure, solver = check["measure"], check["solver"]
    expected = ref[f"def_{solver}" if measure == "def" else measure]
    value = report["value"]
    problems = []
    if not _close(value, expected):
        problems.append(f"eval {measure}/{solver}: value {value!r} != reference {expected!r}")
    if (report["windows"], report["unserved_windows"]) != (ref["windows"], ref["unserved_windows"]):
        problems.append(f"eval: windows {report['windows']}+{report['unserved_windows']} != "
                        f"reference {ref['windows']}+{ref['unserved_windows']}")
    analytic = report.get("analytic")
    if analytic and analytic.get("kind") == "upper_bound" and value > analytic["value"] * (1 + REL_TOL):
        problems.append(f"eval {measure}: value {value!r} above its analytic upper bound {analytic['value']!r}")
    if measure == "def":
        seen[(check["ref"], solver)] = value
        exact = seen.get((check["ref"], "exact"))
        if solver == "lpt" and exact is not None and value > exact:
            problems.append(f"eval: def(lpt) {value!r} > def(exact) {exact!r}")
    return problems


def _check_normalize(check: dict, ref: dict, work: Path) -> list[str]:
    trace = json.loads((work / check["trace"]).read_text(encoding="utf-8"))
    traces = [trace["normalize"], trace["reduce_consecutive_pairs"]] if check["reduce"] else [trace]
    output = json.loads((work / check["out"]).read_text(encoding="utf-8"))
    problems = []
    for part in traces:
        for step in part["steps"]:
            if step["deficiency_after"] > step["deficiency_before"] + STEP_SLACK:
                problems.append(f"normalize: step {step['kind']}@{step['index']} raises the deficiency "
                                f"{step['deficiency_before']!r} -> {step['deficiency_after']!r}")
    if not obeys_least_served(output):
        problems.append("normalize: output breaks the least-served rule")
    steps = [len(part["steps"]) for part in traces]
    if steps != ref["steps"] or len(output["contracts"]) != ref["output_contracts"]:
        problems.append(f"normalize: {steps} steps and {len(output['contracts'])} contracts != "
                        f"reference {ref['steps']} and {ref['output_contracts']}")
    if not _close(deficiency_m1(output), ref["deficiency"]):
        problems.append(f"normalize: output deficiency {deficiency_m1(output)!r} != reference {ref['deficiency']!r}")
    return problems


def _check_verify(check: dict, work: Path) -> list[str]:
    report = json.loads((work / check["json"]).read_text(encoding="utf-8"))
    ids = tuple(r["id"] for r in report["results"])
    problems = [f"verify: {r['id']} failed: {r['details']}" for r in report["results"] if not r["passed"]]
    if ids != VERIFY_CHECKS:
        problems.append(f"verify: ran {ids}, expected {VERIFY_CHECKS}")
    return problems


def check_command(check: dict, refs: dict, exit_code: int, stdout: str, stderr: str, work: Path,
                  seen: dict) -> list[str]:
    """Problems found in one command's outcome; empty when it is correct.

    ``refs`` is the workload's reference table.  ``seen`` carries values
    between commands of one pass, for checks that compare two outputs.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}: {stderr.strip()[:300]}"]
    if '"error"' in stderr:
        return [f"error JSON on stderr: {stderr.strip()[:300]}"]
    kind = check["kind"]
    try:
        if kind == "verify":
            return _check_verify(check, work)
        ref = refs[check["ref"]]
        if kind == "gen":
            return _check_gen(check, ref, work)
        if kind == "eval":
            return _check_eval(check, ref, stdout, seen)
        return _check_normalize(check, ref, work)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{kind}: unreadable output ({type(exc).__name__}: {exc})"]
