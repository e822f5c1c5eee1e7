"""Record the reference values that bench_checks compares outputs with.

Usage (from the repository root): python3 perfbench/record_references.py

Runs every catalogue entry of every workload through the library in-process
and writes ``references.json``.  The file is recorded once, at the commit
that introduced the benchmark; re-recording it on a later commit would hide
a change of results, so do it only for a deliberate change of semantics and
say so where the change is described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_inputs as inputs  # noqa: E402
from bench_checks import REFERENCES, deficiency_m1  # noqa: E402
from bench_spans import VERIFY_CHECKS  # noqa: E402
from contractsched import (  # noqa: E402
    ExponentialSpec,
    acceleration_ratio,
    deficiency,
    deficiency_optimal_base,
    exponential_schedule,
    normalize,
    performance_ratio,
    schedule_from_dict,
    schedule_to_dict,
)
from contractsched.transforms import reduce_consecutive_pairs  # noqa: E402
from contractsched.verification import ALL_CHECKS  # noqa: E402


def _windows(report) -> dict:
    return {"windows": len(report.samples), "unserved_windows": len(report.unserved_times)}


def exp_beta_def() -> dict:
    out = {}
    for n, m in inputs.EXP_LADDER:
        base = deficiency_optimal_base(n, m)
        spec = ExponentialSpec(n=n, m=m, base=base)
        sched = exponential_schedule(spec)
        exact = deficiency(sched, solver="exact")
        out[f"{n}x{m}"] = {"n": n, "m": m, "k": spec.contracts_to_build, "base": base, **_windows(exact),
                           "def_exact": exact.value, "def_lpt": deficiency(sched, solver="lpt").value}
    return out


def random_growing_def() -> dict:
    out = {}
    for index in inputs.GROWING_CATALOGUE:
        sched = schedule_from_dict(inputs.growing_schedule(index))
        exact = deficiency(sched, solver="exact")
        out[str(index)] = {**_windows(exact), "def_exact": exact.value,
                           "def_lpt": deficiency(sched, solver="lpt").value}
    return out


def long_prefix_cli() -> dict:
    out = {}
    n, m, k = inputs.LONG_PREFIX
    for base in inputs.LONG_BASES:
        sched = exponential_schedule(ExponentialSpec(n=n, m=m, base=base, k_max=k))
        acc = acceleration_ratio(sched)
        out[inputs.long_prefix_key(n, m, base, k)] = {
            "n": n, "m": m, "k": k, "base": base, **_windows(acc), "acc": acc.value,
            "perf": performance_ratio(sched).value, "def_lpt": deficiency(sched, solver="lpt").value,
        }
    return out


def verify_transforms() -> dict:
    out = {}
    for index in inputs.SINGLE_CATALOGUE:
        sched = schedule_from_dict(inputs.single_processor_schedule(index))
        traces = [normalize(sched)]
        if sched.n_problems == 2:
            traces.append(reduce_consecutive_pairs(traces[0].output))
        output = schedule_to_dict(traces[-1].output)
        out[str(index)] = {"steps": [len(t.steps) for t in traces], "output_contracts": len(output["contracts"]),
                           "deficiency": deficiency_m1(output)}
    return out


def main() -> int:
    ids = tuple(c.check_id for c in ALL_CHECKS)
    if ids != VERIFY_CHECKS:
        sys.stderr.write(f"verify checks are {ids}; update bench_spans.VERIFY_CHECKS first\n")
        return 1
    refs = {
        "exp-beta-def": exp_beta_def(),
        "random-growing-def": random_growing_def(),
        "long-prefix-cli": long_prefix_cli(),
        "verify-transforms": verify_transforms(),
    }
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
