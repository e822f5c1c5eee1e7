"""Command-line front end.

Subcommands: gen (schedule generation), eval (measure evaluation), bounds
(closed-form calculators), makespan (solvers), normalize (transforms), sweep
(figure data sets), verify (acceptance criteria and property suites).

Outputs are deterministic for a fixed configuration and seed.  CSV files
carry one leading comment line recording the parameters, then a header row;
numbers are written with 12 significant digits.  Exit codes: 0 on success,
1 on a domain error (with a machine-readable error JSON on stderr), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import _split_count, load_schedule, save_schedule, schedule_to_dict, snapshots_before
from .generators import (
    ExponentialSpec,
    acceleration_optimal_base,
    deficiency_optimal_base,
    exponential_schedule,
)
from .makespan import MakespanInstance, exact_makespan, greedy_in_order, lpt_makespan

# Each command imports the other modules it needs (metrics, transforms, bounds,
# verification, csv) when it runs, so a process loads only what its command uses.


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(path: str, comment: str, header: list[str], rows: list[list[str]]) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {comment}\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=False))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    if args.base == "auto-def":
        base = deficiency_optimal_base(args.n, args.m)
    elif args.base == "auto-acc":
        base = acceleration_optimal_base(args.n, args.m)
    else:
        base = float(args.base)
    spec = ExponentialSpec(n=args.n, m=args.m, base=base, k_max=args.k)
    sched = exponential_schedule(spec)
    if args.out:
        save_schedule(sched, args.out)
    else:
        _print_json(schedule_to_dict(sched))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import metrics

    sched = load_schedule(args.schedule)
    samples = args.csv is not None
    if args.measure == "acc":
        report = metrics.acceleration_ratio(sched, samples=samples)
    elif args.measure == "perf":
        report = metrics.performance_ratio(sched, samples=samples)
    else:
        report = metrics.deficiency(sched, solver=args.solver, samples=samples)
    doc = {
        "measure": report.measure,
        # +inf when no window is served; JSON has no infinity, so it prints as null, like its argmax_time
        "value": None if report.value == float("inf") else report.value,
        "argmax_time": report.argmax_time,
        "windows": report.windows,
        "unserved_windows": len(report.unserved_times),
        "incomplete": report.incomplete,
        "truncation_note": report.truncation_note,
        "analytic": report.analytic,
        "solver": report.solver,
        "exact": report.exact,
        "opt_solves": report.opt_solves,
        "pruned_windows": report.pruned_windows,
    }
    # the file is written before anything is printed, so a failed write prints only the error JSON
    if args.csv:
        n = sched.n_problems
        denom_name = {"exact": "opt", "lpt": "lpt"}[args.solver] if args.measure == "def" else "denominator"
        names = [None] * n  # every slot in one allocation: an n beyond memory is a MemoryError at once
        for i in range(n):
            names[i] = f"s{i + 1}"
        header = ["time", *names, denom_name, "ratio", "served"]
        # a served window stays served, so the unserved windows come first in time
        rows = [
            [_fmt(t)] + [_fmt(v) for v in sorted(longest)] + ["0", "inf", "0"]
            for t, longest in zip(report.unserved_times, snapshots_before(sched, report.unserved_times))
        ]
        for s in report.samples:
            rows.append(
                [_fmt(s.time)]
                + [_fmt(v) for v in s.snapshot]
                + [_fmt(s.denominator), _fmt(s.ratio), "1" if s.served else "0"]
            )
        comment = f"command=eval measure={args.measure} solver={args.solver} schedule={args.schedule} n={n} m={sched.m_processors}"
        _write_csv(args.csv, comment, header, rows)
    _print_json(doc)
    return 0


# name -> (parameters the bound needs, the builder in `bounds` that takes them in that order)
BOUND_BUILDERS = {
    "def-upper": (("n", "m", "b"), "deficiency_upper_bound"),
    "def-upper-beta": (("n", "m"), "deficiency_upper_bound_at_beta"),
    "best-exp-def-m1": (("n",), "best_exponential_deficiency_single_processor"),
    "def-lower-general": (("n",), "deficiency_lower_bound_general"),
    "def-lower-roundrobin": (("n",), "roundrobin_lower_bound"),
    "two-problem-lb": ((), "two_problem_lower_bound"),
    "cyclic-acc-lb": (("n", "m"), "cyclic_acceleration_lower_bound"),
    "perf-closed-form": (("n", "m"), "performance_ratio_closed_form"),
}


def cmd_bounds(args: argparse.Namespace) -> int:
    from . import bounds

    needs, builder = BOUND_BUILDERS[args.name]
    for field in needs:
        if getattr(args, field) is None:
            raise ValueError(f"bound {args.name!r} requires --{field}")
    report = getattr(bounds, builder)(*(getattr(args, field) for field in needs))
    _print_json(report._asdict())
    return 0


def cmd_makespan(args: argparse.Namespace) -> int:
    sizes = tuple(float(tok) for tok in args.sizes.split(",") if tok)
    instance = MakespanInstance(sizes=sizes, m=args.m)
    if args.solver == "exact":
        assignment = exact_makespan(instance)
    elif args.solver == "greedy":
        assignment = greedy_in_order(instance)
    else:
        assignment = lpt_makespan(instance)
    _print_json(
        {
            "makespan": assignment.makespan,
            "loads": list(assignment.loads),
            "assignment": list(assignment.processor_of),
            "optimal": assignment.optimal,
        }
    )
    return 0


def _trace_to_dict(trace) -> dict:
    """The JSON form of a `transforms.NormalizationTrace`."""
    return {
        "identity": trace.identity,
        # a deficiency is +inf where no window is served: null, as eval prints it, since JSON has no infinity
        "steps": [{k: None if v == float("inf") else v for k, v in s._asdict().items()} for s in trace.steps],
        "run_outcomes": [o._asdict() for o in trace.run_outcomes],
        "input_contracts": len(trace.input),
        "output_contracts": len(trace.output),
    }


def cmd_normalize(args: argparse.Namespace) -> int:
    from . import transforms

    sched = load_schedule(args.schedule)
    trace = transforms.normalize(sched)
    combined = _trace_to_dict(trace)
    output = trace.output
    if args.reduce_pairs:
        second = transforms.reduce_consecutive_pairs(output)
        output = second.output
        combined = {"normalize": combined, "reduce_consecutive_pairs": _trace_to_dict(second)}
    if args.out:
        save_schedule(output, args.out)
    if args.trace:
        Path(args.trace).write_text(json.dumps(combined, indent=2) + "\n", encoding="utf-8")
    if not args.out and not args.trace:
        _print_json(combined)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import bounds

    if args.figure == 1:
        rows = [[_fmt(r), _fmt(perf)] for r, perf in bounds.figure1_performance_curve()]
        _write_csv(args.csv, "command=sweep figure=1 ratio=n/m r=1..64", ["ratio", "perf"], rows)
    elif args.figure == 2:
        rows = [[str(m), str(rho), _fmt(value)] for m, rho, value in bounds.figure2_deficiency_surface()]
        _write_csv(args.csv, "command=sweep figure=2 m=1..64 rho=1..64", ["m", "rho", "value"], rows)
    else:
        rows = [[str(n), _fmt(lower), _fmt(exp)] for n, lower, exp in bounds.figure3_single_processor_curves()]
        _write_csv(args.csv, "command=sweep figure=3 n=1..20", ["n", "lower", "exp"], rows)
    return 0


def run_checks(seed, ids=None):
    """Run `verification.run_checks`, importing `verification` only when `verify` runs.

    It stays a name of this module because perfbench/traced_cli.py times the
    checks by wrapping `contractsched.cli.run_checks`.
    """
    from . import verification

    return verification.run_checks(seed, ids=ids)


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(args.seed, ids=args.only)
    if args.json:  # written before anything is printed, so a failed write prints only the error JSON
        # the checks ran side by side, so their seconds need not add up to the command's wall time
        doc = {
            "seed": args.seed,
            "processes": _split_count(len(results), 1),
            "results": [
                {
                    "id": r.check_id,
                    "description": r.description,
                    "passed": r.passed,
                    "details": r.details,
                    "seconds": r.seconds,
                }
                for r in results
            ],
        }
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.check_id} {status} ({r.seconds:.2f}s) {r.description}: {r.details}")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contract-sched",
        description="Schedules of contract algorithms: generation, evaluation, bounds, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a schedule prefix")
    p.add_argument("--n", type=int, required=True, help="number of problems")
    p.add_argument("--m", type=int, required=True, help="number of processors")
    p.add_argument("--base", default="auto-def", help="'auto-def', 'auto-acc', or a float > 1")
    p.add_argument("--k", type=int, default=None, help="contracts to materialize (default 8*(n+m))")
    p.add_argument("--out", default=None, help="output schedule JSON path (default: stdout)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("eval", help="evaluate a measure on a schedule file")
    p.add_argument("--schedule", required=True)
    p.add_argument("--measure", required=True, choices=["acc", "perf", "def"])
    p.add_argument("--solver", default="exact", choices=["exact", "lpt"])
    p.add_argument("--csv", default=None, help="write the per-critical-time series here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bounds", help="closed-form bound calculators")
    p.add_argument("--name", required=True, choices=sorted(BOUND_BUILDERS))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--b", type=float, default=None)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("makespan", help="makespan solvers on identical processors")
    p.add_argument("--sizes", required=True, help="comma-separated job sizes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--solver", default="exact", choices=["exact", "greedy", "lpt"])
    p.set_defaults(fn=cmd_makespan)

    p = sub.add_parser("normalize", help="normalize a single-processor schedule")
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", default=None, help="write the transformed schedule here")
    p.add_argument("--trace", default=None, help="write the step trace here")
    p.add_argument("--reduce-pairs", action="store_true", help="also shorten runs of >2 consecutive contracts (n=2)")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("sweep", help="emit figure data sets as CSV")
    p.add_argument("--figure", type=int, required=True, choices=[1, 2, 3])
    p.add_argument("--csv", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run the acceptance criteria and property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", nargs="*", default=None, help="check ids to run (default: all)")
    p.add_argument("--json", default=None, help="write the result report here")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        # a MemoryError from an allocation the input asks for carries no message of its own
        message = str(exc) or "the input needs more memory than can be allocated"
        sys.stderr.write(json.dumps({"error": {"type": type(exc).__name__, "message": message}}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
