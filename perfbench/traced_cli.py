"""Run one ``contract-sched`` command with spans around every layer boundary.

Usage: python3 traced_cli.py SPANS_JSON CLI_ARG...

Each public function is wrapped under the name its caller module imports it
as (``contractsched.metrics.exact_makespan``, ``contractsched.core.simulate``,
...), so every call crosses exactly one wrapper.  The command then runs
through ``contractsched.cli.main`` with the given arguments, and the spans,
counters and the clock reading taken just before ``main`` are written to
SPANS_JSON.  The program's own files are not changed.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

from bench_spans import Tracer

import contractsched.bounds
import contractsched.cli
import contractsched.core
import contractsched.metrics
import contractsched.transforms
import contractsched.verification

# (module, attribute as the caller module imports it, span name)
WRAPPED = (
    (contractsched.cli, "load_schedule", "core.load_schedule"),
    (contractsched.cli, "save_schedule", "core.save_schedule"),
    (contractsched.cli, "exponential_schedule", "generators.exponential_schedule"),
    (contractsched.cli, "deficiency_optimal_base", "generators.deficiency_optimal_base"),
    (contractsched.cli, "acceleration_optimal_base", "generators.acceleration_optimal_base"),
    (contractsched.cli, "exact_makespan", "makespan.exact"),
    (contractsched.cli, "lpt_makespan", "makespan.lpt"),
    (contractsched.cli, "run_checks", "verification.run_checks"),
    (contractsched.metrics, "acceleration_ratio", "metrics.acceleration_ratio"),
    (contractsched.metrics, "performance_ratio", "metrics.performance_ratio"),
    (contractsched.metrics, "deficiency", "metrics.deficiency"),
    (contractsched.metrics, "critical_times", "core.critical_times"),
    (contractsched.metrics, "simulate", "core.simulate"),
    (contractsched.metrics, "exact_makespan", "makespan.exact"),
    (contractsched.metrics, "lpt_makespan", "makespan.lpt"),
    (contractsched.core, "simulate", "core.simulate"),
    (contractsched.transforms, "normalize", "transforms.normalize"),
    (contractsched.transforms, "reduce_consecutive_pairs", "transforms.reduce"),
    (contractsched.transforms, "deficiency_value_m1", "transforms.deficiency_m1"),
    (contractsched.verification, "exact_makespan", "makespan.exact"),
    (contractsched.verification, "simulate", "core.simulate"),
    (contractsched.verification, "critical_times", "core.critical_times"),
    (contractsched.verification, "exponential_schedule", "generators.exponential_schedule"),
)


def install(tracer: Tracer) -> set:
    """Replace every boundary function with its traced wrapper.

    Returns the set that collects the ``(m, sizes)`` of every exact OPT
    solve; it is reduced to counts only after the command, off the clock.
    """
    instances: set = set()

    def exact_before(args) -> None:
        instances.add((args[0].m, args[0].sizes))

    def windows_after(args, report) -> None:
        tracer.count("windows", len(report.samples) + len(report.unserved_times))

    def steps_after(args, trace) -> None:
        tracer.count("transform_steps", len(trace.steps))

    def load_before(args) -> None:
        tracer.count("json_bytes", os.path.getsize(args[0]))

    def save_after(args, result) -> None:
        tracer.count("json_bytes", os.path.getsize(args[1]))

    hooks = {
        "makespan.exact": (exact_before, None),
        "metrics.acceleration_ratio": (None, windows_after),
        "metrics.performance_ratio": (None, windows_after),
        "metrics.deficiency": (None, windows_after),
        "transforms.normalize": (None, steps_after),
        "transforms.reduce": (None, steps_after),
        "core.load_schedule": (load_before, None),
        "core.save_schedule": (None, save_after),
    }
    for module, attr, name in WRAPPED:
        before, after = hooks.get(name, (None, None))
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), before, after))
    bounds = contractsched.bounds
    for attr, fn in inspect.getmembers(bounds, inspect.isfunction):
        if not attr.startswith("_") and fn.__module__ == bounds.__name__:
            setattr(bounds, attr, tracer.wrap(f"bounds.{attr}", fn))
    return instances


def count_instances(tracer: Tracer, instances: set) -> None:
    """Count the distinct OPT instances, and the distinct ones up to scale."""
    shapes = set()
    for m, sizes in instances:
        top = max(sizes)
        shapes.add((m, tuple(float(f"{s / top:.9g}") for s in sorted(sizes))))
    tracer.count("exact_distinct", len(instances))
    tracer.count("shape_distinct", len(shapes))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    instances = install(tracer)
    t_main = time.perf_counter()
    code = 1
    try:
        code = contractsched.cli.main(cli_args)
    finally:
        count_instances(tracer, instances)
        doc = {"t_main": t_main, "exit": code, "spans": tracer.spans, "counters": tracer.counters}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
