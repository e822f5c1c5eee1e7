"""Schedules of contract algorithms on identical processors.

Construction, simulation, and evaluation of interruptible systems built by
scheduling contract algorithms: the acceleration ratio, performance ratio,
and deficiency measures, exact small-instance oracles, makespan solvers,
closed-form bound calculators, and deficiency-safe schedule transforms.

Importing the package loads no submodule: each public name imports its
submodule when it is first read (PEP 562), so a CLI command compiles only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in the order of __all__
_EXPORTS = {
    "Contract": "core",
    "Schedule": "core",
    "critical_times": "core",
    "simulate": "core",
    "snapshot": "core",
    "snapshot_before": "core",
    "snapshots_before": "core",
    "load_schedule": "core",
    "save_schedule": "core",
    "schedule_from_dict": "core",
    "schedule_to_dict": "core",
    "ExponentialSpec": "generators",
    "exponential_schedule": "generators",
    "deficiency_optimal_base": "generators",
    "acceleration_optimal_base": "generators",
    "MakespanInstance": "makespan",
    "Assignment": "makespan",
    "InstanceTooLargeError": "makespan",
    "greedy_in_order": "makespan",
    "greedy_geometric_makespan": "bounds",
    "exact_makespan": "makespan",
    "lpt_makespan": "makespan",
    "MeasureReport": "metrics",
    "MeasureSample": "metrics",
    "acceleration_ratio": "metrics",
    "performance_ratio": "metrics",
    "deficiency": "metrics",
    "deficiency_bruteforce_oracle": "verification",
    "scaling_oracle": "verification",
    "BoundReport": "bounds",
    "deficiency_upper_bound": "bounds",
    "deficiency_upper_bound_at_beta": "bounds",
    "best_exponential_deficiency_single_processor": "bounds",
    "deficiency_lower_bound_general": "bounds",
    "roundrobin_lower_bound": "bounds",
    "two_problem_lower_bound": "bounds",
    "cyclic_acceleration_lower_bound": "bounds",
    "performance_ratio_closed_form": "bounds",
    "optimize_geometric_functional": "bounds",
    "truncated_functional_sup": "bounds",
    "figure1_performance_curve": "bounds",
    "figure2_deficiency_surface": "bounds",
    "figure3_single_processor_curves": "bounds",
    "NormalizationTrace": "transforms",
    "TransformStep": "transforms",
    "RunOutcome": "transforms",
    "normalize": "transforms",
    "reduce_consecutive_pairs": "transforms",
    "is_normalized": "transforms",
    "deficiency_value_m1": "transforms",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find it without calling __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
