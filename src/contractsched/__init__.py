"""Schedules of contract algorithms on identical processors.

Construction, simulation, and evaluation of interruptible systems built by
scheduling contract algorithms: the acceleration ratio, performance ratio,
and deficiency measures, exact small-instance oracles, makespan solvers,
closed-form bound calculators, and deficiency-safe schedule transforms.
"""

from .core import (
    Contract,
    Schedule,
    critical_times,
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    simulate,
    snapshot,
    snapshot_before,
    snapshots_before,
)
from .generators import (
    ExponentialSpec,
    acceleration_optimal_base,
    deficiency_optimal_base,
    exponential_schedule,
)
from .makespan import (
    Assignment,
    InstanceTooLargeError,
    MakespanInstance,
    exact_makespan,
    greedy_in_order,
    lpt_makespan,
)
from .metrics import (
    MeasureReport,
    MeasureSample,
    acceleration_ratio,
    deficiency,
    performance_ratio,
)
from .bounds import (
    BoundReport,
    best_exponential_deficiency_single_processor,
    cyclic_acceleration_lower_bound,
    deficiency_lower_bound_general,
    deficiency_upper_bound,
    deficiency_upper_bound_at_beta,
    figure1_performance_curve,
    figure2_deficiency_surface,
    figure3_single_processor_curves,
    greedy_geometric_makespan,
    optimize_geometric_functional,
    performance_ratio_closed_form,
    roundrobin_lower_bound,
    truncated_functional_sup,
    two_problem_lower_bound,
)
from .verification import deficiency_bruteforce_oracle, scaling_oracle
from .transforms import (
    NormalizationTrace,
    RunOutcome,
    TransformStep,
    deficiency_value_m1,
    is_normalized,
    normalize,
    reduce_consecutive_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "Contract",
    "Schedule",
    "critical_times",
    "simulate",
    "snapshot",
    "snapshot_before",
    "snapshots_before",
    "load_schedule",
    "save_schedule",
    "schedule_from_dict",
    "schedule_to_dict",
    "ExponentialSpec",
    "exponential_schedule",
    "deficiency_optimal_base",
    "acceleration_optimal_base",
    "MakespanInstance",
    "Assignment",
    "InstanceTooLargeError",
    "greedy_in_order",
    "greedy_geometric_makespan",
    "exact_makespan",
    "lpt_makespan",
    "MeasureReport",
    "MeasureSample",
    "acceleration_ratio",
    "performance_ratio",
    "deficiency",
    "deficiency_bruteforce_oracle",
    "scaling_oracle",
    "BoundReport",
    "deficiency_upper_bound",
    "deficiency_upper_bound_at_beta",
    "best_exponential_deficiency_single_processor",
    "deficiency_lower_bound_general",
    "roundrobin_lower_bound",
    "two_problem_lower_bound",
    "cyclic_acceleration_lower_bound",
    "performance_ratio_closed_form",
    "optimize_geometric_functional",
    "truncated_functional_sup",
    "figure1_performance_curve",
    "figure2_deficiency_surface",
    "figure3_single_processor_curves",
    "NormalizationTrace",
    "TransformStep",
    "RunOutcome",
    "normalize",
    "reduce_consecutive_pairs",
    "is_normalized",
    "deficiency_value_m1",
]
