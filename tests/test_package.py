"""The package's public surface: every name is read lazily from its submodule (PEP 562)."""

import importlib

import pytest

import contractsched

# public name -> defining submodule, in the order __all__ had when every submodule was imported eagerly
PUBLIC = {
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


def test_all_keeps_its_names_and_order():
    assert contractsched.__all__ == list(PUBLIC)


@pytest.mark.parametrize("name", list(PUBLIC))
def test_each_name_is_its_submodules_object(name):
    submodule = importlib.import_module(f"contractsched.{PUBLIC[name]}")
    assert getattr(contractsched, name) is getattr(submodule, name)
    assert contractsched.__dict__[name] is getattr(submodule, name)  # cached after the first read


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from contractsched import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(contractsched))
    assert "__version__" in dir(contractsched)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as info:
        contractsched.no_such_name
    assert str(info.value) == "module 'contractsched' has no attribute 'no_such_name'"
    assert not hasattr(contractsched, "no_such_name")
