"""Every parameter of the public API has a rule or an exemption.

The audit lists each parameter of each function in ``contractsched.__all__``
and of the three input records with ``inspect.signature``.  A parameter
passes when a takers table holds it to its rule, or when it is on an exempt
list with the reason it needs no rule here.  A new public parameter with
neither fails this module.
"""

import inspect

import contractsched
from test_bases import BASE_TAKERS
from test_core import BAD_FIELDS, BAD_GENERATORS, TIME_TAKERS
from test_counts import COUNT_TAKERS
from test_makespan import BAD_KS, SIZE_TAKERS

INPUT_RECORDS = ("Schedule", "ExponentialSpec", "MakespanInstance")

# public classes that are not audited, with the reason
NOT_AUDITED = {
    "Contract": "a named tuple built unchecked; Schedule checks every contract's fields (BAD_FIELDS)",
    "InstanceTooLargeError": "an exception",
    "Assignment": "an output record",
    "MeasureReport": "an output record",
    "MeasureSample": "an output record",
    "BoundReport": "an output record",
    "NormalizationTrace": "an output record",
    "TransformStep": "an output record",
    "RunOutcome": "an output record",
}

# a parameter of one of these names must be annotated with the record, whose own constructor checks it
RECORD_ARGUMENTS = {"schedule": "Schedule", "spec": "ExponentialSpec", "instance": "MakespanInstance"}

# the taker's parameter that each BASE_TAKERS entry passes its base to
BASE_PARAMETERS = {
    "ExponentialSpec": "base",
    "greedy_geometric_makespan": "b",
    "deficiency_upper_bound": "b",
    "truncated_functional_sup": "a",
}

# the taker's parameter that each of these TIME_TAKERS entries passes its time to
TIME_PARAMETERS = {"snapshot": "t", "snapshot_before": "t", "scaling_oracle": "t", "deficiency_bruteforce_oracle": "t"}

MEASURES = ("acceleration_ratio", "performance_ratio", "deficiency")

# (public name, parameter) -> why it needs no rule of its own here
EXEMPT = {
    **{(name, "samples"): "a flag, read for its truth" for name in MEASURES},
    **{(name, "window"): "its items obey the time rule (TIME_TAKERS)" for name in MEASURES},
    ("snapshots_before", "times"): "its items obey the time rule (TIME_TAKERS)",
    ("deficiency", "solver"): "checked against the solver names",
    ("optimize_geometric_functional", "name"): "checked against bounds.FUNCTIONALS",
    ("truncated_functional_sup", "name"): "checked against bounds.FUNCTIONALS",
    ("ExponentialSpec", "k_max"): "None, or a count by the count rule",
    ("truncated_functional_sup", "k_max"): "checked to leave the functional a window",
    ("load_schedule", "path"): "opened as a file; a bad path is the OSError",
    ("save_schedule", "path"): "opened as a file; a bad path is the OSError",
    ("schedule_from_dict", "doc"): "checked to be a JSON object with the schedule's keys",
}


def _audited() -> dict[str, inspect.Signature]:
    """Public name -> signature, for every public function and input record."""
    audited = {}
    for name in contractsched.__all__:
        value = getattr(contractsched, name)
        if inspect.isfunction(value) or name in INPUT_RECORDS:
            audited[name] = inspect.signature(value)
    return audited


def _ruled() -> dict[tuple[str, str], str]:
    """(public name, parameter) -> the table whose cases hold it to its rule."""
    ruled = {}
    for name, (_, counts) in COUNT_TAKERS.items():
        # a count's message names the parameter; "name-variant" keys test one callable several ways
        ruled.update(((name.split("-")[0], param), "COUNT_TAKERS") for param in counts.values())
    ruled.update(((name, param), "BASE_TAKERS") for name, param in BASE_PARAMETERS.items())
    ruled.update(((name, param), "TIME_TAKERS") for name, param in TIME_PARAMETERS.items())
    ruled[("Schedule", "contracts")] = "BAD_FIELDS"
    ruled[("Schedule", "generator")] = "BAD_GENERATORS"
    ruled[("MakespanInstance", "sizes")] = ruled[("scaling_oracle", "values")] = "SIZE_TAKERS"
    ruled[("greedy_geometric_makespan", "k")] = "BAD_KS"
    return ruled


def test_every_public_name_is_audited_or_set_aside():
    assert sorted(set(contractsched.__all__) - set(_audited())) == sorted(NOT_AUDITED)
    assert not set(NOT_AUDITED) & set(INPUT_RECORDS)


def test_every_public_parameter_has_a_rule_or_an_exemption():
    ruled = _ruled()
    missing = []
    for name, signature in _audited().items():
        for param in signature.parameters.values():
            if RECORD_ARGUMENTS.get(param.name) == param.annotation or (name, param.name) in ruled:
                continue
            if (name, param.name) not in EXEMPT:
                missing.append(f"{name}({param.name})")
    assert missing == []


def test_every_exemption_and_rule_names_a_public_parameter_and_a_taker():
    # a stale entry hides nothing today, but would pass a parameter of that name added later untested
    public = {(name, param) for name, signature in _audited().items() for param in signature.parameters}
    ruled = {key for key in _ruled() if key[0] in contractsched.__all__}
    assert set(EXEMPT) - public == set() and ruled - public == set()
    assert set(BASE_PARAMETERS) <= set(BASE_TAKERS) and set(TIME_PARAMETERS) <= set(TIME_TAKERS)
    assert set(SIZE_TAKERS) == {"MakespanInstance", "scaling_oracle"}
