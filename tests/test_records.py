"""The package's records behave as the frozen dataclasses they replaced.

Each record is a plain class on ``core._Record``: equal by class and fields,
hashed and printed by its field tuple, immutable, and validated in
``__init__`` with the messages users already see.  Six output records write
no ``__init__`` and take the one ``_Record`` compiles from their ``_fields``
and ``_defaults`` (``tests/test_record_init.py``); the same table holds both
kinds.
"""

import copy
import pickle
import re
import sys

import pytest

from contractsched import (
    Assignment,
    BoundReport,
    Contract,
    ExponentialSpec,
    MakespanInstance,
    MeasureReport,
    MeasureSample,
    NormalizationTrace,
    RunOutcome,
    Schedule,
    TransformStep,
)
from contractsched.verification import CheckResult

SCHEDULE = Schedule(2, 1, (Contract(0, 0, 1.0), Contract(1, 0, 2.0)))
STEP = TransformStep("swap-assignment", 1, 1.0, (0, 1), None, 3.0, 2.5)
OUTCOME = RunOutcome(start_index=2, length=3, action="certified")

# class, every field by keyword in field order, the fields left at their defaults, and
# (fields overriding the first, message of the ValueError that __init__ raises)
RECORDS = [
    (Schedule, dict(n_problems=2, m_processors=1, contracts=SCHEDULE.contracts, generator=None), {"generator": None},
     [({"n_problems": 0}, f"n_problems must be an integer in [1, {sys.maxsize}], got 0"),
      ({"m_processors": 0}, f"m_processors must be an integer in [1, {sys.maxsize}], got 0"),
      ({"contracts": [Contract(2, 0, 1.0)]}, "contract 0: problem 2 out of range [0, 2)"),
      ({"contracts": [Contract(0, 0, 1.0), Contract(0, 1, 1.0)]}, "contract 1: processor 1 out of range [0, 1)"),
      ({"contracts": [Contract(0, 0, -1.0)]}, "contract 0: length must be positive and finite, got -1.0")]),
    (ExponentialSpec, dict(n=2, m=1, base=2.0, k_max=None), {"k_max": None},
     [({"n": 0}, f"n must be an integer in [1, {sys.maxsize}], got 0"),
      ({"base": 1.0}, "base must be a finite number > 1, got 1.0"),
      ({"k_max": 2}, "k_max must be >= n + m = 3 for a full evaluation window"),
      # a float k_max built, and exponential_schedule then raised a TypeError from range
      ({"k_max": 30.5}, f"k_max must be an integer in [1, {sys.maxsize}], got 30.5"),
      ({"k_max": True}, f"k_max must be an integer in [1, {sys.maxsize}], got True")]),
    (MakespanInstance, dict(sizes=(3.0, 1.0, 2.0), m=2), {},
     [({"m": 0}, f"m must be an integer in [1, {sys.maxsize}], got 0"),
      ({"sizes": ()}, "instance needs at least one job"),
      ({"sizes": (1.0, float("nan"))}, "job sizes must be positive and finite, got nan"),
      # a bool, a string and an int past the float range were read as 1.0, read as 2.0 and an OverflowError
      ({"sizes": (True, 2.0)}, "job sizes must be a number, got True"),
      ({"sizes": ("2", 1.0)}, "job sizes must be a number, got '2'"),
      ({"sizes": (1.0, 10**400)}, "job sizes is outside the float range")]),
    (Assignment, dict(processor_of=(0, 1, 1), loads=(3.0, 3.0), optimal=True), {},
     [({"loads": (float("inf"), 3.0)}, "a processor load overflows the float range"),
      # a NaN after the first load built with makespan 3.0, and no loads raised max()'s own error
      ({"loads": (3.0, float("nan"))}, "a processor load overflows the float range"),
      ({"loads": (float("nan"), 3.0)}, "a processor load overflows the float range"),
      ({"loads": ()}, "assignment needs at least one processor load")]),
    (MeasureSample, dict(time=3.0, snapshot=(1.0, 2.0), denominator=3.0, ratio=1.0, served=True), {}, []),
    (MeasureReport, dict(measure="deficiency", value=1.5, argmax_time=3.0, samples=(), unserved_times=(1.0,),
                         incomplete=True, truncation_note=None, analytic=None, solver=None, exact=True, opt_solves=0,
                         windows=0, pruned_windows=0),
     {"analytic": None, "solver": None, "exact": True, "opt_solves": 0, "windows": 0, "pruned_windows": 0}, []),
    (BoundReport, dict(name="two-problem-lb", measure="deficiency", kind="lower", value=2.1, params={}),
     {"params": {}}, []),
    (TransformStep, dict(kind="swap-assignment", index=1, time=1.0, problems=(0, 1), rule=None,
                         deficiency_before=3.0, deficiency_after=2.5), {}, []),
    (RunOutcome, dict(start_index=2, length=3, action="certified"), {}, []),
    (NormalizationTrace, dict(input=SCHEDULE, output=SCHEDULE, steps=(STEP,), run_outcomes=()),
     {"run_outcomes": ()}, []),
    (CheckResult, dict(check_id="C01", description="d", passed=True, details="ok", seconds=0.5), {}, []),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults, invalid", RECORDS, ids=IDS)
def test_record_equality_hash_repr_validation_and_immutability(cls, fields, defaults, invalid):
    record = cls(**fields)
    values = tuple(fields.values())
    assert tuple(getattr(record, name) for name in fields) == values
    assert record == cls(*values) and not record != cls(**fields)
    # equal only to a record of the same class: neither the field tuple nor another record class
    assert record != values and values != record
    assert all(record != other(**other_fields) for other, other_fields, *_ in RECORDS if other is not cls)
    name, value = _changed(fields)
    assert record != cls(**dict(fields, **{name: value}))
    assert repr(record) == f"{cls.__name__}({', '.join(f'{name}={value!r}' for name, value in fields.items())})"
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert cls(**required) == record
    for overrides, message in invalid:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**dict(fields, **overrides))
    try:
        expected = hash(values)
    except TypeError:  # a dict field makes the record unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert tuple(getattr(record, name) for name in fields) == values


@pytest.mark.parametrize("cls, fields, defaults, invalid", RECORDS, ids=IDS)
def test_record_replace_asdict_and_copies(cls, fields, defaults, invalid):
    record = cls(**fields)
    name, value = _changed(fields)
    assert record._replace(**{name: value}) == cls(**dict(fields, **{name: value}))
    assert record._replace() == record
    for overrides, message in invalid:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            record._replace(**overrides)
    assert copy.copy(record) == record == copy.deepcopy(record) == pickle.loads(pickle.dumps(record))
    plain = record._asdict()
    assert list(plain) == list(fields)
    if cls is not NormalizationTrace:  # the one record holding records; see the next test
        assert plain == fields


def test_asdict_copies_nested_records_and_containers():
    trace = NormalizationTrace(SCHEDULE, SCHEDULE, (STEP,), (OUTCOME,))
    plain = trace._asdict()
    assert plain["steps"] == ({"kind": "swap-assignment", "index": 1, "time": 1.0, "problems": (0, 1), "rule": None,
                               "deficiency_before": 3.0, "deficiency_after": 2.5},)
    assert plain["run_outcomes"] == ({"start_index": 2, "length": 3, "action": "certified"},)
    assert plain["input"]["contracts"] == ((0, 0, 1.0), (1, 0, 2.0))
    report = BoundReport("b", "deficiency", "upper", 2.0, {"n": 3, "grid": [1, 2]})
    copied = report._asdict()["params"]
    assert copied == report.params and copied is not report.params and copied["grid"] is not report.params["grid"]


def test_bound_report_params_is_a_fresh_dict_per_instance():
    first, second = (BoundReport("b", "deficiency", "upper", 2.0) for _ in range(2))
    assert first.params == {} and first.params is not second.params
    first.params["n"] = 3
    assert second.params == {}


def test_records_keep_their_derived_members():
    assert len(SCHEDULE) == 2
    assert ExponentialSpec(2, 1, 2.0).contracts_to_build == 24
    assert ExponentialSpec(2, 1, 2.0, k_max=5).contracts_to_build == 5
    assert NormalizationTrace(SCHEDULE, SCHEDULE, ()).identity
    assert not NormalizationTrace(SCHEDULE, SCHEDULE, (STEP,)).identity
    # a list of contracts is stored as a tuple, and sizes as floats
    assert Schedule(2, 1, list(SCHEDULE.contracts)).contracts == SCHEDULE.contracts
    assert MakespanInstance([3, 1], 2).sizes == (3.0, 1.0) and type(MakespanInstance([3], 1).sizes[0]) is float


def _changed(fields: dict) -> tuple:
    """A (field, new value) pair that keeps the record valid but unequal to ``fields``."""
    name, value = next((name, value) for name, value in fields.items() if type(value) in (str, int, float, tuple))
    if isinstance(value, str):
        return name, value + "x"
    if isinstance(value, tuple):
        return name, value + value[-1:]
    return name, value + 1
