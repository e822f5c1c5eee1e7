"""The ``__init__`` that ``core._Record`` compiles from ``_fields`` for a record that writes none.

Six output records take it: their signatures and the TypeError a bad call
raises are pinned here against the written-out ``__init__`` they replaced.
A record that writes its own ``__init__`` keeps it, and so does every
subclass of it.
"""

import inspect
import os
import re
import subprocess
import sys

import pytest

import contractsched
from contractsched import (
    Contract,
    ExponentialSpec,
    MeasureReport,
    MeasureSample,
    NormalizationTrace,
    RunOutcome,
    Schedule,
    TransformStep,
)
from contractsched.core import _Record
from contractsched.verification import CheckResult

REQUIRED = inspect.Parameter.empty

# each record's parameters before the generator: (name, default), all positional-or-keyword
SIGNATURES = {
    MeasureSample: [("time", REQUIRED), ("snapshot", REQUIRED), ("denominator", REQUIRED), ("ratio", REQUIRED),
                    ("served", REQUIRED)],
    MeasureReport: [("measure", REQUIRED), ("value", REQUIRED), ("argmax_time", REQUIRED), ("samples", REQUIRED),
                    ("unserved_times", REQUIRED), ("incomplete", REQUIRED), ("truncation_note", REQUIRED),
                    ("analytic", None), ("solver", None), ("exact", True), ("opt_solves", 0), ("windows", 0),
                    ("pruned_windows", 0)],
    TransformStep: [("kind", REQUIRED), ("index", REQUIRED), ("time", REQUIRED), ("problems", REQUIRED),
                    ("rule", REQUIRED), ("deficiency_before", REQUIRED), ("deficiency_after", REQUIRED)],
    RunOutcome: [("start_index", REQUIRED), ("length", REQUIRED), ("action", REQUIRED)],
    NormalizationTrace: [("input", REQUIRED), ("output", REQUIRED), ("steps", REQUIRED), ("run_outcomes", ())],
    CheckResult: [("check_id", REQUIRED), ("description", REQUIRED), ("passed", REQUIRED), ("details", REQUIRED),
                  ("seconds", REQUIRED)],
}
IDS = [cls.__name__ for cls in SIGNATURES]


@pytest.mark.parametrize("cls", SIGNATURES, ids=IDS)
def test_the_generated_signature_is_the_written_out_one(cls):
    # compiled by _Record, not written in the class body
    assert cls.__init__.__code__.co_filename == "<string>" and cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    parameters = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in parameters] == SIGNATURES[cls]
    assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert tuple(p.name for p in parameters) == cls._fields


@pytest.mark.parametrize("cls", SIGNATURES, ids=IDS)
def test_a_bad_call_raises_the_written_out_type_error(cls):
    names = cls._fields
    required = [name for name, default in SIGNATURES[cls] if default is REQUIRED]
    values = dict.fromkeys(names, 1)
    prefix = f"{cls.__name__}.__init__() "

    def raises(message, *args, **kwargs):
        with pytest.raises(TypeError, match=f"^{re.escape(prefix + message)}$"):
            cls(*args, **kwargs)

    raises(f"missing 1 required positional argument: {required[-1]!r}", *[1] * (len(required) - 1))
    takes = f"{len(names) + 1}" if len(required) == len(names) else f"from {len(required) + 1} to {len(names) + 1}"
    raises(f"takes {takes} positional arguments but {len(names) + 2} were given", *[1] * (len(names) + 1))
    raises("got an unexpected keyword argument 'unknown'", **values, unknown=1)
    raises(f"got multiple values for argument {names[0]!r}", 1, **values)


def test_a_subclass_keeps_its_parents_init():
    class S(Schedule):
        pass

    with pytest.raises(ValueError, match=r"^n_problems must be an integer in \[1, \d+\], got 0$"):
        S(0, 1, [])
    assert S.__init__ is Schedule.__init__
    assert S(1, 1, [Contract(0, 0, 1.0)]).contracts == (Contract(0, 0, 1.0),)

    class E(ExponentialSpec):
        pass

    with pytest.raises(ValueError, match=r"^k_max must be >= n \+ m = 3 for a full evaluation window$"):
        E(2, 1, 2.0, 2)

    class R(MeasureReport):
        pass

    assert R.__init__ is MeasureReport.__init__
    report = R("acc", 1.0, None, (), (), False, None)
    assert [getattr(report, name) for name in MeasureReport._defaults] == [None, None, True, 0, 0, 0]


def test_the_defaults_must_be_those_of_the_last_fields():
    class Tail(_Record):
        __slots__ = _fields = ("a", "b", "c")
        _defaults = {"c": 3}

    assert Tail(1, 2) == Tail(a=1, b=2, c=3)
    with pytest.raises(KeyError):
        class Middle(_Record):
            __slots__ = _fields = ("a", "b", "c")
            _defaults = {"b": 2}


def test_importing_deficiency_loads_only_the_modules_it_runs():
    # bounds (and generators through it) load only for an exponential generator's analytic value
    code = ("import sys; from contractsched import deficiency; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('contractsched.'))))")
    package_root = os.path.dirname(os.path.dirname(contractsched.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.split() == ["contractsched.core", "contractsched.makespan", "contractsched.metrics"]
