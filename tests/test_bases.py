"""One rule for every base b or a: an int or float in (1, sys.float_info.max].

Every function or record that takes a base refuses one outside that range,
or one that is not an ``int`` or ``float`` (a bool included), with the same
ValueError, ``<what> must be a finite number > 1, got <repr>``, raised before
any arithmetic on it.  So an infinite base is never a schedule of infinite
lengths, an int beyond the float range never an OverflowError, and a string
never a TypeError.
"""

import json
import math

import pytest

from contractsched import (
    Contract,
    ExponentialSpec,
    Schedule,
    acceleration_ratio,
    deficiency_upper_bound,
    exponential_schedule,
    greedy_geometric_makespan,
    truncated_functional_sup,
)
from contractsched.bounds import geometric_functional
from contractsched.cli import main
from contractsched.core import _base


def _generated(base):
    return Schedule(1, 1, (Contract(0, 0, 1.0),), generator={"family": "exponential", "base": base})


# name -> (a call taking the base, the name its message uses)
BASE_TAKERS = {
    "ExponentialSpec": (lambda b: ExponentialSpec(2, 1, b), "base"),
    "greedy_geometric_makespan": (lambda b: greedy_geometric_makespan(b, 2, 2), "geometric ratio"),
    "deficiency_upper_bound": (lambda b: deficiency_upper_bound(2, 2, b), "base"),
    "geometric_functional": (lambda a: geometric_functional("round-robin", n=2)(a), "round-robin functional base a"),
    "truncated_functional_sup": (
        lambda a: truncated_functional_sup("two-problem", a, k_max=20), "two-problem functional base a"),
    "exponential-generator": (lambda b: acceleration_ratio(_generated(b)), "exponential generator base"),
}

BAD = [1, 1.0, 0.5, 0, -2, math.nan, math.inf, -math.inf, 10**400, True, "2", None]
BAD_IDS = ["1", "1.0", "0.5", "0", "-2", "nan", "inf", "-inf", "1e400", "True", "str", "None"]


@pytest.mark.parametrize("name", sorted(BASE_TAKERS))
def test_every_base_taker_runs_at_valid_bases(name):
    call, _ = BASE_TAKERS[name]
    for b in (2, 1.5, 1.0 + 1e-9):
        call(b)


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("name", sorted(BASE_TAKERS))
def test_every_base_taker_rejects_a_base_outside_the_range(name, bad):
    # at the parent, 10**400 was an OverflowError from math.isfinite in every bounds taker, "2" and None
    # were TypeErrors in ExponentialSpec, and ExponentialSpec built at inf (a schedule of infinite lengths)
    call, what = BASE_TAKERS[name]
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == f"{what} must be a finite number > 1, got {bad!r}"


def test_the_base_rule_returns_the_value_unchanged():
    assert type(_base(2, "b")) is int and _base(1.5, "b") == 1.5
    big = 1.7976931348623157e308
    assert _base(big, "b") == big and _base(math.nextafter(1.0, 2.0), "b") > 1.0
    assert ExponentialSpec(2, 1, 3).base == 3
    assert [c.length for c in exponential_schedule(ExponentialSpec(1, 1, 2, k_max=4)).contracts] == [1, 2, 4, 8]


def test_an_int_base_overflows_like_a_float_one():
    # the powers of an int base were ints, so 10**300 squared reached Schedule as an int too large for a
    # float: an OverflowError from math.isfinite, outside the documented errors
    big = 10**300
    with pytest.raises(ValueError) as info:
        exponential_schedule(ExponentialSpec(1, 1, big, k_max=3))
    assert str(info.value) == f"base {big!r} with k=3 contracts overflows: {big!r}**2 exceeds the float range"
    sched = exponential_schedule(ExponentialSpec(1, 1, 3, k_max=3))
    assert [c.length for c in sched.contracts] == [1.0, 3.0, 9.0]
    assert all(type(c.length) is float for c in sched.contracts)
    assert type(sched.generator["base"]) is int and sched.generator["base"] == 3


@pytest.mark.parametrize("arg, message", [
    ("1", "base must be a finite number > 1, got 1.0"),
    ("0.5", "base must be a finite number > 1, got 0.5"),
    ("0", "base must be a finite number > 1, got 0.0"),
    ("-2", "base must be a finite number > 1, got -2.0"),
    ("nan", "base must be a finite number > 1, got nan"),
    ("inf", "base must be a finite number > 1, got inf"),
    ("-inf", "base must be a finite number > 1, got -inf"),
    ("1e309", "base must be a finite number > 1, got inf"),
    ("1" + "0" * 400, "base must be a finite number > 1, got inf"),
    ("True", "could not convert string to float: 'True'"),
    ("None", "could not convert string to float: 'None'"),
], ids=["1", "0.5", "0", "-2", "nan", "inf", "-inf", "1e309", "1e400", "True", "None"])
def test_gen_rejects_a_base_outside_the_range(capsys, arg, message):
    # inf and 1e309 built a schedule that failed on its second contract: "contract 1: length must be
    # positive and finite, got inf"
    code = main(["gen", "--n", "2", "--m", "1", f"--base={arg}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {"error": {"type": "ValueError", "message": message}}

