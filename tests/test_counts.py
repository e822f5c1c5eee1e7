"""One rule for every problem count n and processor count m: an integer in [1, sys.maxsize].

Every function or record that takes a count rejects one outside that range,
or one that is not an ``int``, with the same ValueError, raised before any
arithmetic on it, so a huge count is never an OverflowError, a zero or
negative one never a ZeroDivisionError or a nonsense bound, and a float one
never a TypeError later or a bound for no problem count.
"""

import re
import sys

import pytest

from contractsched import (
    ExponentialSpec,
    MakespanInstance,
    Schedule,
    acceleration_optimal_base,
    best_exponential_deficiency_single_processor,
    cyclic_acceleration_lower_bound,
    deficiency_lower_bound_general,
    deficiency_optimal_base,
    deficiency_upper_bound,
    deficiency_upper_bound_at_beta,
    greedy_geometric_makespan,
    optimize_geometric_functional,
    performance_ratio_closed_form,
    roundrobin_lower_bound,
    scaling_oracle,
    truncated_functional_sup,
)
from contractsched.bounds import geometric_functional
from contractsched.core import _count

# name -> (a call that is valid at its default counts, {count parameter: the name its message uses})
COUNT_TAKERS = {
    "Schedule": (lambda n=2, m=2: Schedule(n, m, ()), {"n": "n_problems", "m": "m_processors"}),
    "ExponentialSpec": (lambda n=2, m=2: ExponentialSpec(n, m, 2.0), {"n": "n", "m": "m"}),
    "MakespanInstance": (lambda m=2: MakespanInstance((1.0,), m), {"m": "m"}),
    "scaling_oracle": (lambda m=2: scaling_oracle((1.0, 2.0), m, 3.0), {"m": "m"}),
    "deficiency_optimal_base": (lambda n=2, m=2: deficiency_optimal_base(n, m), {"n": "n", "m": "m"}),
    "acceleration_optimal_base": (lambda n=2, m=2: acceleration_optimal_base(n, m), {"n": "n", "m": "m"}),
    "greedy_geometric_makespan": (lambda n=2, m=2: greedy_geometric_makespan(2.0, n, m), {"n": "n", "m": "m"}),
    "deficiency_upper_bound": (lambda n=2, m=2: deficiency_upper_bound(n, m, 2.0), {"n": "n", "m": "m"}),
    "deficiency_upper_bound_at_beta": (lambda n=2, m=2: deficiency_upper_bound_at_beta(n, m), {"n": "n", "m": "m"}),
    "best_exponential_deficiency_single_processor": (
        lambda n=2: best_exponential_deficiency_single_processor(n), {"n": "n"}),
    "deficiency_lower_bound_general": (lambda n=2: deficiency_lower_bound_general(n), {"n": "n"}),
    "roundrobin_lower_bound": (lambda n=2: roundrobin_lower_bound(n), {"n": "n"}),
    "cyclic_acceleration_lower_bound": (
        lambda n=2, m=2: cyclic_acceleration_lower_bound(n, m), {"n": "n", "m": "m"}),
    "performance_ratio_closed_form": (lambda n=2, m=2: performance_ratio_closed_form(n, m), {"n": "n", "m": "m"}),
    "geometric_functional-round-robin": (lambda n=2: geometric_functional("round-robin", n=n)(2.0), {"n": "n"}),
    "geometric_functional-cyclic": (
        lambda n=2, m=2: geometric_functional("cyclic-acceleration", n=n, m=m)(2.0), {"n": "n", "m": "m"}),
    "optimize_geometric_functional-round-robin": (
        lambda n=2: optimize_geometric_functional("round-robin", n=n), {"n": "n"}),
    "optimize_geometric_functional-cyclic": (
        lambda n=2, m=2: optimize_geometric_functional("cyclic-acceleration", n=n, m=m), {"n": "n", "m": "m"}),
    "truncated_functional_sup-round-robin": (
        lambda n=2: truncated_functional_sup("round-robin", 2.0, k_max=20, n=n), {"n": "n"}),
    "truncated_functional_sup-cyclic": (
        lambda n=2, m=2: truncated_functional_sup("cyclic-acceleration", 2.0, k_max=20, n=n, m=m),
        {"n": "n", "m": "m"}),
}

CASES = [(name, param, what) for name, (_, counts) in COUNT_TAKERS.items() for param, what in counts.items()]


@pytest.mark.parametrize("name", sorted(COUNT_TAKERS))
def test_every_count_taker_runs_at_valid_counts(name):
    call, _ = COUNT_TAKERS[name]
    call()


@pytest.mark.parametrize("bad", [0, -1, sys.maxsize + 1, 10**400, 2.5, 2.0, True, False],
                         ids=["0", "-1", "maxsize+1", "1e400", "2.5", "2.0", "True", "False"])
@pytest.mark.parametrize("name, param, what", CASES, ids=[f"{name}-{param}" for name, param, _ in CASES])
def test_every_count_taker_rejects_a_count_outside_the_range(name, param, what, bad):
    # 0 was a ZeroDivisionError in the geometric functionals, -1 a bound of -2.0, and 10**400 an
    # OverflowError traceback in the optimal bases and the closed forms built on them; 2.5 built a
    # MakespanInstance that died in lpt_makespan with a TypeError, and
    # deficiency_lower_bound_general(2.5) returned 1.4
    call, _ = COUNT_TAKERS[name]
    message = rf"^{what} must be an integer in \[1, {sys.maxsize}\], got {re.escape(str(bad))}$"
    with pytest.raises(ValueError, match=message):
        call(**{param: bad})


def test_the_count_rule_takes_both_ends_of_the_range():
    assert _count(1, "n") == 1 and _count(sys.maxsize, "m") == sys.maxsize
    assert Schedule(sys.maxsize, sys.maxsize, ()).n_problems == sys.maxsize
    for bad in (0, sys.maxsize + 1, float("nan")):
        with pytest.raises(ValueError, match=rf"^m must be an integer in \[1, {sys.maxsize}\], got {bad}$"):
            _count(bad, "m")


@pytest.mark.parametrize("m", [-5, 0, 10**18])
def test_a_count_the_functional_does_not_use_sizes_nothing(m):
    # round-robin never reads m: m = -5 sized the powers list too short for an IndexError, and a huge m
    # would have built a list that long before the overflow check
    want = truncated_functional_sup("round-robin", 2.0, k_max=20, n=2)
    assert truncated_functional_sup("round-robin", 2.0, k_max=20, n=2, m=m) == want
    assert truncated_functional_sup("two-problem", 2.0, k_max=20, n=-1, m=m) == truncated_functional_sup(
        "two-problem", 2.0, k_max=20)
