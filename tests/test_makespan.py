import itertools
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractsched import (
    Contract,
    InstanceTooLargeError,
    MakespanInstance,
    Schedule,
    deficiency,
    exact_makespan,
    greedy_geometric_makespan,
    greedy_in_order,
    lpt_makespan,
)
from contractsched.cli import main
from contractsched.makespan import _lpt_span


def enumerate_optimum(sizes, m):
    best = math.inf
    for assign in itertools.product(range(m), repeat=len(sizes)):
        loads = [0.0] * m
        for s, p in zip(sizes, assign):
            loads[p] += s
        best = min(best, max(loads))
    return best


# --- greedy ------------------------------------------------------------------


def test_greedy_increasing_order():
    a = greedy_in_order(MakespanInstance((1.0, 2.0, 4.0), 2))
    assert a.loads == (5.0, 2.0)
    assert a.makespan == 5.0
    assert a.makespan == greedy_geometric_makespan(2.0, 3, 2, 0)


def test_greedy_single_job():
    for m in (1, 2, 5):
        assert greedy_in_order(MakespanInstance((7.0,), m)).makespan == 7.0


def test_greedy_geometric_placement():
    # increasing geometric sizes: the i-th job of the order lands on processor i mod m
    for b, n, m, k in itertools.product((1.5, 2.0), (1, 3, 6), (1, 2, 3), (0, 2)):
        sizes = tuple(b ** (k + i) for i in range(n))
        a = greedy_in_order(MakespanInstance(sizes, m))
        assert all(a.processor_of[i] == i % m for i in range(n))


def test_greedy_order_validation():
    with pytest.raises(ValueError):
        greedy_in_order(MakespanInstance((1.0, 2.0), 1), order=[0, 0])


def test_greedy_custom_order():
    a = greedy_in_order(MakespanInstance((1.0, 2.0, 4.0), 2), order=[2, 1, 0])
    assert a.loads == (4.0, 3.0)  # 4 first, then 2 and 1 on the other processor


# --- closed form ------------------------------------------------------------


def test_geometric_closed_form_values():
    assert greedy_geometric_makespan(2.0, 3, 2, 0) == 5.0
    assert greedy_geometric_makespan(2.0, 1, 1, 0) == 1.0
    assert greedy_geometric_makespan(2.0, 4, 1, 1) == 30.0  # 2 + 4 + 8 + 16


def test_geometric_closed_form_matches_greedy_on_grid():
    for b, n, m, k in itertools.product((1.1, 1.5, 2.0, 3.0), range(1, 9), range(1, 5), range(0, 4)):
        sizes = tuple(b ** (k + i) for i in range(n))
        got = greedy_in_order(MakespanInstance(sizes, m)).makespan
        assert got == pytest.approx(greedy_geometric_makespan(b, n, m, k), rel=1e-9)


def test_geometric_closed_form_rejects_base():
    with pytest.raises(ValueError):
        greedy_geometric_makespan(1.0, 2, 1)


# --- exact solver ------------------------------------------------------------


def test_exact_small_cases():
    assert exact_makespan(MakespanInstance((1.0, 2.0, 4.0), 2)).makespan == 4.0
    assert exact_makespan(MakespanInstance((1.0, 2.0, 4.0, 8.0), 2)).makespan == 8.0
    assert exact_makespan(MakespanInstance((3.0, 3.0, 2.0, 2.0, 2.0), 2)).makespan == 6.0


def test_exact_single_processor_is_sum():
    sizes = (2.5, 1.0, 4.0)
    a = exact_makespan(MakespanInstance(sizes, 1))
    assert a.makespan == sum(sizes)
    assert a.optimal


def test_exact_many_processors_is_max():
    sizes = (2.5, 1.0, 4.0)
    for m in (3, 4, 7):
        assert exact_makespan(MakespanInstance(sizes, m)).makespan == 4.0


def test_exact_assignment_is_consistent():
    a = exact_makespan(MakespanInstance((1.0, 2.0, 4.0, 8.0), 2))
    loads = [0.0, 0.0]
    for job, proc in enumerate(a.processor_of):
        loads[proc] += (1.0, 2.0, 4.0, 8.0)[job]
    assert tuple(loads) == a.loads
    assert max(loads) == a.makespan
    assert a.optimal


def test_exact_matches_enumeration_randomized():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = rng.randint(1, 3)
        sizes = tuple(rng.uniform(0.1, 10.0) for _ in range(n))
        got = exact_makespan(MakespanInstance(sizes, m)).makespan
        assert got == pytest.approx(enumerate_optimum(sizes, m), rel=1e-12)


def test_exact_lower_bounds():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = rng.randint(1, 4)
        sizes = tuple(rng.uniform(0.1, 10.0) for _ in range(n))
        span = exact_makespan(MakespanInstance(sizes, m)).makespan
        assert span >= max(sizes) - 1e-12
        assert span >= sum(sizes) / m - 1e-12
        if m >= n:
            assert span == pytest.approx(max(sizes), rel=1e-12)


def test_overflowing_load_is_a_domain_error(capsys):
    instance = MakespanInstance((1e308, 1e308), 1)
    for solver in (exact_makespan, greedy_in_order, lpt_makespan):
        with pytest.raises(ValueError, match="overflows the float range"):
            solver(instance)
    assert main(["makespan", "--sizes", "1e308,1e308", "--m", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"]["type"] == "ValueError"


def test_exact_solves_when_only_the_total_overflows():
    # the total, 2.72e308, overflows; the optimum 5.1e307 * 2 does not
    sizes = (5.1e307, 5.1e307, 3.4e307, 3.4e307, 3.4e307)
    got = exact_makespan(MakespanInstance(sizes, 2))
    assert got.optimal
    assert got.makespan == pytest.approx(enumerate_optimum(sizes, 2), rel=1e-12)
    assert got.makespan < lpt_makespan(MakespanInstance(sizes, 2)).makespan


def test_exact_guard():
    with pytest.raises(InstanceTooLargeError):
        exact_makespan(MakespanInstance(tuple(float(i + 1) for i in range(25)), 2))


# --- LPT ----------------------------------------------------------------------


def test_lpt_small():
    assert lpt_makespan(MakespanInstance((1.0, 2.0, 4.0), 2)).makespan == 4.0


def test_lpt_many_processors():
    assert lpt_makespan(MakespanInstance((1.0, 2.0, 4.0), 5)).makespan == 4.0


def test_lpt_classic_tight_instance():
    # {3,3,2,2,2} on two processors: LPT stacks 3+2+2 = 7 while OPT pairs
    # the threes for 6; the (4m-1)/(3m) gap instance
    instance = MakespanInstance((3.0, 3.0, 2.0, 2.0, 2.0), 2)
    assert lpt_makespan(instance).makespan == 7.0
    assert exact_makespan(instance).makespan == 6.0


def test_lpt_not_flagged_optimal():
    assert not lpt_makespan(MakespanInstance((3.0, 3.0, 2.0, 2.0, 2.0), 2)).optimal


# tie-heavy job sizes: small integers, as ints and as floats, a few repeated
# fractions, and arbitrary floats
SIZES = st.one_of(st.integers(1, 4), st.integers(1, 4).map(float), st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 2 / 3]),
                  st.floats(0.05, 100.0))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(SIZES, min_size=1, max_size=12), st.integers(2, 6))
def test_lpt_denominator_path_matches_lpt_makespan(sizes, m):
    assert _lpt_span(sizes, m) == lpt_makespan(MakespanInstance(sizes, m)).makespan
    # the deficiency's own route: past the last finish time the snapshot is every size, sorted
    s = Schedule(len(sizes), m, tuple(Contract(j, j % m, size) for j, size in enumerate(sizes)))
    (sample,) = deficiency(s, window=[sum(sizes) + 1.0], solver="lpt").samples
    assert sample.denominator == lpt_makespan(MakespanInstance(sorted(sizes), m)).makespan


def test_lpt_denominator_path_raises_on_an_overflowing_makespan():
    big = 0.6 * sys.float_info.max
    for sizes, m in (((big, big, big), 2), ((big, big), 1), ((1.0, big, big, big, big), 3)):
        with pytest.raises(ValueError, match="overflows"):
            lpt_makespan(MakespanInstance(sizes, m))
        with pytest.raises(ValueError, match="overflows"):
            _lpt_span(sizes, m)


# --- Graham sandwich ----------------------------------------------------------


def test_graham_sandwich_on_geometric_grid():
    for b, n, m, k in itertools.product((1.1, 1.5, 2.0, 3.0), range(1, 9), range(1, 5), range(0, 4)):
        sizes = tuple(b ** (k + i) for i in range(n))
        instance = MakespanInstance(sizes, m)
        exact = exact_makespan(instance).makespan
        greedy = greedy_in_order(instance).makespan
        kappa = max(1.0 / (2.0 - 1.0 / m), (b**m - 1.0) / b**m)
        assert exact <= greedy * (1 + 1e-12)
        assert greedy <= (2.0 - 1.0 / m) * exact * (1 + 1e-12)
        assert exact >= kappa * greedy_geometric_makespan(b, n, m, k) * (1 - 1e-12)


def test_instance_validation():
    with pytest.raises(ValueError):
        MakespanInstance((), 1)
    with pytest.raises(ValueError):
        MakespanInstance((1.0,), 0)
    with pytest.raises(ValueError):
        MakespanInstance((0.0,), 1)
