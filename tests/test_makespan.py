import itertools
import json
import math
import random
import sys
import time

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
    scaling_oracle,
)
from contractsched.cli import main
from contractsched.makespan import _lpt_span, lower_bound
from contractsched.verification import _enumerated_makespan


def enumerate_optimum(sizes, m):
    """The reference OPT: a plain loop over all m^n maps, loads summed in job-index order."""
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
    # increasing geometric sizes: job i lands on processor i mod m
    for b, n, m, k in itertools.product((1.5, 2.0), (1, 3, 6), (1, 2, 3), (0, 2)):
        sizes = tuple(b ** (k + i) for i in range(n))
        a = greedy_in_order(MakespanInstance(sizes, m))
        assert all(a.processor_of[i] == i % m for i in range(n))


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


BAD_KS = {
    "str": ("x", "k must be an integer, got 'x'"),
    "None": (None, "k must be an integer, got None"),
    "True": (True, "k must be an integer, got True"),
    "2.5": (2.5, "k must be an integer, got 2.5"),
    "-1": (-1, f"k -1 out of range [0, {sys.maxsize})"),
    "1e400": (10**400, f"k {10**400} out of range [0, {sys.maxsize})"),
}


@pytest.mark.parametrize("bad, message", BAD_KS.values(), ids=BAD_KS.keys())
def test_geometric_closed_form_takes_k_by_the_index_rule(bad, message):
    # at the parent, "x" and None were a TypeError, True, 2.5 and -1 gave a makespan, and 10**400 was the
    # closed form's overflow error
    with pytest.raises(ValueError) as info:
        greedy_geometric_makespan(2.0, 3, 2, bad)
    assert str(info.value) == message


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
    # bit-equal, and so is verification's depth-first enumeration; n <= 8, m <= 4, and half of the
    # instances have sizes in 1..4, which tie often and sum exactly.  One processor is the one place
    # exact_makespan sums otherwise: math.fsum, the correctly rounded total
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 4)
        sizes = tuple(float(rng.randint(1, 4)) if trial % 2 else rng.uniform(0.1, 10.0) for _ in range(n))
        want = enumerate_optimum(sizes, m)
        assert _enumerated_makespan(sizes, m) == want
        assert exact_makespan(MakespanInstance(sizes, m)).makespan == (math.fsum(sizes) if m == 1 else want)


@pytest.mark.parametrize("sizes, m, optimum", [
    ((0.2, 0.7, 0.3, 0.1, 0.7, 0.3, 1.1, 0.1), 3, 1.2),  # the LPT seed, above the lower bound 1.1667
    ((1.1, 1.1, 0.1, 0.3, 0.1, 0.7, 0.1, 0.7), 2, 2.1),  # the 1e-12 stop near the lower bound
])
def test_exact_is_at_most_one_ulp_above_the_enumerated_optimum(sizes, m, optimum):
    # the known error in exact_makespan's docstring: its cuts compare placement-order sums with a
    # job-index-order incumbent, so it may stop one ulp above the least job-index-order makespan
    assert _enumerated_makespan(sizes, m) == optimum
    got = exact_makespan(MakespanInstance(sizes, m))
    assert got.optimal and optimum <= got.makespan <= math.nextafter(optimum, math.inf)


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


def test_exact_solves_where_only_the_lpt_seed_overflows(capsys):
    # LPT stacks 8.297e307 + 5.531e307 + 5.531e307 = 1.9359e308 past the float range, while OPT pairs the
    # two large jobs; the parent raised the overflow error from the seed, and the CLI exited 1
    sizes = (8.297e307, 8.297e307, 5.531e307, 5.531e307, 5.531e307)
    got = exact_makespan(MakespanInstance(sizes, 2))
    assert got.optimal and got.makespan == 1.6594e308 == _enumerated_makespan(sizes, 2)
    assert main(["makespan", "--sizes", ",".join(map(repr, sizes)), "--m", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["optimal"] is True and out["makespan"] == 1.6594e308


def test_exact_caps_its_stop_at_the_largest_float():
    # the lower bound is finite but 1e-12 above it is not, so an uncapped stop was inf, and the infinite
    # LPT seed passed as "within the stop" (the parent's seed check refused the instance first)
    x = sys.float_info.max / 6 * (1 - 1e-13)
    sizes = (3 * x, 3 * x, 2 * x, 2 * x, 2 * x)
    assert lower_bound(sizes, 2) * (1.0 + 1e-12) == math.inf
    got = exact_makespan(MakespanInstance(sizes, 2))
    assert got.makespan == 1.7976931348621359e308 == _enumerated_makespan(sizes, 2)


def test_exact_refuses_an_optimum_beyond_the_float_range_at_once():
    # the lower bound, 1.5e308, is finite, so the search runs; every map overflows
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^a processor load overflows the float range$"):
        exact_makespan(MakespanInstance((1e308, 1e308, 1e308), 2))
    assert time.perf_counter() - start < 1.0


def test_exact_refuses_a_lower_bound_beyond_the_float_range(capsys):
    # the total and the sum of s / m both overflow, so the bound is inf and no map can be finite
    sizes = (1.7e308, 1.7e308, 1.7e308)
    assert lower_bound(sizes, 2) == math.inf
    with pytest.raises(ValueError, match="^a processor load overflows the float range$"):
        exact_makespan(MakespanInstance(sizes, 2))
    assert main(["makespan", "--sizes", ",".join(map(repr, sizes)), "--m", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": {"type": "ValueError", "message": "a processor load overflows the float range"}}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=8), st.integers(1, 3),
       st.floats(0.9, 1.0, exclude_max=True))
def test_exact_matches_enumeration_near_the_float_range(raw, m, fraction):
    # scaled so that the lower bound is about fraction * sys.float_info.max: the optimum is finite or not,
    # and the LPT seed may overflow where the optimum does not
    scale = fraction * sys.float_info.max / max(max(raw), sum(raw) / m)
    sizes = tuple(s * scale for s in raw)
    want = _enumerated_makespan(sizes, m)
    if want == math.inf:
        with pytest.raises(ValueError, match="^a processor load overflows the float range$"):
            exact_makespan(MakespanInstance(sizes, m))
    else:
        assert exact_makespan(MakespanInstance(sizes, m)).makespan == pytest.approx(want, rel=1e-12)


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
    # the kernel takes ascending sizes, as the deficiency's sorted snapshot gives them
    ascending = sorted(sizes)
    assert _lpt_span(ascending, m) == lpt_makespan(MakespanInstance(ascending, m)).makespan
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


# name -> a call taking a list of job sizes
SIZE_TAKERS = {
    "MakespanInstance": lambda sizes: MakespanInstance(sizes, 2),
    "scaling_oracle": lambda sizes: scaling_oracle(sizes, 2, 3.0),
}

BAD_SIZES = {
    "empty": ([], "instance needs at least one job"),
    "negative": ([1.0, -1.0], "job sizes must be positive and finite, got -1.0"),
    "str": (["1"], "job sizes must be a number, got '1'"),
    "True": ([True], "job sizes must be a number, got True"),
    "nan": ([math.nan], "job sizes must be positive and finite, got nan"),
    "1e400": ([10**400], "job sizes is outside the float range"),
}


@pytest.mark.parametrize("name", sorted(SIZE_TAKERS))
def test_every_size_taker_runs_at_valid_sizes(name):
    for sizes in ([1.0], (1, 2.5, 3), [0.5, 1e-300]):
        SIZE_TAKERS[name](sizes)


def test_scaling_oracle_reads_an_int_size_as_the_float():
    # the job-size rule makes an int a float, as dividing by it already did
    assert scaling_oracle([1, 2, 4], 2, 8.0) == scaling_oracle([1.0, 2.0, 4.0], 2, 8.0)


@pytest.mark.parametrize("bad, message", BAD_SIZES.values(), ids=BAD_SIZES.keys())
@pytest.mark.parametrize("name", sorted(SIZE_TAKERS))
def test_every_size_taker_refuses_a_job_list_outside_the_rule(name, bad, message):
    # at the parent, scaling_oracle died on [] with "max() arg is an empty sequence", on [1.0, -1.0]
    # with a ZeroDivisionError, on ["1"] with a TypeError and on [10**400] with an OverflowError
    with pytest.raises(ValueError) as info:
        SIZE_TAKERS[name](bad)
    assert str(info.value) == message
