import itertools
import math
import sys

import pytest

from contractsched import (
    ExponentialSpec,
    acceleration_optimal_base,
    acceleration_ratio,
    best_exponential_deficiency_single_processor,
    cyclic_acceleration_lower_bound,
    deficiency,
    deficiency_lower_bound_general,
    deficiency_optimal_base,
    deficiency_upper_bound,
    deficiency_upper_bound_at_beta,
    exponential_schedule,
    figure1_performance_curve,
    figure2_deficiency_surface,
    figure3_single_processor_curves,
    greedy_geometric_makespan,
    optimize_geometric_functional,
    performance_ratio,
    performance_ratio_closed_form,
    roundrobin_lower_bound,
    simulate,
    truncated_functional_sup,
    two_problem_lower_bound,
)
from contractsched.bounds import geometric_functional


# --- exponential deficiency bound -----------------------------------------------


def test_upper_bound_doubling():
    report = deficiency_upper_bound(1, 1, 2.0)
    assert report.value == 4.0
    assert report.params["lam"] == 1.0


def test_upper_bound_m1_reduction():
    for n, b in itertools.product(range(1, 8), (1.2, 1.5, 2.0)):
        got = deficiency_upper_bound(n, 1, b).value
        assert got == pytest.approx(b ** (n + 1) / (b**n - 1), rel=1e-12)


def test_upper_bound_n2_m2_at_beta():
    beta = deficiency_optimal_base(2, 2)
    assert beta == pytest.approx(math.sqrt(3.0), rel=1e-12)
    value = deficiency_upper_bound(2, 2, beta).value
    assert value == pytest.approx(6.75 / math.sqrt(3.0), rel=1e-12)  # 3.8971...
    assert value <= 4.0


def test_upper_bound_rejects_base():
    with pytest.raises(ValueError):
        deficiency_upper_bound(2, 1, 1.0)


@pytest.mark.parametrize("name, kwargs", [("round-robin", {"n": 2}), ("cyclic-acceleration", {"n": 2, "m": 1}),
                                          ("two-problem", {})])
def test_functionals_reject_values_beyond_the_float_range(name, kwargs):
    functional = geometric_functional(name, **kwargs)
    assert functional(2.0) == {"round-robin": 8 / 3, "cyclic-acceleration": 8.0, "two-problem": 16 / 7}[name]
    if name == "cyclic-acceleration":  # a^3 / (a - 1) is about 1e400
        with pytest.raises(ValueError, match=f"^{name} functional at a=1e\\+200 overflows the float range$"):
            functional(1e200)
    else:  # a^3 / (a^2 - 1) and a^4 / (a^3 - 1) are a to within an ulp, though a^3 overflowed and was refused
        assert functional(1e200) == 1e200
    with pytest.raises(ValueError, match=f"^{name} functional base a must be a finite number > 1, got inf$"):
        truncated_functional_sup(name, math.inf, **kwargs)


@pytest.mark.parametrize("a", [1.0, 0.5, -2.0, math.nan, math.inf], ids=["1", "0.5", "-2", "nan", "inf"])
@pytest.mark.parametrize("name, kwargs", [("round-robin", {"n": 2}), ("cyclic-acceleration", {"n": 2, "m": 1}),
                                          ("two-problem", {})])
def test_functionals_reject_a_base_that_is_not_a_finite_number_above_one(name, kwargs, a):
    # a = 1 divided by zero, a = 0.5 gave -0.1667 for round-robin at n = 2, and NaN was said to overflow
    with pytest.raises(ValueError, match=f"^{name} functional base a must be a finite number > 1, got {a!r}$"):
        geometric_functional(name, **kwargs)(a)


@pytest.mark.parametrize("name, kwargs, message", [
    ("round-robin", {}, "round-robin functional needs n"),
    ("cyclic-acceleration", {"n": 2}, "cyclic-acceleration functional needs n and m"),
    ("cyclic-acceleration", {"m": 2}, "cyclic-acceleration functional needs n and m"),
], ids=["round-robin", "cyclic-no-m", "cyclic-no-n"])
def test_functionals_name_the_counts_they_need(name, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        geometric_functional(name, **kwargs)


@pytest.mark.parametrize("b, n, m", [(math.inf, 2, 2), (1e200, 3, 2), (2.0, 3000, 1)])
def test_greedy_closed_form_rejects_values_beyond_the_float_range(b, n, m):
    with pytest.raises(ValueError):
        greedy_geometric_makespan(b, n, m)


def test_truncated_sup_rejects_sums_beyond_the_float_range():
    with pytest.raises(ValueError, match="^two-problem truncated sup at a=64.0 overflows the float range$"):
        truncated_functional_sup("two-problem", 64.0)


@pytest.mark.parametrize("name, k_max, kwargs, message", [
    # no window: the sup was -inf and read "truncated sup at a=2.0 overflows the float range"
    ("two-problem", 1, {}, "k_max must be an integer >= 2 for a two-problem window, got 1"),
    ("round-robin", -3, {"n": 2}, "k_max must be an integer >= 0 for a round-robin window, got -3"),
    ("cyclic-acceleration", -1, {"n": 2, "m": 1},
     "k_max must be an integer >= 0 for a cyclic-acceleration window, got -1"),
    # not an int: 2.5 was a TypeError from range
    ("round-robin", 2.5, {"n": 2}, "k_max must be an integer >= 0 for a round-robin window, got 2.5"),
    ("two-problem", 20.0, {}, "k_max must be an integer >= 2 for a two-problem window, got 20.0"),
    ("two-problem", True, {}, "k_max must be an integer >= 2 for a two-problem window, got True"),
])
def test_truncated_sup_rejects_a_k_max_that_leaves_no_window(name, k_max, kwargs, message):
    with pytest.raises(ValueError) as info:
        truncated_functional_sup(name, 2.0, k_max=k_max, **kwargs)
    assert str(info.value) == message


def test_truncated_sup_takes_the_least_k_max_with_a_window():
    assert truncated_functional_sup("two-problem", 2.0, k_max=2) == 15.0 / 7.0
    assert truncated_functional_sup("round-robin", 2.0, k_max=0, n=2) == 7.0 / 3.0


def test_at_beta_consistent_with_general_bound():
    for n, m in itertools.product(range(1, 13), range(1, 7)):
        direct = deficiency_upper_bound(n, m, deficiency_optimal_base(n, m)).value
        assert deficiency_upper_bound_at_beta(n, m).value == pytest.approx(direct, rel=1e-12)


def test_surface_max_location_and_value():
    surface = figure2_deficiency_surface()
    value, m, rho = max((v, m, r) for m, r, v in surface)
    assert (m, rho) == (2, 1)
    assert value == pytest.approx(0.375 * 5.0**1.25, abs=1e-6)
    assert all(v <= 3.74 for _, _, v in surface)


def test_surface_n_le_m_stays_under_four():
    values = [deficiency_upper_bound_at_beta(1, m).value for m in range(1, 65)]
    assert max(values) <= 4.0 + 1e-12
    assert values[0] == pytest.approx(4.0, rel=1e-12)  # n = m = 1


def test_best_exponential_single_processor_values():
    assert best_exponential_deficiency_single_processor(1).value == pytest.approx(4.0, rel=1e-12)
    assert best_exponential_deficiency_single_processor(2).value == pytest.approx(2.598076211353316, rel=1e-12)
    assert best_exponential_deficiency_single_processor(20).value == pytest.approx(1.2226446837204858, rel=1e-12)


def test_best_exponential_decreases_toward_one():
    values = [best_exponential_deficiency_single_processor(n).value for n in range(1, 25)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0


# --- lower bounds ----------------------------------------------------------------


def test_general_lower_bound_values():
    assert deficiency_lower_bound_general(1).value == 2.0
    assert deficiency_lower_bound_general(2).value == 1.5
    assert deficiency_lower_bound_general(10).value == pytest.approx(1.1, rel=1e-12)


def test_roundrobin_bound_is_tight_against_best_exponential():
    for n in range(1, 31):
        assert roundrobin_lower_bound(n).value == best_exponential_deficiency_single_processor(n).value
    assert roundrobin_lower_bound(2).value == pytest.approx(2.598076211353316, rel=1e-12)
    assert roundrobin_lower_bound(1).value == pytest.approx(4.0, rel=1e-12)


def test_two_problem_bound():
    report = two_problem_lower_bound()
    assert report.value == pytest.approx(2.116534735957599, rel=1e-12)
    assert report.value >= 2.115
    a = report.params["a"]
    assert a == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)
    assert a**3 - 1.0 == pytest.approx(3.0, rel=1e-12)


def test_cyclic_acceleration_bound_values():
    assert cyclic_acceleration_lower_bound(1, 1).value == pytest.approx(4.0, rel=1e-12)
    assert cyclic_acceleration_lower_bound(2, 1).value == pytest.approx(6.75, rel=1e-12)


def test_bound_ordering_m1():
    for n in range(1, 17):
        upper = deficiency_upper_bound_at_beta(n, 1).value
        assert upper >= roundrobin_lower_bound(n).value * (1 - 1e-12)
        assert upper >= deficiency_lower_bound_general(n).value


# --- functional optimizer ----------------------------------------------------------


def test_optimizer_roundrobin_n2():
    a_star, value = optimize_geometric_functional("round-robin", n=2)
    assert a_star == pytest.approx(math.sqrt(3.0), abs=1e-6)
    assert value == pytest.approx(2.598076211353316, rel=1e-9)


def test_optimizer_two_problem():
    a_star, value = optimize_geometric_functional("two-problem")
    assert a_star == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-6)
    assert value == pytest.approx(2.116534735957599, rel=1e-9)


def test_optimizer_cyclic_matches_closed_form():
    for n, m in itertools.product(range(1, 7), range(1, 7)):
        a_star, value = optimize_geometric_functional("cyclic-acceleration", n=n, m=m)
        assert a_star == pytest.approx(acceleration_optimal_base(n, m), abs=1e-6)
        assert value == pytest.approx(cyclic_acceleration_lower_bound(n, m).value, rel=1e-9)


@pytest.mark.parametrize("name, kwargs, closed_base, closed_value", [
    ("round-robin", {"n": 200}, deficiency_optimal_base(200, 1), best_exponential_deficiency_single_processor(200).value),
    ("cyclic-acceleration", {"n": 150, "m": 30}, acceleration_optimal_base(150, 30),
     cyclic_acceleration_lower_bound(150, 30).value),
])
def test_optimizer_bracket_stays_in_the_float_range(name, kwargs, closed_base, closed_value):
    # a fixed bracket end of 64 would overflow a**(n+1) and a**(n+m) here
    a_star, value = optimize_geometric_functional(name, **kwargs)
    assert abs(a_star - closed_base) <= 1e-6
    assert abs(value - closed_value) <= 1e-9 * closed_value


@pytest.mark.parametrize("name, kwargs", [
    ("round-robin", {"n": 24 * 10**9}),
    ("round-robin", {"n": 3 * 10**10}),  # a* - 1 = 8.04e-10: 1.039e-9 came back, the bracket's end
    ("round-robin", {"n": 10**11}),
    ("round-robin", {"n": 10**12}),  # 2**(1020/p) < 1 + 1e-9: the bracket is empty
    ("cyclic-acceleration", {"n": 1, "m": 10**11}),
], ids=["rr-2.4e10", "rr-3e10", "rr-1e11", "rr-1e12-empty", "cyclic-m-1e11"])
def test_optimizer_refuses_a_minimizer_below_its_bracket(name, kwargs):
    counts = f"n={kwargs['n']}, m={kwargs.get('m')}"
    with pytest.raises(ValueError, match=rf"^{name} functional at {counts}: no minimizer inside the search bracket "):
        optimize_geometric_functional(name, **kwargs)


def test_optimizer_keeps_a_minimizer_just_above_its_bracket_end():
    # a* - 1 = 2.3e-9, a bracket's end 1 + 1e-9 below it
    n = 10**10
    a_star, _ = optimize_geometric_functional("round-robin", n=n)
    assert abs(a_star - best_exponential_deficiency_single_processor(n).params["beta"]) <= 1e-10


def test_optimizer_unknown_functional():
    with pytest.raises(ValueError):
        optimize_geometric_functional("mystery")


def test_truncated_sups_approach_closed_forms():
    for n in (1, 2, 4):
        a = (n + 1) ** (1.0 / n)
        closed = geometric_functional("round-robin", n=n)(a)
        assert truncated_functional_sup("round-robin", a, k_max=200, n=n) == pytest.approx(closed, abs=1e-8)
    a = 2.0 ** (2.0 / 3.0)
    closed = geometric_functional("two-problem")(a)
    assert truncated_functional_sup("two-problem", a, k_max=200) == pytest.approx(closed, abs=1e-8)
    for n, m in ((1, 1), (3, 2)):
        a = acceleration_optimal_base(n, m)
        closed = geometric_functional("cyclic-acceleration", n=n, m=m)(a)
        assert truncated_functional_sup("cyclic-acceleration", a, k_max=200, n=n, m=m) == pytest.approx(
            closed, abs=1e-8
        )


def test_truncated_sup_is_monotone_in_k():
    a = 1.4
    sups = [truncated_functional_sup("round-robin", a, k_max=k, n=2) for k in (10, 50, 200)]
    assert sups[0] <= sups[1] <= sups[2]
    assert sups[2] <= geometric_functional("round-robin", n=2)(a) + 1e-12


# --- performance-ratio closed form ---------------------------------------------------


def test_performance_closed_form_square_case():
    for n in (1, 2, 5):
        assert performance_ratio_closed_form(n, n).value == pytest.approx(4.0, rel=1e-12)


def test_performance_closed_form_ratio_eight():
    report = performance_ratio_closed_form(16, 2)
    assert report.value == pytest.approx((9.0 / 8.0) ** 9, rel=1e-12)  # 2.8865...
    assert report.value <= 2.0 * math.e


def test_performance_closed_form_ceilings():
    for n, m in itertools.product(range(1, 17), range(1, 17)):
        value = performance_ratio_closed_form(n, m).value
        if m >= n:
            assert value <= 4.0 + 1e-12
        else:
            assert value <= 2.0 * math.e + 1e-12


def test_performance_rewritten_forms():
    report = performance_ratio_closed_form(2, 4)
    assert report.value == pytest.approx(report.params["rewritten_m_ge_n"], rel=1e-12)
    report = performance_ratio_closed_form(8, 2)  # m divides n
    assert report.value == pytest.approx(report.params["rewritten_m_lt_n"], rel=1e-12)


# --- cross-checks against simulation ---------------------------------------------------


def test_simulated_finish_times_match_closed_form():
    for b, n, m in itertools.product((1.5, 2.0), (1, 2, 4), (1, 2, 3)):
        sched = exponential_schedule(ExponentialSpec(n=n, m=m, base=b))
        fins = simulate(sched)
        for k in range(0, len(sched.contracts) - n):
            want = (b ** (k + n + m) - b ** ((k + n) % m)) / (b**m - 1)
            assert fins[n + k] == pytest.approx(want, rel=1e-9)


def test_empirical_deficiency_below_bound():
    for n, m, b in itertools.product((1, 2, 4), (1, 2), (1.3, 2.0)):
        sched = exponential_schedule(ExponentialSpec(n=n, m=m, base=b))
        assert deficiency(sched).value <= deficiency_upper_bound(n, m, b).value + 1e-6


def test_acceleration_optimal_prefix_meets_the_cyclic_bound_and_the_performance_closed_form():
    # the prefix's acceleration and performance ratios approach the closed forms from below as k grows; the
    # closed forms are evaluated through exp and log, so a prefix exactly at its limit may read a few ulps above
    for n, m in itertools.product(range(1, 17), range(1, 17)):
        sched = exponential_schedule(ExponentialSpec(n=n, m=m, base=acceleration_optimal_base(n, m)))
        for measured, closed in ((acceleration_ratio(sched, samples=False).value,
                                  cyclic_acceleration_lower_bound(n, m).value),
                                 (performance_ratio(sched, samples=False).value,
                                  performance_ratio_closed_form(n, m).value)):
            assert closed * (1 - 3e-4) <= measured <= closed * (1 + 1e-12)


def test_acceleration_optimal_base_deficiency_worst_case():
    # the acceleration-optimal exponential schedule pays up to ~4.24 in the
    # deficiency bound; the worst case sits at n = m = 2 (value 3 * sqrt(2))
    worst = max(
        deficiency_upper_bound(n, m, acceleration_optimal_base(n, m)).value
        for n, m in itertools.product(range(1, 17), range(1, 17))
        if n >= m
    )
    assert worst == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)
    assert abs(worst - 4.24) <= 0.01


# --- figure data ------------------------------------------------------------------------


def test_figure1_anchors():
    curve = figure1_performance_curve()
    values = [v for _, v in curve]
    assert values[0] == pytest.approx(4.0, rel=1e-12)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > math.e for v in values)
    assert values[-1] == pytest.approx(2.7394909674489285, rel=1e-12)


def test_figure3_rows():
    rows = figure3_single_processor_curves()
    assert len(rows) == 20
    for n, lower, exp_value in rows:
        assert lower == pytest.approx((n + 1) / n, rel=1e-12)
        assert exp_value == pytest.approx((n + 1) ** ((n + 1) / n) / n, rel=1e-12)
        assert exp_value >= lower


def test_figure2_grid_shape():
    # the fixed grid (m, rho) in [1, 64]^2, m-major
    rows = figure2_deficiency_surface()
    assert len(rows) == 64 * 64
    assert [(m, rho) for m, rho, _ in rows] == list(itertools.product(range(1, 65), range(1, 65)))


def test_figure2_cells_are_the_scalar_bound():
    rows = [row for row in figure2_deficiency_surface() if row[0] <= 12 and row[1] <= 13]
    assert [(m, rho) for m, rho, _ in rows] == list(itertools.product(range(1, 13), range(1, 14)))
    for m, rho, value in rows:
        assert value == deficiency_upper_bound_at_beta(m * rho + 1, m).value


def test_the_deficiency_bound_is_finite_for_every_base():
    # b^(y+1) / (b^y - 1) is evaluated as b / (1 - b^-y), and lambda is 1 wherever b could reach the float range
    bases = [1 + 2**-52, 1 + 1e-10, 1.0001, 1.5, 2.0, 10.0, 2.0**27, 2.0**53, 1e154, 1e300,
             sys.float_info.max / 2, math.nextafter(sys.float_info.max, 0), sys.float_info.max]
    counts = [1, 2, 3, 7, 1000, 2**53 - 1, 2**53 + 1, 2**60, sys.maxsize]
    for b, n, m in itertools.product(bases, counts, counts):
        report = deficiency_upper_bound(n, m, b)
        assert math.isfinite(report.value) and 1.0 < report.value <= max(2.0**53, b * (1 + 2**-50)), (b, n, m)
        assert 1.0 <= report.params["lam"] <= 2.0 - 1.0 / m, (b, n, m)
    assert deficiency_upper_bound(1, 2, sys.float_info.max).value == sys.float_info.max
