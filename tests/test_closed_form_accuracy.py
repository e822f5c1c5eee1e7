"""Every closed form in ``bounds`` and ``generators`` against the same formula in 60-digit decimal.

The float routes take powers through exp and log, or divide b^(y+1) by
b^y - 1; the references below are the paper's formulas written out directly,
so a reordering that loses accuracy shows as a relative error above 1e-13.
Each reference takes its float inputs (a base b) exactly, via Decimal(b).
"""

import decimal
import functools
import itertools
import sys
from decimal import Decimal

import pytest

from contractsched import (
    acceleration_optimal_base,
    best_exponential_deficiency_single_processor,
    cyclic_acceleration_lower_bound,
    deficiency_lower_bound_general,
    deficiency_optimal_base,
    deficiency_upper_bound,
    deficiency_upper_bound_at_beta,
    figure1_performance_curve,
    figure2_deficiency_surface,
    greedy_geometric_makespan,
    performance_ratio_closed_form,
    roundrobin_lower_bound,
    two_problem_lower_bound,
)
from contractsched.bounds import _geometric
from contractsched.generators import _geometric_minimum

RTOL = Decimal("1e-13")
GRID = list(itertools.product(range(1, 41), range(1, 41)))


@pytest.fixture(autouse=True)
def sixty_digits():
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        yield


@functools.cache
def _root(value, degree) -> Decimal:
    return Decimal(value) ** (Decimal(1) / Decimal(degree))


def _lam(m: int, b: Decimal) -> Decimal:
    return min(2 - Decimal(1) / m, b**m / (b**m - 1))


@functools.cache
def _at_beta(m: int, y: int) -> Decimal:
    # lambda * beta^(y+1) / (beta^y - 1) at the exact optimal base beta = (y+1)^(1/y)
    beta = _root(y + 1, y)
    return _lam(m, beta) * beta ** (y + 1) / (beta**y - 1)


def _cyclic(n: int, m: int) -> Decimal:
    return Decimal(n) / m * (Decimal(n + m) / n) ** (Decimal(n + m) / m)


def _assert_close(got: float, want: Decimal, where, rtol: Decimal = RTOL) -> None:
    err = abs(Decimal(got) - want) / want
    assert err <= rtol, f"{where}: {got!r} vs {want:.25g}, relative error {err:.2e}"


@pytest.mark.parametrize("p, q", [(2, 1), (4, 3), (5, 2), (41, 40), (80, 40)])
def test_the_geometric_minimum_is_the_least_value_of_the_functional(p, q):
    # F(a) = a^p / (a^q - 1): the returned value is F at the returned base, and F is larger on either side of it
    a, value = _geometric_minimum(p, q)

    def f(x: Decimal) -> Decimal:
        return x**p / (x**q - 1)

    least = f(Decimal(a))
    _assert_close(value, least, ("_geometric_minimum", p, q))
    step = Decimal("1e-4") * (Decimal(a) - 1)
    assert f(Decimal(a) - step) > least and f(Decimal(a) + step) > least


def test_optimal_bases():
    for n, m in GRID:
        y = n + m - 1 - (n - 1) % m
        _assert_close(deficiency_optimal_base(n, m), _root(y + 1, y), ("deficiency_optimal_base", n, m))
        _assert_close(acceleration_optimal_base(n, m), _root(Decimal(n + m) / n, m),
                      ("acceleration_optimal_base", n, m))


def test_single_processor_and_two_problem_bounds():
    for n in range(1, 41):
        want = Decimal(n + 1) ** (Decimal(n + 1) / n) / n
        best = best_exponential_deficiency_single_processor(n)
        _assert_close(best.value, want, ("best_exponential_deficiency_single_processor", n))
        _assert_close(best.params["beta"], _root(n + 1, n), ("best beta", n))
        _assert_close(roundrobin_lower_bound(n).value, want, ("roundrobin_lower_bound", n))
    report = two_problem_lower_bound()
    _assert_close(report.value, Decimal(2) ** (Decimal(8) / 3) / 3, "two_problem_lower_bound")
    _assert_close(report.params["a"], Decimal(2) ** (Decimal(2) / 3), "two-problem a")


def test_cyclic_and_performance_closed_forms():
    for n, m in GRID:
        want = _cyclic(n, m)
        report = cyclic_acceleration_lower_bound(n, m)
        _assert_close(report.value, want, ("cyclic_acceleration_lower_bound", n, m))
        _assert_close(report.params["a"], _root(Decimal(n + m) / n, m), ("cyclic a", n, m))
        stack = -(-n // m)
        _assert_close(performance_ratio_closed_form(n, m).value, want / stack, ("performance_ratio_closed_form", n, m))
    for r, value in (row for row in figure1_performance_curve() if row[0] <= 40):
        r = int(r)
        _assert_close(value, (1 + Decimal(1) / r) ** (r + 1), ("figure1_performance_curve", r))


@pytest.mark.parametrize("b", [1.3, 2.0])
def test_deficiency_upper_bound(b):
    exact = Decimal(b)
    for n, m in GRID:
        gamma = (n - 1) % m
        want = _lam(m, exact) * exact ** (n + m) / (exact ** (n + m - 1) - exact**gamma)
        _assert_close(deficiency_upper_bound(n, m, b).value, want, ("deficiency_upper_bound", n, m, b))


def test_deficiency_bound_at_the_optimal_base():
    for n, m in GRID:
        gamma = (n - 1) % m
        _assert_close(deficiency_upper_bound_at_beta(n, m).value, _at_beta(m, n + m - 1 - gamma),
                      ("deficiency_upper_bound_at_beta", n, m))
    for m, rho, value in (row for row in figure2_deficiency_surface() if row[0] <= 40 and row[1] <= 40):
        _assert_close(value, _at_beta(m, m * (rho + 1)), ("figure2_deficiency_surface", m, rho))


# p/q from 2 up to 2**62 + 1, where the float p/(p-q) rounds toward 1.0 and keeps few of q/(p-q)'s digits
WIDE = [(q * 2**j + s, q) for q in (1, 2, 3, 7, 64) for j in range(1, 63) for s in (0, 1)]


def test_the_geometric_minimum_keeps_its_digits_as_p_over_q_grows():
    # log(p/(p-q)) put F(a*) off by up to a factor of e on this grid (e times too small at p = 2**53 + 1,
    # q = 1, e times too large at p = 2**59 + 1, q = 64); log1p(q/(p-q)) keeps the worst relative error near 3.3e-16
    for p, q in WIDE:
        ratio = 1 + Decimal(q) / (p - q)
        a, value = _geometric_minimum(p, q)
        _assert_close(a, ratio ** (1 / Decimal(q)), ("_geometric_minimum a", p, q), Decimal("1e-15"))
        _assert_close(value, Decimal(p) / q * ratio ** (Decimal(p - q) / q), ("_geometric_minimum F", p, q),
                      Decimal("1e-15"))


@pytest.mark.parametrize("n", [10**12, 10**16, 10**18, sys.maxsize])
def test_the_acceleration_and_performance_closed_forms_hold_at_large_n_over_m(n):
    # (1 + 1/n)^(n+1) falls toward e from above; at the parent the performance ratio was 1.0 at n = 10**16, and the
    # acceleration bound 1e18 at n = 10**18 instead of about e * 10**18
    want = (1 + 1 / Decimal(n)) ** (n + 1)
    _assert_close(performance_ratio_closed_form(n, 1).value, want, ("performance_ratio_closed_form", n),
                  Decimal("1e-15"))
    _assert_close(cyclic_acceleration_lower_bound(n, 1).value, n * want, ("cyclic_acceleration_lower_bound", n),
                  Decimal("1e-15"))


def test_the_best_exponential_deficiency_never_falls_below_the_general_lower_bound():
    # the parent gave 0.9999999999999986 at n = 10**18, below the general bound's 1.0
    for n in sorted({*(2**j for j in range(63)), *(10**j for j in range(19)), sys.maxsize - 1, sys.maxsize}):
        best = best_exponential_deficiency_single_processor(n).value
        assert best >= deficiency_lower_bound_general(n).value, n
        _assert_close(best, Decimal(n + 1) ** (Decimal(n + 1) / n) / n, ("best exponential deficiency", n),
                      Decimal("1e-15"))


GEOMETRIC_BASES = (1.0001, 1.01, 1.2, 1.5, 2.0, 10.0)
# bases where a^p overflows the float range though a^p / (a^q - 1) does not: the limits of the n = 308 base-10 prefix,
# the deficiency bound at b = 2 for n = 3000, and bases near the top of the float range
OVERFLOWING_POWERS = [(10.0, 309, 308), (10.0, 309, 1), (2.0, 3001, 3000), (1.5, 1751, 1750), (1e154, 2, 1),
                      (1e200, 3, 2), (1e200, 4, 3), (1e300, 2, 1), (1e300, 3, 2), (1.7e308, 2, 1), (1.7e308, 1, 1)]


def test_one_expression_evaluates_every_geometric_form():
    # a^(p-q) / (1 - a^-q), the lambda factor (m, m), the deficiency bound's (y+1, y) and the cyclic acceleration's
    # (n+m, m); a^p / (a^q - 1) was off by up to 4.6e-15 on this grid, and refused the overflowing powers outright
    forms = [(b, p, q) for n, m, b in itertools.product(range(1, 33), range(1, 17), GEOMETRIC_BASES)
             for p, q in ((m, m), (n + m - (n - 1) % m, n + m - 1 - (n - 1) % m), (n + m, m))]
    assert len(forms) == 9_216
    for b, p, q in forms + OVERFLOWING_POWERS:
        exact = Decimal(b)
        _assert_close(_geometric(b, p, q), exact**p / (exact**q - 1), ("_geometric", b, p, q), Decimal("1e-15"))


def test_the_bound_at_beta_on_one_processor_is_the_round_robin_minimum():
    # the same quantity by two formulas differed in the last bits for 759 of these n, and at n = 10**16 the bound
    # at beta read 1.0, below the round-robin minimum's 1.0000000000000038
    for n in sorted({*range(1, 2000), *(2**j for j in range(63)), *(10**j for j in range(19)), sys.maxsize}):
        at_beta = deficiency_upper_bound_at_beta(n, 1)
        assert at_beta.value == best_exponential_deficiency_single_processor(n).value, n
        assert at_beta.params["lam"] == 1.0


@pytest.mark.parametrize("m", [1, 2, 3, 64, 2**31, 2**53 + 1, sys.maxsize - 1, sys.maxsize])
def test_the_bound_at_beta_holds_for_every_count(m):
    # beta rounds to 1.0 from y near 2**56 on, where the bound refused ("rounds to 1.0") though it is near 2 - 1/m
    for n in (1, 2, m - 1, m, m + 1, 2**56, 2**60, sys.maxsize - 1, sys.maxsize):
        if not 1 <= n <= sys.maxsize:
            continue
        report = deficiency_upper_bound_at_beta(n, m)
        gamma = (n - 1) % m
        y = n + m - 1 - gamma
        assert 1.0 <= report.value <= 4.0 and report.params["beta"] >= 1.0, (n, m)
        # log beta = log(y+1)/y, F(beta) = (y+1)/y * beta and lambda = min(2 - 1/m, 1/(1 - beta^-m))
        log_beta = Decimal(y + 1).ln() / y
        want = min(2 - Decimal(1) / m, 1 / (1 - (-m * log_beta).exp())) * (y + 1) / y * log_beta.exp()
        _assert_close(report.value, want, ("deficiency_upper_bound_at_beta", n, m), Decimal("1e-15"))


def test_the_performance_closed_form_reports_its_rewritten_forms_at_any_count():
    # (1 + n/m)(1 + m/n)^(n/m) and (1 + m/n)(1 + m/n)^(n/m) read 1e16 and 1.0 at n = 10**16, m = 1
    for n, m in [(10**16, 1), (2**53 + 1, 1), (sys.maxsize, 3), (5, 2), (2, 4)]:
        report = performance_ratio_closed_form(n, m)
        want = Decimal(n + m) / m * (1 + Decimal(m) / n) ** (Decimal(n) / m)
        _assert_close(report.params["rewritten_m_ge_n"], want, ("rewritten_m_ge_n", n, m), Decimal("1e-15"))
        _assert_close(report.params["rewritten_m_lt_n"], want * m / n, ("rewritten_m_lt_n", n, m), Decimal("1e-15"))
        assert report.value == report.params["acceleration_value"] / (-(-n // m))
    # the stacking factor ceil(n/m) is 2**52 + 1 here, and the float n/m, which rounds to 2**52, took 2**52
    raw = performance_ratio_closed_form(3 * 2**52 + 1, 3).params["acceleration_value"]
    assert performance_ratio_closed_form(3 * 2**52 + 1, 3).value == raw / (2**52 + 1) != raw / 2**52


GREEDY_BASES = (1.0000001, 1.0001, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 1e10)


def test_the_greedy_makespan_keeps_its_digits_and_refuses_only_beyond_the_float_range():
    # b^k (b^(n+m-1) - b^gamma) / (b^m - 1) written out was off by up to 3.95e-10 on this grid (b = 1.0000001,
    # n = 3, m = 4, k = 1) and refused 544 finite makespans whose powers overflowed
    grid = list(itertools.product(GREEDY_BASES, range(1, 33), range(1, 17), range(4)))
    assert len(grid) == 18_432
    refused = 0
    for b, n, m, k in grid:
        exact = Decimal(b)
        want = exact**k * (exact ** (n + m - 1) - exact ** ((n - 1) % m)) / (exact**m - 1)
        if want > Decimal(sys.float_info.max):
            refused += 1
            with pytest.raises(ValueError, match="^greedy geometric makespan at .* overflows the float range$"):
                greedy_geometric_makespan(b, n, m, k)
            continue
        _assert_close(greedy_geometric_makespan(b, n, m, k), want, ("greedy_geometric_makespan", b, n, m, k),
                      Decimal("1e-15"))
    assert refused == 160


@pytest.mark.parametrize("b, n, m, want", [(1e100, 2, 4, 1e100), (10.0, 2, 4, 10.0)])
def test_the_greedy_makespan_is_its_last_job_when_every_job_has_a_processor(b, n, m, want):
    # the jobs 1 and b on four processors: b^(n+m-1) overflowed at b = 1e100, which was refused
    assert greedy_geometric_makespan(b, n, m) == want
