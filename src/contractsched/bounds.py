"""Closed-form bound calculators for the three measures.

Every bound is reported with the parameters it was evaluated at:

* gamma = (n-1) mod m and rho with n-1 = rho*m + gamma split the problem
  count against the processor count;
* kappa = max{1/(2-1/m), (b^m-1)/b^m} is the greedy-to-OPT makespan factor
  on geometric instances, and lambda = 1/kappa its reciprocal;
* beta is the deficiency-minimizing exponential base, a the minimizer of a
  geometric functional.

Every minimized bound is ``generators._geometric_minimum`` of a^p/(a^q - 1) at
its (p, q), and every value of a^p/(a^q - 1) at a base is ``_geometric``: the
greedy makespan's closed form on geometric instances, lambda and the
deficiency functional included, here and in ``verification``'s checks.  The
module also carries the ternary-search optimizer for the geometric
functionals that appear in the lower-bound arguments, and the data sets
behind the three standard figures.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, repeat

from .core import _base, _count, _index, _init_field, _Record
from .generators import _deficiency_exponent, _geometric_minimum


class BoundReport(_Record):
    """A named closed-form bound value with the parameters that produced it.

    ``measure`` is "acceleration", "performance" or "deficiency", and
    ``kind`` is "upper" or "lower".  ``params`` defaults to a new empty dict.
    """

    __slots__ = _fields = ("name", "measure", "kind", "value", "params")

    def __init__(self, name: str, measure: str, kind: str, value: float, params: dict | None = None) -> None:
        _init_field(self, "name", name)
        _init_field(self, "measure", measure)
        _init_field(self, "kind", kind)
        _init_field(self, "value", value)
        _init_field(self, "params", {} if params is None else params)


def _finite(what, closed_form) -> float:
    """closed_form(); a value that overflows the float range or is not finite is a ValueError.

    ``what`` is a callable that builds the error text, called only when raising.
    """
    try:
        value = closed_form()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what()} overflows the float range")
    return value


def _geometric(a: float, p: int, q: int, log_a: float | None = None) -> float:
    """a^p / (a^q - 1) for a > 1 and p >= q >= 1, as a^(p-q) / (1 - a^-q): no power overflows before the quotient does.

    ``log_a``, if given, is log a, for an a that rounds toward 1.0 (``_bound_at_beta``).
    """
    return float(a) ** (p - q) / -math.expm1(-q * (math.log(a) if log_a is None else log_a))


def _lambda_factor(m: int, b: float, log_b: float | None = None) -> float:
    """min{2 - 1/m, b^m/(b^m - 1)}: how far greedy can sit above OPT, inverted; ``log_b`` as in ``_geometric``."""
    return min(2.0 - 1.0 / m, _geometric(b, m, m, log_b))


def _bound_at_beta(m: int, y: int) -> tuple[float, float, float]:
    """(beta, lambda, bound) of the deficiency bound lambda * F(beta) at its optimal base beta = (y+1)^(1/y).

    beta and the least F(beta) of F(b) = b^(y+1)/(b^y - 1) are ``_geometric_minimum(y + 1, y)``; lambda is read
    from log beta = log1p(y)/y, not from beta, which is 1.0 from y of about 2**56 on.
    """
    beta, least = _geometric_minimum(y + 1, y)
    lam = _lambda_factor(m, beta, math.log1p(y) / y)
    return beta, lam, lam * least


def greedy_geometric_makespan(b: float, n: int, m: int, k: int = 0) -> float:
    """Closed form of the greedy makespan on jobs b**k, ..., b**(n+k-1), k an index (``core._index``).

    Greedy in increasing order places the i-th job on processor i mod m, so
    the busiest processor carries the geometric subseries ending at the last
    job:  b**k * (b**(n+m-1) - b**gamma) / (b**m - 1), gamma = (n-1) mod m.
    That is ``_geometric(b, k+n+m-1, m) * (1 - b**-y)``, y = n+m-1-gamma: the
    last job b**(k+n-1) times a factor between 1 and y/m, so a ValueError
    comes only where the last job itself overflows the float range.
    """
    b, n, m, k = _base(b, "geometric ratio"), _count(n, "n"), _count(m, "m"), _index(k, sys.maxsize, "k")
    y = _deficiency_exponent(n, m)[1]
    return _finite(lambda: f"greedy geometric makespan at b={b!r}, n={n}, m={m}, k={k}",
                   lambda: _geometric(b, k + n + m - 1, m) * -math.expm1(-y * math.log(b)))


def deficiency_upper_bound(n: int, m: int, b: float) -> BoundReport:
    """Deficiency bound of the base-b exponential schedule: lambda * b^(n+m) / (b^(n+m-1) - b^gamma).

    That is lambda * b^(y+1)/(b^y - 1), y = n+m-1-gamma, finite at every base: lambda <= 2 - 1/m is 1 once
    b^-m is below about 2**-54, and b^(y+1)/(b^y - 1) = b/(1 - b^-y) is at most b/(1 - 1/b).
    """
    b, n, m = _base(b, "base"), _count(n, "n"), _count(m, "m")
    gamma, y = _deficiency_exponent(n, m)
    lam = _lambda_factor(m, b)
    return BoundReport(
        name="exponential-deficiency-upper",
        measure="deficiency",
        kind="upper",
        value=lam * _geometric(b, y + 1, y),
        params={"n": n, "m": m, "b": b, "gamma": gamma, "lam": lam, "kappa": 1.0 / lam},
    )


def deficiency_upper_bound_at_beta(n: int, m: int) -> BoundReport:
    """The exponential deficiency bound at its optimal base beta; it depends on (m, rho) only, n-1 = rho*m + gamma."""
    n, m = _count(n, "n"), _count(m, "m")
    gamma, y = _deficiency_exponent(n, m)
    rho = y // m - 1
    beta, lam, value = _bound_at_beta(m, y)
    return BoundReport(
        name="exponential-deficiency-upper-at-beta",
        measure="deficiency",
        kind="upper",
        value=value,
        params={"n": n, "m": m, "gamma": gamma, "rho": rho, "beta": beta, "lam": lam},
    )


def best_exponential_deficiency_single_processor(n: int) -> BoundReport:
    """Deficiency of the best exponential schedule on one processor (the round-robin minimum): (n+1)^((n+1)/n)/n."""
    n = _count(n, "n")
    beta, value = _geometric_minimum(*_exponents("round-robin", n, None))
    return BoundReport(
        name="best-exponential-deficiency-m1",
        measure="deficiency",
        kind="upper",
        value=value,
        params={"n": n, "m": 1, "beta": beta},
    )


def deficiency_lower_bound_general(n: int) -> BoundReport:
    """Every single-processor schedule for n problems has deficiency >= (n+1)/n."""
    n = _count(n, "n")
    return BoundReport(
        name="deficiency-lower-general",
        measure="deficiency",
        kind="lower",
        value=(n + 1) / n,
        params={"n": n, "m": 1},
    )


def roundrobin_lower_bound(n: int) -> BoundReport:
    """Round-robin schedules on one processor cannot beat the best exponential one."""
    best = best_exponential_deficiency_single_processor(n)
    return BoundReport(
        name="deficiency-lower-roundrobin",
        measure="deficiency",
        kind="lower",
        value=best.value,
        params={"n": n, "m": 1, "a": best.params["beta"]},
    )


def two_problem_lower_bound() -> BoundReport:
    """Any schedule for two problems on one processor has deficiency >= 2^(8/3)/3 (~2.1165).

    The bound is min over a > 1 of a^4/(a^3 - 1), attained at a = 2^(2/3).
    """
    a, value = _geometric_minimum(*_exponents("two-problem", None, None))
    return BoundReport(
        name="two-problem-lb",
        measure="deficiency",
        kind="lower",
        value=value,
        params={"n": 2, "m": 1, "a": a},
    )


def cyclic_acceleration_lower_bound(n: int, m: int) -> BoundReport:
    """Cyclic schedules have acceleration ratio >= (n/m) * ((n+m)/n)^((n+m)/m).

    Attained by the exponential schedule with base a = ((m+n)/n)^(1/m); it is
    the minimum over a > 1 of a^(n+m)/(a^m - 1).
    """
    n, m = _count(n, "n"), _count(m, "m")
    a, value = _geometric_minimum(*_exponents("cyclic-acceleration", n, m))
    return BoundReport(
        name="cyclic-acceleration-lb",
        measure="acceleration",
        kind="lower",
        value=value,
        params={"n": n, "m": m, "a": a},
    )


def performance_ratio_closed_form(n: int, m: int) -> BoundReport:
    """Performance ratio of the acceleration-optimal schedule (it is optimal for this measure).

    (n/m)((m+n)/n)^((m+n)/m) for m >= n, divided by ceil(n/m) for m < n.
    The report carries the two rewritten forms (1+n/m)(1+m/n)^(n/m) and
    (1+m/n)(1+m/n)^(n/m) that show the <= 4 and <= 2e ceilings: the first is
    the acceleration bound itself, the second that bound times m/n.
    """
    n, m = _count(n, "n"), _count(m, "m")
    acceleration = cyclic_acceleration_lower_bound(n, m)
    raw = acceleration.value
    stack = -(-n // m)  # ceil(n/m) in integers: a float n/m rounds past 2**53
    value = raw / stack
    return BoundReport(
        name="performance-ratio-closed-form",
        measure="performance",
        kind="upper",
        value=value,
        params={
            "n": n,
            "m": m,
            "a": acceleration.params["a"],
            "acceleration_value": raw,
            "rewritten_m_ge_n": raw,
            "rewritten_m_lt_n": raw * m / n,
        },
    )


# ---------------------------------------------------------------------------
# Geometric functionals and their minimization
# ---------------------------------------------------------------------------

FUNCTIONALS = ("round-robin", "cyclic-acceleration", "two-problem")


def _exponents(name: str, n: int | None, m: int | None) -> tuple[int, int]:
    """The exponents (p, q) of the named functional a^p / (a^q - 1), from counts checked by ``_count``.

    round-robin:          (n+1, n)
    cyclic-acceleration:  (n+m, m)
    two-problem:          (4, 3)
    """
    if name == "round-robin":
        if n is None:
            raise ValueError("round-robin functional needs n")
        return _count(n, "n") + 1, n
    if name == "cyclic-acceleration":
        if n is None or m is None:
            raise ValueError("cyclic-acceleration functional needs n and m")
        return _count(n, "n") + _count(m, "m"), m
    if name == "two-problem":
        return 4, 3
    raise ValueError(f"unknown functional {name!r}; expected one of {FUNCTIONALS}")


def geometric_functional(name: str, n: int | None = None, m: int | None = None):
    """The limit value a^p / (a^q - 1), as a function of the base a > 1, of the named functional family."""
    p, q = _exponents(name, n, m)
    what = f"{name} functional base a"  # built once: the optimizer calls the functional thousands of times

    def functional(a: float) -> float:
        a = _base(a, what)
        return _finite(lambda: f"{name} functional at a={a!r}", lambda: _geometric(a, p, q))

    return functional


def optimize_geometric_functional(name: str, n: int | None = None, m: int | None = None) -> tuple[float, float]:
    """Ternary-search minimizer (a*, F(a*)) of a geometric functional over (1, 64].

    The bracket's upper end is lowered to 2**(1020/p), p being the
    functional's top exponent, so that a**p stays in the float range.
    Ternary search is valid because each functional is unimodal on any
    bracket in (1, inf): F'(a) has the sign of (p - q) a^q - p, and since
    p > q >= 1 for all three, (n+1, n), (n+m, m) and (4, 3), that sign
    changes once, from - to +, at a* = (p / (p - q))^(1/q), the closed-form
    base the search is checked against (``verify``'s C06).  The search stops
    once the bracket is at most 1e-10 wide.  Each step keeps two thirds of a
    bracket at most 63 wide, so it ends within 68 steps: (2/3)**68 * 63 < 1e-10.
    A search that never moves the lower end 1 + 1e-9 (a* - 1 below about
    1e-9, or p past about 7 * 10**11, where the bracket is empty) raises a
    ValueError instead of returning the bracket's end.
    """
    p, _ = _exponents(name, n, m)
    f = geometric_functional(name, n=n, m=m)
    bracket = lo, hi = 1.0 + 1e-9, min(64.0, 2 ** (1020 / p))
    while hi - lo > 1e-10:
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    if lo == bracket[0]:
        raise ValueError(f"{name} functional at n={n}, m={m}: no minimizer inside the search bracket "
                         f"[1 + 1e-9, {bracket[1]!r}]")
    a = 0.5 * (lo + hi)
    return a, f(a)


def truncated_functional_sup(name: str, a: float, k_max: int = 200, n: int | None = None, m: int | None = None) -> float:
    """sup over k <= k_max of the named functional evaluated on the geometric sequence a^j.

    Computed by direct accumulation of the truncated sums, confirming that
    eliminating the supremum over k yields the closed forms of
    ``geometric_functional`` in the k -> infinity limit (for a > 1).  Window j
    divides a^0 + ... + a^(j+p-1) by a^j + ... + a^(j+q-1), from j = m for the
    cyclic bound and j = 0 otherwise.  A sum beyond the float range is a ValueError.
    """
    p, q = _exponents(name, n, m)  # rejects an unknown name, and a missing or out-of-range n or m
    a, low = _base(a, f"{name} functional base a"), 2 if name == "two-problem" else 0
    if type(k_max) is not int or k_max < low:  # below low the sup has no window to take
        raise ValueError(f"k_max must be an integer >= {low} for a {name} window, got {k_max!r}")
    first = q if name == "cyclic-acceleration" else 0
    windows = range(first, first + k_max + 1 - low)

    def sup() -> float:
        # prefix[i] = a^0 + ... + a^(i-1), up to the last window's top power a^(j+p-1)
        prefix = list(accumulate(map(pow, repeat(a), range(windows[-1] + p)), initial=0.0))
        return max(prefix[j + p] / (prefix[j + q] - prefix[j]) for j in windows)

    return _finite(lambda: f"{name} truncated sup at a={a!r}", sup)


# ---------------------------------------------------------------------------
# Figure data sets
# ---------------------------------------------------------------------------


def figure1_performance_curve() -> list[tuple[float, float]]:
    """Performance ratio against the problem/processor ratio r = n/m (m dividing n), for r = 1..64.

    The closed form at (r, 1), (1 + 1/r)(1 + 1/r)^r: equals 4 at r = 1 and decreases toward e.
    """
    return [(float(r), performance_ratio_closed_form(r, 1).value) for r in range(1, 65)]


def figure2_deficiency_surface() -> list[tuple[int, int, float]]:
    """The optimized deficiency bound over the (m, rho) grid [1, 64]^2 (the n > m regime), m-major.

    Cell (m, rho) is ``deficiency_upper_bound_at_beta(m*rho + 1, m).value``, without building its report.
    """
    return [(m, rho, _bound_at_beta(m, m * (rho + 1))[2]) for m in range(1, 65) for rho in range(1, 65)]


def figure3_single_processor_curves() -> list[tuple[int, float, float]]:
    """General lower bound (n+1)/n vs best exponential value (n+1)^((n+1)/n)/n, for n = 1..20."""
    return [
        (n, deficiency_lower_bound_general(n).value, best_exponential_deficiency_single_processor(n).value)
        for n in range(1, 21)
    ]
