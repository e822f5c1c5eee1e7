"""Closed-form bound calculators for the three measures.

Every bound is reported with the parameters it was evaluated at:

* gamma = (n-1) mod m and rho with n-1 = rho*m + gamma split the problem
  count against the processor count;
* kappa = max{1/(2-1/m), (b^m-1)/b^m} is the greedy-to-OPT makespan factor
  on geometric instances, and lambda = 1/kappa its reciprocal;
* beta is the deficiency-minimizing exponential base, a the minimizer of a
  geometric functional.

The module also carries the greedy makespan's closed form on geometric
instances, the ternary-search optimizer for the geometric functionals that
appear in the lower-bound arguments, and the data sets behind the three
standard figures.
"""

from __future__ import annotations

import math

from .core import _base, _count, _init_field, _Record
from .generators import acceleration_optimal_base, deficiency_optimal_base


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


def _finite(what: str, closed_form) -> float:
    """closed_form(); a value that overflows the float range or is not finite is a ValueError."""
    try:
        value = closed_form()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} overflows the float range")
    return value


def _lambda_factor(m: int, b: float) -> float:
    """min{2 - 1/m, b^m/(b^m - 1)}: how far greedy can sit above OPT, inverted."""
    return min(2.0 - 1.0 / m, b**m / (b**m - 1.0))


def greedy_geometric_makespan(b: float, n: int, m: int, k: int = 0) -> float:
    """Closed form of the greedy makespan on jobs b**k, ..., b**(n+k-1).

    Greedy in increasing order places the i-th job on processor i mod m, so
    the busiest processor carries the geometric subseries ending at the last
    job:  b**k * (b**(n+m-1) - b**((n-1) mod m)) / (b**m - 1).
    """
    b, n, m = _base(b, "geometric ratio"), _count(n, "n"), _count(m, "m")
    return _finite(f"greedy geometric makespan at b={b!r}, n={n}, m={m}, k={k}",
                   lambda: b**k * (b ** (n + m - 1) - b ** ((n - 1) % m)) / (b**m - 1))


def deficiency_upper_bound(n: int, m: int, b: float) -> BoundReport:
    """Deficiency bound of the base-b exponential schedule: lambda * b^(n+m) / (b^(n+m-1) - b^gamma)."""
    b, n, m = _base(b, "base"), _count(n, "n"), _count(m, "m")
    gamma = (n - 1) % m
    what = f"exponential deficiency bound at n={n}, m={m}, b={b!r}"
    lam = _finite(what, lambda: _lambda_factor(m, b))
    value = _finite(what, lambda: lam * b ** (n + m) / (b ** (n + m - 1) - b**gamma))
    return BoundReport(
        name="exponential-deficiency-upper",
        measure="deficiency",
        kind="upper",
        value=value,
        params={"n": n, "m": m, "b": b, "gamma": gamma, "lam": lam, "kappa": 1.0 / lam},
    )


def deficiency_bound_at_beta_mrho(m: int, rho: int) -> float:
    """The optimized deficiency bound as a function of (m, rho) only.

    With y = m*(rho+1) and beta = (y+1)^(1/y) the bound is
    min{2-1/m, beta^m/(beta^m-1)} / (beta^-1 - beta^-(y+1)); gamma cancels,
    so the whole surface is parameterized by m and rho.
    """
    m = _count(m, "m")
    if type(rho) is not int or rho < 0:
        raise ValueError(f"rho must be an integer >= 0, got {rho}")
    y = m * (rho + 1)
    beta = deficiency_optimal_base(m * rho + 1, m)
    if not beta > 1.0:
        raise ValueError(f"the optimal base (y+1)^(1/y) at y={y} rounds to {beta!r}; the bound needs a base > 1")
    return _lambda_factor(m, beta) / (beta**-1 - beta ** (-(y + 1)))


def deficiency_upper_bound_at_beta(n: int, m: int) -> BoundReport:
    """The exponential deficiency bound evaluated at its optimal base beta."""
    n, m = _count(n, "n"), _count(m, "m")
    gamma = (n - 1) % m
    rho = (n - 1 - gamma) // m
    beta = deficiency_optimal_base(n, m)
    value = deficiency_bound_at_beta_mrho(m, rho)
    return BoundReport(
        name="exponential-deficiency-upper-at-beta",
        measure="deficiency",
        kind="upper",
        value=value,
        params={"n": n, "m": m, "gamma": gamma, "rho": rho, "beta": beta, "lam": _lambda_factor(m, beta)},
    )


def best_exponential_deficiency_single_processor(n: int) -> BoundReport:
    """Deficiency of the best exponential schedule on one processor: (n+1)^((n+1)/n) / n."""
    n = _count(n, "n")
    value = math.exp(math.log(n + 1) * (n + 1) / n) / n
    return BoundReport(
        name="best-exponential-deficiency-m1",
        measure="deficiency",
        kind="upper",
        value=value,
        params={"n": n, "m": 1, "beta": deficiency_optimal_base(n, 1)},
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
        params={"n": n, "m": 1, "a": deficiency_optimal_base(n, 1)},
    )


def two_problem_lower_bound() -> BoundReport:
    """Any schedule for two problems on one processor has deficiency >= 2^(8/3)/3 (~2.1165).

    The bound is min over a > 1 of a^4/(a^3 - 1), attained at a = 2^(2/3).
    """
    a = 2.0 ** (2.0 / 3.0)
    return BoundReport(
        name="two-problem-lb",
        measure="deficiency",
        kind="lower",
        value=2.0 ** (8.0 / 3.0) / 3.0,
        params={"n": 2, "m": 1, "a": a},
    )


def cyclic_acceleration_lower_bound(n: int, m: int) -> BoundReport:
    """Cyclic schedules have acceleration ratio >= (n/m) * ((n+m)/n)^((n+m)/m).

    Attained by the exponential schedule with base a = ((m+n)/n)^(1/m); it is
    the minimum over a > 1 of a^(n+m)/(a^m - 1).
    """
    n, m = _count(n, "n"), _count(m, "m")
    a = acceleration_optimal_base(n, m)
    value = (n / m) * ((n + m) / n) ** ((n + m) / m)
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
    (1+m/n)(1+m/n)^(n/m) that show the <= 4 and <= 2e ceilings.
    """
    n, m = _count(n, "n"), _count(m, "m")
    acceleration = cyclic_acceleration_lower_bound(n, m)
    raw = acceleration.value
    stack = math.ceil(n / m)
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
            "rewritten_m_ge_n": (1 + n / m) * (1 + m / n) ** (n / m),
            "rewritten_m_lt_n": (1 + m / n) * (1 + m / n) ** (n / m),
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
        return _finite(f"{name} functional at a={a!r}", lambda: a**p / (a**q - 1))

    return functional


def _assert_unimodal(f, lo: float, hi: float) -> None:
    # the finite-difference signs at 256 log-spaced samples must go down then up, never down again
    ys = [f(lo * (hi / lo) ** (i / 255)) for i in range(256)]
    seen_increase = False
    for y0, y1 in zip(ys, ys[1:]):
        if y1 > y0:
            seen_increase = True
        elif y1 < y0 and seen_increase:
            raise ValueError("sampled functional is not unimodal on the bracket")


def optimize_geometric_functional(name: str, n: int | None = None, m: int | None = None) -> tuple[float, float]:
    """Ternary-search minimizer (a*, F(a*)) of a geometric functional over (1, 64].

    The bracket's upper end is lowered to 2**(1020/p), p being the
    functional's top exponent, so that a**p stays in the float range.  The
    functional is checked for unimodality on the bracket by sampled
    monotonicity of the difference signs before searching.  The search stops
    once the bracket is at most 1e-10 wide.  Each step keeps two thirds of a
    bracket at most 63 wide, so it ends within 68 steps: (2/3)**68 * 63 < 1e-10.
    """
    p, _ = _exponents(name, n, m)
    f = geometric_functional(name, n=n, m=m)
    lo, hi = 1.0 + 1e-9, min(64.0, 2 ** (1020 / p))
    _assert_unimodal(f, lo, hi)
    while hi - lo > 1e-10:
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    a = 0.5 * (lo + hi)
    return a, f(a)


def truncated_functional_sup(name: str, a: float, k_max: int = 200, n: int | None = None, m: int | None = None) -> float:
    """sup over k <= k_max of the named functional evaluated on the geometric sequence a^j.

    Computed by direct accumulation of the truncated sums, confirming that
    eliminating the supremum over k yields the closed forms of
    ``geometric_functional`` in the k -> infinity limit (for a > 1).  A sum
    beyond the float range is a ValueError.
    """
    _exponents(name, n, m)  # rejects an unknown name, and a missing or out-of-range n or m
    a, low = _base(a, f"{name} functional base a"), 2 if name == "two-problem" else 0
    if type(k_max) is not int or k_max < low:  # below low the sup has no window to take
        raise ValueError(f"k_max must be an integer >= {low} for a {name} window, got {k_max!r}")
    def sup() -> float:
        # the powers a^0 .. a^(k_max + top - 1) the named functional's windows reach, and no more:
        # a count it does not use (m for round-robin, say) sizes nothing
        top = n + 1 if name == "round-robin" else n + 2 * m if name == "cyclic-acceleration" else 2
        powers = [a**j for j in range(k_max + top)]
        prefix = [0.0]
        for p in powers:
            prefix.append(prefix[-1] + p)  # prefix[i] = sum of a^0 .. a^(i-1)

        def window(lo_idx: int, hi_idx: int) -> float:
            return prefix[hi_idx + 1] - prefix[lo_idx]

        best = -math.inf
        if name == "round-robin":
            for k in range(k_max + 1):
                best = max(best, window(0, k + n) / window(k, k + n - 1))
        elif name == "cyclic-acceleration":
            for k in range(k_max + 1):
                best = max(best, window(0, k + n + 2 * m - 1) / window(k + m, k + 2 * m - 1))
        else:
            for k in range(2, k_max + 1):
                best = max(best, window(0, k + 1) / (powers[k] + powers[k - 1] + powers[k - 2]))
        return best

    return _finite(f"{name} truncated sup at a={a!r}", sup)


# ---------------------------------------------------------------------------
# Figure data sets
# ---------------------------------------------------------------------------


def figure1_performance_curve(r_max: int = 64) -> list[tuple[float, float]]:
    """Performance ratio against the problem/processor ratio r = n/m (m dividing n).

    (1 + 1/r)(1 + 1/r)^r: equals 4 at r = 1 and decreases toward e.
    """
    return [(float(r), (1 + 1 / r) * (1 + 1 / r) ** r) for r in range(1, r_max + 1)]


def figure2_deficiency_surface(m_max: int = 64, rho_max: int = 64) -> list[tuple[int, int, float]]:
    """The optimized deficiency bound over the (m, rho) grid (the n > m regime)."""
    return [
        (m, rho, deficiency_bound_at_beta_mrho(m, rho))
        for m in range(1, m_max + 1)
        for rho in range(1, rho_max + 1)
    ]


def figure3_single_processor_curves(n_max: int = 20) -> list[tuple[int, float, float]]:
    """General lower bound (n+1)/n vs best exponential value (n+1)^((n+1)/n)/n."""
    return [
        (n, deficiency_lower_bound_general(n).value, best_exponential_deficiency_single_processor(n).value)
        for n in range(1, n_max + 1)
    ]
