"""Constructors for the standard schedule families.

Exponential round-robin schedules assign contract i to problem i mod n and
processor i mod m with length b**i.  The two closed-form base choices are the
deficiency-minimizing base and the acceleration-ratio-minimizing base.
"""

from __future__ import annotations

import math
from itertools import repeat

from .core import Schedule, _base, _count, _init_field, _Record


class ExponentialSpec(_Record):
    """Parameters of an exponential round-robin schedule prefix.

    ``k_max`` is the number of contracts to materialize; it defaults to
    8*(n+m), by which point the empirical supremum over critical times has
    stabilized for any base > 1.
    """

    __slots__ = _fields = ("n", "m", "base", "k_max")

    def __init__(self, n: int, m: int, base: float, k_max: int | None = None) -> None:
        n, m, base = _count(n, "n"), _count(m, "m"), _base(base, "base")
        if k_max is not None and _count(k_max, "k_max") < n + m:
            raise ValueError(f"k_max must be >= n + m = {n + m} for a full evaluation window")
        _init_field(self, "n", n)
        _init_field(self, "m", m)
        _init_field(self, "base", base)
        _init_field(self, "k_max", k_max)

    @property
    def contracts_to_build(self) -> int:
        return self.k_max if self.k_max is not None else 8 * (self.n + self.m)


def exponential_schedule(spec: ExponentialSpec) -> Schedule:
    """Materialize the prefix of an exponential round-robin schedule, handing ``Schedule`` its three columns.

    Each index column repeats ``range(n)`` or ``range(m)`` in one allocation: a MemoryError at once if too long.
    """
    n, m, b = spec.n, spec.m, spec.base
    k = spec.contracts_to_build
    try:
        # b**i grows with i, so the last length overflows exactly when any would: this one pow refuses an
        # overflowing base and k before a single contract is built
        pow(float(b), k - 1)
    except OverflowError:
        raise ValueError(f"base {b!r} with k={k} contracts overflows: {b!r}**{k - 1} exceeds the float range") from None
    problems, processors = ((tuple(range(count)) * -(-k // count))[:k] for count in (n, m))
    return Schedule._of(n, m, (problems, processors, map(pow, repeat(float(b)), range(k))),
                        {"family": "exponential", "base": b})


def _geometric_minimum(p: int, q: int) -> tuple[float, float]:
    """Minimizer and minimum (a*, F(a*)) of F(a) = a^p / (a^q - 1) over a > 1, for p > q >= 1.

    a* = (p/(p-q))^(1/q) and F(a*) = p/q * (p/(p-q))^((p-q)/q), through exp and log1p(q/(p-q)), so no power
    overflows and no digit of q/(p-q) is lost to p/(p-q) rounding toward 1.0 as p/q grows.
    """
    log_ratio = math.log1p(q / (p - q))
    return math.exp(log_ratio / q), p / q * math.exp(log_ratio * (p - q) / q)


def _deficiency_exponent(n: int, m: int) -> tuple[int, int]:
    """(gamma, y) for checked counts: gamma = (n-1) mod m, and y = n+m-1-gamma = m*(rho+1) with n-1 = rho*m + gamma."""
    gamma = (n - 1) % m
    return gamma, n + m - 1 - gamma


def deficiency_optimal_base(n: int, m: int) -> float:
    """Base minimizing the deficiency bound lambda * b^(y+1)/(b^y - 1), y = n+m-1-gamma: (y+1)^(1/y).

    For m=1 it reduces to (n+1)^(1/n).
    """
    y = _deficiency_exponent(_count(n, "n"), _count(m, "m"))[1]
    return _geometric_minimum(y + 1, y)[0]


def acceleration_optimal_base(n: int, m: int) -> float:
    """Base minimizing the acceleration ratio a^(n+m)/(a^m - 1): ((m+n)/n)^(1/m)."""
    n, m = _count(n, "n"), _count(m, "m")
    return _geometric_minimum(n + m, m)[0]
