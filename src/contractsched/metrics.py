"""Ratio measures of a schedule over its critical interruption times.

All three measures are suprema over interruption times of a ratio
time/denominator, where the denominator is read off the snapshot right
before the interruption:

* acceleration ratio:  denominator = smallest per-problem completed length;
* performance ratio:   the same, scaled by ceil(n/m) (the offline schedule
  must stack ceil(n/m) equal contracts on some processor);
* deficiency:          denominator = OPT(snapshot), the optimal makespan of
  the n completed lengths on the m processors.

Times where some problem has no completed contract ("unserved" windows) are
infinitely bad.  With the default window they are reported separately and the
value is the supremum over the served windows; a window passed explicitly
that is unserved makes the value +infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

# perfbench/traced_cli.py wraps metrics.simulate and metrics.critical_times by name, so both stay imported.
from .core import Schedule, critical_times, simulate, snapshots_before  # noqa: F401
from .makespan import MakespanInstance, exact_makespan, lpt_makespan


@dataclass(frozen=True)
class MeasureSample:
    """One evaluated interruption time: snapshot, divisor of t, and ratio."""

    time: float
    snapshot: tuple[float, ...]  # sorted, n values
    denominator: float
    ratio: float
    served: bool


@dataclass(frozen=True)
class MeasureReport:
    """Result of evaluating one measure on a finite schedule prefix.

    ``value`` is the supremum of the series (+inf if an unserved window was
    explicitly requested, or if no window is served at all).  ``analytic``
    carries the closed-form limit or upper bound for recognized schedule
    families, since the true supremum of an infinite schedule is only
    approached by the finite prefix.
    """

    measure: str
    value: float
    argmax_time: float | None
    samples: tuple[MeasureSample, ...]
    unserved_times: tuple[float, ...]
    incomplete: bool
    truncation_note: str | None
    analytic: dict | None = None
    solver: str | None = None
    exact: bool = True


def _truncation_note(schedule: Schedule) -> str | None:
    if schedule.generator is not None:
        return f"finite prefix of {len(schedule)} contracts from an infinite {schedule.generator.get('family')} schedule"
    return None


def _evaluate(schedule: Schedule, window: Iterable[float] | None, measure: str, denom_of, analytic: dict | None,
              solver: str | None = None, exact: bool = True) -> MeasureReport:
    explicit = window is not None
    times = sorted(window) if explicit else critical_times(schedule)

    samples: list[MeasureSample] = []
    unserved: list[float] = []
    value = -math.inf
    argmax: float | None = None
    for t, longest in zip(times, snapshots_before(schedule, times)):
        snap = tuple(sorted(longest))
        if snap[0] <= 0.0:
            unserved.append(t)
            if explicit:
                samples.append(MeasureSample(t, snap, 0.0, math.inf, served=False))
                value = math.inf
                argmax = t
            continue
        denom = denom_of(snap)
        ratio = t / denom
        samples.append(MeasureSample(t, snap, denom, ratio, served=True))
        if value != math.inf and ratio > value:
            value = ratio
            argmax = t
    if value == -math.inf:
        value = math.inf  # nothing served: any interruption is infinitely bad
        argmax = None

    return MeasureReport(
        measure=measure,
        value=value,
        argmax_time=argmax,
        samples=tuple(samples),
        unserved_times=tuple(unserved),
        incomplete=bool(unserved),
        truncation_note=_truncation_note(schedule),
        analytic=analytic,
        solver=solver,
        exact=exact,
    )


def _exponential_base(schedule: Schedule) -> float | None:
    gen = schedule.generator
    if gen is not None and gen.get("family") == "exponential":
        return float(gen["base"])
    return None


def acceleration_ratio(schedule: Schedule, window: Iterable[float] | None = None) -> MeasureReport:
    """sup over interruption times t, max over problems, of t / longest completed."""
    analytic = None
    b = _exponential_base(schedule)
    if b is not None:
        n, m = schedule.n_problems, schedule.m_processors
        analytic = {"kind": "limit", "value": b ** (n + m) / (b**m - 1)}
    return _evaluate(schedule, window, "acceleration", lambda snap: snap[0], analytic)


def performance_ratio(schedule: Schedule, window: Iterable[float] | None = None) -> MeasureReport:
    """Acceleration ratio scaled down by ceil(n/m), the offline stacking factor.

    The worst feasible offline schedule uses equal-length contracts; with m < n
    some processor stacks ceil(n/m) of them, so its contracts have length
    t/ceil(n/m).  For m >= n this coincides with the acceleration ratio.
    """
    stack = math.ceil(schedule.n_problems / schedule.m_processors)
    analytic = None
    b = _exponential_base(schedule)
    if b is not None:
        n, m = schedule.n_problems, schedule.m_processors
        analytic = {"kind": "limit", "value": b ** (n + m) / (b**m - 1) / stack}
    return _evaluate(schedule, window, "performance", lambda snap: stack * snap[0], analytic)


def deficiency(schedule: Schedule, window: Iterable[float] | None = None, solver: str = "exact") -> MeasureReport:
    """sup over interruption times t of t / OPT(snapshot before t).

    ``solver="exact"`` uses the branch-and-bound makespan oracle (guarded at
    24 jobs).  ``solver="lpt"`` substitutes the LPT makespan; since LPT
    over-estimates OPT, each ratio in the series then under-estimates the
    true deficiency, and the report is flagged non-exact.
    """
    if solver not in ("exact", "lpt"):
        raise ValueError(f"solver must be 'exact' or 'lpt', got {solver!r}")
    m = schedule.m_processors

    def denom_of(snap: tuple[float, ...]) -> float:
        instance = MakespanInstance(sizes=snap, m=m)
        if solver == "exact":
            return exact_makespan(instance).makespan
        return lpt_makespan(instance).makespan

    analytic = None
    b = _exponential_base(schedule)
    if b is not None:
        n = schedule.n_problems
        if m == 1:
            analytic = {"kind": "limit", "value": b ** (n + 1) / (b**n - 1)}
        else:
            gamma = (n - 1) % m
            lam = min(2.0 - 1.0 / m, b**m / (b**m - 1))
            analytic = {"kind": "upper_bound", "value": lam * b ** (n + m) / (b ** (n + m - 1) - b**gamma)}
    return _evaluate(schedule, window, "deficiency", denom_of, analytic, solver=solver, exact=(solver == "exact"))


def scaling_oracle(values: Sequence[float], m: int, t: float, rel_tol: float = 1e-13) -> float:
    """Largest d such that the d-scaled value set packs into m processors by time t.

    Bisection on d with exact-makespan feasibility.  Because the makespan
    scales linearly, this equals t / OPT(values); the two routes are kept
    separate so each can check the other.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    values = tuple(values)
    total = sum(values)
    top = max(values)
    lo = t / total  # always feasible: OPT(lo * values) <= lo * total = t
    hi = (t / top) * (1.0 + 1e-6)  # infeasible: the largest scaled job alone exceeds t

    def feasible(d: float) -> bool:
        span = exact_makespan(MakespanInstance(tuple(d * v for v in values), m)).makespan
        return span <= t * (1.0 + 1e-12)

    if feasible(hi):  # numerical slack only; hi is infeasible in exact arithmetic
        return hi
    for _ in range(200):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def deficiency_bruteforce_oracle(schedule: Schedule, t: float, max_problems: int = 10, max_processors: int = 3) -> float:
    """Deficiency at time t via the scaling characterization, as an independent check.

    The best offline schedule scales the snapshot uniformly by the largest
    feasible factor d, so def(X, t) = d; computed by bisection rather than by
    the t/OPT formula.  Guarded to small instances.
    """
    if schedule.n_problems > max_problems or schedule.m_processors > max_processors:
        raise ValueError(
            f"oracle guard: needs n <= {max_problems} and m <= {max_processors}, "
            f"got n={schedule.n_problems}, m={schedule.m_processors}"
        )
    (longest,) = snapshots_before(schedule, [t])
    snap = tuple(sorted(longest))
    if snap[0] <= 0.0:
        return math.inf
    return scaling_oracle(snap, schedule.m_processors, t)
