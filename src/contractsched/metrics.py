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
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

# perfbench/traced_cli.py wraps metrics.simulate, metrics.critical_times and metrics.lpt_makespan by name,
# so all three stay imported.
from .bounds import deficiency_upper_bound, geometric_functional
from .core import Schedule, critical_times, simulate, snapshots_before  # noqa: F401
from .makespan import MakespanInstance, _lpt_span, assignment_from_map, exact_makespan, lower_bound
from .makespan import lpt_makespan  # noqa: F401

# Relative distance, entry by entry, within which two normalized snapshots
# share one optimal partition in ``deficiency`` (see its docstring).
SHAPE_TOLERANCE = 4e-13

# Relative width at which ``scaling_oracle`` stops bisecting, and the largest
# schedules ``deficiency_bruteforce_oracle`` accepts.
ORACLE_REL_TOL = 1e-13
ORACLE_MAX_PROBLEMS = 10
ORACLE_MAX_PROCESSORS = 3


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
    approached by the finite prefix.  ``opt_solves`` counts the exact OPT
    solves actually run (0 for the acceleration and performance ratios and
    for the LPT deficiency).  ``windows`` counts the windows of the series
    (the served ones for the default window), ``pruned_windows`` those whose
    OPT solve the bound-pruned deficiency skipped.
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
    opt_solves: int = 0
    windows: int = 0
    pruned_windows: int = 0


def window_ratios(schedule: Schedule, times: Sequence[float],
                  denom_of: Callable[[tuple[float, ...]], float]) -> Iterator[tuple]:
    """(t, sorted snapshot, denominator, ratio) right before each ascending t.

    A window where some problem has nothing completed yields denominator 0.0
    and ratio +inf; ``denom_of`` is called only on served snapshots.  Every
    measure reads its windows from here.
    """
    for t, longest in zip(times, snapshots_before(schedule, times)):
        snap = tuple(sorted(longest))
        if snap[0] <= 0.0:
            yield t, snap, 0.0, math.inf
        else:
            denom = denom_of(snap)
            yield t, snap, denom, t / denom


def _evaluate(schedule: Schedule, window: Iterable[float] | None, measure: str, denom_of, analytic: dict | None, *,
              samples: bool = True, lower: Callable[[tuple[float, ...]], float] | None = None) -> MeasureReport:
    """The one window loop; ``lower``, a lower bound on ``denom_of``, prunes as ``deficiency`` describes."""
    explicit = window is not None
    times = sorted(window) if explicit else critical_times(schedule)

    seed, best = -1, -math.inf  # the served window with the largest ceiling t / lower, earliest on ties
    if lower is not None:
        top = -math.inf
        for i, (t, snap, _, ceiling) in enumerate(window_ratios(schedule, times, lower)):
            if snap[0] > 0.0 and ceiling > top:
                seed, top, seed_snap = i, ceiling, snap
        if seed >= 0:
            seed_denom = denom_of(seed_snap)
            best = times[seed] / seed_denom

    rows: list[MeasureSample] = []
    unserved: list[float] = []
    value = -math.inf
    argmax: float | None = None
    pruned = 0
    for i, (t, snap, denom, ratio) in enumerate(window_ratios(schedule, times, lower or denom_of)):
        served = snap[0] > 0.0
        if not served:
            unserved.append(t)
            if not explicit:
                continue
        elif lower is not None:  # denom and ratio are the lower bound and the ceiling
            if i != seed and ratio < max(best, value) * (1.0 - 1e-12):
                pruned += 1
                continue
            denom = seed_denom if i == seed else denom_of(snap)
            ratio = t / denom
        if samples:
            rows.append(MeasureSample(t, snap, denom, ratio, served))
        if ratio > value:
            value = ratio
            argmax = t
    if value == -math.inf:
        value = math.inf  # nothing served: any interruption is infinitely bad
        argmax = None

    note = None
    if schedule.generator is not None:
        note = f"finite prefix of {len(schedule)} contracts from an infinite {schedule.generator.get('family')} schedule"
    return MeasureReport(
        measure=measure,
        value=value,
        argmax_time=argmax,
        samples=tuple(rows),
        unserved_times=tuple(unserved),
        incomplete=bool(unserved),
        truncation_note=note,
        analytic=analytic,
        windows=len(times) if explicit else len(times) - len(unserved),
        pruned_windows=pruned,
    )


def _exponential_base(schedule: Schedule) -> float | None:
    gen = schedule.generator
    if gen is not None and gen.get("family") == "exponential":
        b = gen.get("base")
        if type(b) not in (int, float) or not 1.0 < b <= sys.float_info.max:
            raise ValueError(f"exponential generator base must be a finite number > 1, got {b!r}")
        return float(b)
    return None


def _acceleration_limit(schedule: Schedule) -> dict | None:
    b = _exponential_base(schedule)
    if b is None:
        return None
    limit = geometric_functional("cyclic-acceleration", n=schedule.n_problems, m=schedule.m_processors)
    return {"kind": "limit", "value": limit(b)}


def acceleration_ratio(schedule: Schedule, window: Iterable[float] | None = None, *,
                       samples: bool = True) -> MeasureReport:
    """sup over interruption times t, max over problems, of t / longest completed.

    ``samples=False`` asks for the value alone: no per-window row is kept,
    and every other field is that of the full report.
    """
    return _evaluate(schedule, window, "acceleration", lambda snap: snap[0], _acceleration_limit(schedule),
                     samples=samples)


def performance_ratio(schedule: Schedule, window: Iterable[float] | None = None, *,
                      samples: bool = True) -> MeasureReport:
    """Acceleration ratio scaled down by ceil(n/m), the offline stacking factor.

    The worst feasible offline schedule uses equal-length contracts; with m < n
    some processor stacks ceil(n/m) of them, so its contracts have length
    t/ceil(n/m).  For m >= n this coincides with the acceleration ratio.
    ``samples=False`` keeps no per-window row, as in ``acceleration_ratio``.
    """
    stack = math.ceil(schedule.n_problems / schedule.m_processors)
    analytic = _acceleration_limit(schedule)
    if analytic is not None:
        analytic["value"] /= stack
    return _evaluate(schedule, window, "performance", lambda snap: stack * snap[0], analytic, samples=samples)


def deficiency(schedule: Schedule, window: Iterable[float] | None = None, solver: str = "exact", *,
               samples: bool = True) -> MeasureReport:
    """sup over interruption times t of t / OPT(snapshot before t).

    ``solver="exact"`` uses the branch-and-bound makespan oracle (guarded at
    24 jobs).  ``solver="lpt"`` substitutes the LPT makespan; since LPT
    over-estimates OPT, each ratio in the series then under-estimates the
    true deficiency, and the report is flagged non-exact.  Its makespan is
    that of ``lpt_makespan``, taken from the same placement loop without
    building a ``MakespanInstance`` (a served snapshot of a ``Schedule``
    holds only positive, finite lengths).  On one processor
    OPT is the snapshot's total, taken with ``math.fsum`` (correctly
    rounded, so independent of summation order) for either solver, and no
    solve runs.

    Exact solves are shared between the windows of one call.  Since
    OPT(c*S) = c*OPT(S), windows whose sorted snapshots are equal up to
    scale (every served window of an exponential schedule) have the same
    optimal partitions.  The memo key is the sorted snapshot divided by its
    largest entry, each ratio rounded to 12 significant digits; its value is
    the partition of the first exact solve of that shape.  A later window
    reuses the partition only when each of its ratios is within a relative
    ``SHAPE_TOLERANCE`` of the solved shape's, and its makespan is then summed
    from the window's own sizes.  Soundness: with every ratio within a
    relative eps, any partition's normalized load moves by at most a factor
    1 +- eps, so a partition optimal for one shape is within
    (1 + eps)/(1 - eps) < 1 + 1e-12 of optimal for the other.  That adds at
    most a relative 1e-12 to the 1e-12 at which ``exact_makespan`` already
    stops against its lower bound, so the report stays exact.
    ``opt_solves`` counts the solves actually run.

    ``samples=False`` asks for the value alone, and no per-window row is
    kept.  With the default window, the exact solver and m >= 2 it then
    solves only the windows that can reach the supremum: a window's ratio is
    at most its ceiling t / LB, with LB = ``makespan.lower_bound`` <= OPT.
    The window with the largest ceiling (earliest on ties) is solved first;
    then, in time order, a window is solved only if its ceiling is at least
    the best ratio so far times 1 - 1e-12, a margin that covers the few ulps
    by which a float LB may exceed a computed load.  A skipped window's
    ratio is therefore strictly below the best one, so ``value`` and
    ``argmax_time`` (the earliest solved window attaining it) are those of
    the full series.  Every other case evaluates every window.
    """
    if solver not in ("exact", "lpt"):
        raise ValueError(f"solver must be 'exact' or 'lpt', got {solver!r}")
    m = schedule.m_processors
    shapes: dict[tuple[float, ...], tuple[tuple[float, ...], tuple[int, ...]]] = {}
    solves = 0

    def denom_of(snap: tuple[float, ...]) -> float:
        nonlocal solves
        if m == 1:
            return math.fsum(snap)
        if solver == "lpt":
            return _lpt_span(snap, m)
        top = snap[-1]
        ratios = tuple(v / top for v in snap)
        key = tuple(float(f"{r:.12g}") for r in ratios)
        solved = shapes.get(key)
        if solved is not None and all(abs(r - q) <= SHAPE_TOLERANCE * q for r, q in zip(ratios, solved[0])):
            return assignment_from_map(solved[1], snap, m, optimal=True).makespan
        solves += 1
        best = exact_makespan(MakespanInstance(sizes=snap, m=m))
        shapes.setdefault(key, (ratios, best.processor_of))
        return best.makespan

    analytic = None
    b = _exponential_base(schedule)
    if b is not None:
        # for m = 1 the bound is the limit b^(n+1)/(b^n - 1) of the series itself
        bound = deficiency_upper_bound(schedule.n_problems, m, b).value
        analytic = {"kind": "limit" if m == 1 else "upper_bound", "value": bound}
    prune = not samples and window is None and m > 1 and solver == "exact"
    report = _evaluate(schedule, window, "deficiency", denom_of, analytic, samples=samples,
                       lower=(lambda snap: lower_bound(snap, m)) if prune else None)
    return replace(report, solver=solver, exact=(solver == "exact"), opt_solves=solves)


def scaling_oracle(values: Sequence[float], m: int, t: float) -> float:
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
        if hi - lo <= ORACLE_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def deficiency_bruteforce_oracle(schedule: Schedule, t: float) -> float:
    """Deficiency at time t via the scaling characterization, as an independent check.

    The best offline schedule scales the snapshot uniformly by the largest
    feasible factor d, so def(X, t) = d; computed by bisection rather than by
    the t/OPT formula.  Guarded to small instances.
    """
    if schedule.n_problems > ORACLE_MAX_PROBLEMS or schedule.m_processors > ORACLE_MAX_PROCESSORS:
        raise ValueError(
            f"oracle guard: needs n <= {ORACLE_MAX_PROBLEMS} and m <= {ORACLE_MAX_PROCESSORS}, "
            f"got n={schedule.n_problems}, m={schedule.m_processors}"
        )
    (longest,) = snapshots_before(schedule, [t])
    snap = tuple(sorted(longest))
    if snap[0] <= 0.0:
        return math.inf
    return scaling_oracle(snap, schedule.m_processors, t)
