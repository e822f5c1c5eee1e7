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

This module holds the measures only; the independent oracles that check
them (scaling bisection, enumeration) live in ``verification``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable

# perfbench/traced_cli.py wraps metrics.simulate, metrics.critical_times and metrics.lpt_makespan by name,
# so all three stay imported.  ``bounds`` is imported only where an exponential schedule's analytic value
# needs it.
from .core import Schedule, _critical_times, _length, _ranked, _Record, _split, _sweep, simulate
from .core import critical_times  # noqa: F401
from .makespan import MakespanInstance, _lpt_span, assignment_from_map, exact_makespan, lower_bound
from .makespan import lpt_makespan  # noqa: F401

# Relative distance, entry by entry, within which two normalized snapshots
# share one optimal partition in ``deficiency`` (see its docstring).
SHAPE_TOLERANCE = 4e-13

# Fewest windows the value-only LPT deficiency gives one process when it splits them (``core._split``).
# Measured on whole calls, so with the child's fork, its walk over the contracts before its range, both
# processes' copy-on-write faults, the marshal round trip and the reap: on a 4/2 exponential prefix (base
# 1.004), in a fresh process, serial against split in two (medians of 9, 2-vCPU Xeon, Python 3.11) took
# 4.2 -> 4.7 ms over 2,000 windows, 10.6 -> 8.5 ms over 5,000, 21.1 -> 15.1 ms over 10,000 and 211 -> 136 ms
# over 100,000.
_PART_MIN = 5_000

class MeasureSample(_Record):
    """One evaluated window: float time, sorted snapshot of n floats, float divisor of t and ratio, bool served."""

    __slots__ = _fields = ("time", "snapshot", "denominator", "ratio", "served")


class MeasureReport(_Record):
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

    __slots__ = _fields = ("measure", "value", "argmax_time", "samples", "unserved_times", "incomplete",
                           "truncation_note", "analytic", "solver", "exact", "opt_solves", "windows",
                           "pruned_windows")

    _defaults = {"analytic": None, "solver": None, "exact": True, "opt_solves": 0, "windows": 0, "pruned_windows": 0}


def _evaluate(schedule: Schedule, window: Iterable[float] | None, measure: str, denom_of, analytic: dict | None, *,
              samples: bool = True, lower: Callable[[list[float]], float] | None = None,
              least: int | None = None) -> MeasureReport:
    """The window loop, and the pass ``lower``, a lower bound on ``denom_of``, prunes as ``deficiency`` describes.

    The finish times are ranked once (``core._ranked``): the default
    windows are read from that ranking, and one ``core._sweep`` over it gives
    each window its snapshot, sorted once into a list, which every
    denominator takes.  Every route without ``lower`` runs one loop: a
    served window gives its ratio, an unserved one is noted (unserved
    windows come first, so an explicit one makes the value +inf at the
    first), and a sample row, the snapshot as a tuple, is built only if
    asked for, for an unserved window only if it was explicit.  ``least``
    says that ``denom_of`` keeps no state between windows, and is the fewest
    windows that pay for a child: a value-only call may then run contiguous
    ranges of the windows side by side (``core._split``), each through the
    loop and the same ranking, which a child inherits rather than sorting
    again; the parts merge into the serial report.  Each range's sweep
    starts at its own first window, where ``core._sweep`` puts it, so a
    child reads no finish time before its range.  The loop streams the
    windows, so a long prefix never holds them all; only the pruned pass
    (value-only, default window) lists them, to rank their ceilings
    t / ``lower``; the one with the largest ceiling sets the first floor,
    then is read again in the pass.
    """
    explicit = window is not None
    fins = simulate(schedule)  # the one simulation: the windows and the sweep read it
    order = _ranked(fins)  # the one sort of the finish times, which every range of the windows shares
    if explicit:
        times = sorted(_length(t, "interruption time") for t in window)
    else:
        times = _critical_times(list(map(fins.__getitem__, order)))
    problems, lengths, n = schedule.problems, schedule.lengths, schedule.n_problems
    pruned = 0

    if lower is None:
        def run(lo: int, hi: int) -> tuple[list[MeasureSample], list[float], float, float | None]:
            part = times[lo:hi]
            rows: list[MeasureSample] = []
            unserved: list[float] = []
            value, argmax = -math.inf, None
            for t, snap in zip(part, map(sorted, _sweep(problems, lengths, n, fins, part, order))):
                if snap[0] > 0.0:
                    denom = denom_of(snap)
                    ratio = t / denom
                    if samples:
                        rows.append(MeasureSample(t, tuple(snap), denom, ratio, True))
                    if ratio > value:
                        value, argmax = ratio, t
                else:
                    unserved.append(t)
                    if samples and explicit:
                        rows.append(MeasureSample(t, tuple(snap), 0.0, math.inf, False))
            return rows, unserved, value, argmax

        # rows do not cross a pipe, so a route that keeps them never splits
        parts = [run(0, len(times))] if least is None or samples else _split(run, len(times), least)
        rows, unserved, value, argmax = parts[0]
        for _, part_unserved, part_value, part_argmax in parts[1:]:
            unserved += part_unserved
            if part_value > value:  # strictly: the earliest part attaining the maximum keeps its window
                value, argmax = part_value, part_argmax
        if explicit and unserved:
            value, argmax = math.inf, unserved[0]
    else:
        windows = list(zip(times, map(sorted, _sweep(problems, lengths, n, fins, times, order))))
        # a served window's ceiling is positive, so 0.0 never ranks an unserved one first
        ceilings = [t / lower(snap) if snap[0] > 0.0 else 0.0 for t, snap in windows]
        top = max(ceilings, default=0.0)
        floor = -math.inf  # the first floor: the ratio of the window with the largest ceiling
        if top > 0.0:
            t, snap = windows[ceilings.index(top)]
            floor = t / denom_of(snap)
        rows, unserved = [], []
        value, argmax = -math.inf, None
        for (t, snap), ceiling in zip(windows, ceilings):
            if snap[0] == 0.0:
                unserved.append(t)
            elif ceiling < max(floor, value) * (1.0 - 1e-12):
                pruned += 1
            else:
                ratio = t / denom_of(snap)
                if ratio > value:
                    value, argmax = ratio, t
    if value == -math.inf:
        value = math.inf  # nothing served: any interruption is infinitely bad
        argmax = None

    note = None
    if schedule.generator is not None:
        note = f"finite prefix of {len(schedule)} contracts from an infinite {schedule.generator['family']} schedule"
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
    if gen is not None and gen["family"] == "exponential":
        return float(gen["base"])
    return None


def _acceleration_limit(schedule: Schedule) -> dict | None:
    b = _exponential_base(schedule)
    if b is None:
        return None
    from .bounds import geometric_functional

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
    stack = -(-schedule.n_problems // schedule.m_processors)  # ceil(n/m) in integers: a float n/m rounds past 2**53
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
    holds only positive, finite lengths) and, since the sorted snapshot is
    ascending, without LPT's sort (``makespan._lpt_span``).  On one processor
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
    This route alone lists its windows from the one sweep, with their
    ceilings.  The window with the largest ceiling (earliest on ties) is
    solved first, and its ratio is the first floor; then, in time order over
    the same list, a window is solved only if its ceiling is at least the
    larger of the floor and the best ratio so far, times 1 - 1e-12, a margin
    that covers the few ulps by which a float LB may exceed a computed load.
    A skipped window's ratio is therefore strictly below the best one, so
    ``value`` and ``argmax_time`` (the earliest solved window attaining it)
    are those of the full series.  By that margin the first window is never
    skipped, and solving it again is a memo hit.  Every other case evaluates
    every window; the value-only LPT route on m >= 2, which shares nothing
    between windows, may split them across forked processes with the same
    report (``_evaluate``).
    """
    if solver not in ("exact", "lpt"):
        raise ValueError(f"solver must be 'exact' or 'lpt', got {solver!r}")
    m = schedule.m_processors
    shapes: dict[tuple[float, ...], tuple[tuple[float, ...], tuple[int, ...]]] = {}
    solves = 0

    def exact(snap: list[float]) -> float:
        nonlocal solves
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

    # picked once per call; each takes the ascending lists the window loop and the pruned pass sort
    denom_of = math.fsum if m == 1 else partial(_lpt_span, m=m) if solver == "lpt" else exact

    analytic = None
    b = _exponential_base(schedule)
    if b is not None:
        from .bounds import deficiency_upper_bound

        # for m = 1 the bound is the limit b^(n+1)/(b^n - 1) of the series itself
        bound = deficiency_upper_bound(schedule.n_problems, m, b).value
        analytic = {"kind": "limit" if m == 1 else "upper_bound", "value": bound}
    prune = not samples and window is None and m > 1 and solver == "exact"
    report = _evaluate(schedule, window, "deficiency", denom_of, analytic, samples=samples,
                       lower=(lambda snap: lower_bound(snap, m)) if prune else None,
                       least=_PART_MIN if m > 1 and solver == "lpt" else None)
    return report._replace(solver=solver, exact=(solver == "exact"), opt_solves=solves)

