"""Makespan solvers on identical processors.

The makespan of an assignment is the maximum processor load.  Three solvers
are provided: list-greedy in a caller-supplied order (each job goes to a
least-loaded processor, ties to the lowest index), LPT (greedy on jobs in
decreasing size), and an exact branch-and-bound used as the OPT oracle in
the deficiency measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

EXACT_MAX_JOBS = 24

_OVERFLOW = "a processor load overflows the float range"


class InstanceTooLargeError(ValueError):
    """Raised when an instance exceeds the exact solver's job-count guard."""


@dataclass(frozen=True)
class MakespanInstance:
    """A set of job sizes to be scheduled on m identical processors."""

    sizes: tuple[float, ...]
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(float(s) for s in self.sizes))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not self.sizes:
            raise ValueError("instance needs at least one job")
        for s in self.sizes:
            if not (s > 0.0 and math.isfinite(s)):
                raise ValueError(f"job sizes must be positive and finite, got {s}")


@dataclass(frozen=True)
class Assignment:
    """A job-to-processor map with its loads and makespan; a makespan that overflows is a ValueError."""

    processor_of: tuple[int, ...]
    loads: tuple[float, ...]
    makespan: float
    optimal: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.makespan):
            raise ValueError(_OVERFLOW)


def _place(sizes: Sequence[float], order: Iterable[int], m: int) -> list[int]:
    """Graham's list scheduling: the processor of each job, placed in ``order`` on a least-loaded processor.

    Ties go to the lowest processor index (only a strictly smaller load
    displaces the first minimum).  The loads kept here are placement-order
    sums; callers take the makespan from ``_loads``.
    """
    loads = [0.0] * m
    processor_of = [0] * len(sizes)
    for job in order:
        proc, low = 0, loads[0]
        for p in range(1, m):
            if loads[p] < low:
                proc, low = p, loads[p]
        processor_of[job] = proc
        loads[proc] = low + sizes[job]
    return processor_of


def _loads(processor_of: Sequence[int], sizes: Sequence[float], m: int) -> list[float]:
    """Processor loads summed in job-index order, so every solver's makespan is the same float for one map."""
    loads = [0.0] * m
    for job, proc in enumerate(processor_of):
        loads[proc] += sizes[job]
    return loads


def _lpt(sizes: Sequence[float], m: int) -> list[int]:
    """The LPT placement: ``_place`` on the jobs by decreasing size, ties to the lowest job index."""
    return _place(sizes, sorted(range(len(sizes)), key=lambda j: (-sizes[j], j)), m)


def _lpt_span(sizes: Sequence[float], m: int) -> float:
    """``lpt_makespan(MakespanInstance(sizes, m)).makespan`` without building either object.

    The sizes must be positive and finite, as ``MakespanInstance`` checks;
    a makespan that overflows is a ValueError, as in ``Assignment``.
    """
    span = max(_loads(_lpt(sizes, m), sizes, m))
    if not math.isfinite(span):
        raise ValueError(_OVERFLOW)
    return span


def assignment_from_map(processor_of: Sequence[int], sizes: Sequence[float], m: int, optimal: bool) -> Assignment:
    """The assignment sending job j to processor ``processor_of[j]``.

    Loads are summed in job-index order (``_loads``), so every solver's
    makespan is the same float for the same map and sizes
    (``exact_makespan`` on one processor returns the correctly rounded
    total instead).
    """
    loads = _loads(processor_of, sizes, m)
    return Assignment(
        processor_of=tuple(processor_of),
        loads=tuple(loads),
        makespan=max(loads),
        optimal=optimal,
    )


def greedy_in_order(instance: MakespanInstance, order: Sequence[int] | None = None) -> Assignment:
    """Graham's list scheduling: jobs in `order`, each to a least-loaded processor.

    Ties are broken by the lowest processor index, which makes the placement
    deterministic (on geometrically increasing sizes, the i-th job of the
    order lands on processor i mod m).
    """
    n = len(instance.sizes)
    order = range(n) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the job indices")
    return assignment_from_map(_place(instance.sizes, order, instance.m), instance.sizes, instance.m, optimal=False)


def lpt_makespan(instance: MakespanInstance) -> Assignment:
    """Greedy on jobs in decreasing size order (the LPT heuristic)."""
    return assignment_from_map(_lpt(instance.sizes, instance.m), instance.sizes, instance.m, optimal=False)


def lower_bound(sizes: Sequence[float], m: int) -> float:
    """max(largest job, total / m) <= OPT; a total that overflows becomes the sum of s / m, which stays finite."""
    total = sum(sizes)
    # an overflowing total would make the bound inf and pass any assignment off as optimal
    return max(max(sizes), total / m if math.isfinite(total) else sum(s / m for s in sizes))


def exact_makespan(instance: MakespanInstance) -> Assignment:
    """Provably optimal makespan by branch and bound.

    The LPT assignment seeds the incumbent, and is returned at once if it is
    within a relative 1e-12 of ``lower_bound``.  Otherwise jobs are assigned
    depth first in decreasing size order, and processors with identical
    current loads are only branched once (processor symmetry).  A placement
    is cut when it would bring its processor's load to the incumbent or
    above, and a branch when its current makespan has reached an incumbent
    improved below it.  The search stops at the first assignment within the
    same 1e-12 of the lower bound.  On one processor the optimum is the
    total, taken with ``math.fsum`` (correctly rounded, so independent of
    the job order).  Guarded at ``EXACT_MAX_JOBS`` jobs; callers needing
    larger instances can opt into the flagged LPT heuristic.
    """
    sizes = instance.sizes
    m = instance.m
    n = len(sizes)
    if n > EXACT_MAX_JOBS:
        raise InstanceTooLargeError(f"{n} jobs exceeds the exact-solver guard of {EXACT_MAX_JOBS}")

    if m == 1:
        try:
            total = math.fsum(sizes)
        except OverflowError:
            total = math.inf
        return Assignment((0,) * n, (total,), total, optimal=True)

    lower = lower_bound(sizes, m)
    seed = lpt_makespan(instance)
    if seed.makespan <= lower * (1.0 + 1e-12):
        return Assignment(seed.processor_of, seed.loads, seed.makespan, optimal=True)

    order = sorted(range(n), key=lambda j: (-sizes[j], j))
    best_span = seed.makespan
    best_assign = list(seed.processor_of)
    loads = [0.0] * m
    assign = [0] * n
    done = False

    def descend(pos: int, cur_max: float) -> None:
        nonlocal best_span, best_assign, done
        if done:
            return
        if pos == n:
            # strictly better than the incumbent by construction
            best_span = cur_max
            best_assign = assign.copy()
            if best_span <= lower * (1.0 + 1e-12):
                done = True
            return
        if cur_max >= best_span:  # incumbent improved below this branch
            return
        job = order[pos]
        size = sizes[job]
        tried: set[float] = set()
        for proc in range(m):
            load = loads[proc]
            if load in tried:
                continue
            tried.add(load)
            new_load = load + size
            if new_load >= best_span:
                continue
            loads[proc] = new_load
            assign[job] = proc
            descend(pos + 1, max(cur_max, new_load))
            loads[proc] = load
            if done:
                return

    descend(0, 0.0)
    return assignment_from_map(best_assign, sizes, m, optimal=True)
