"""Makespan solvers on identical processors.

The makespan of an assignment is the maximum processor load.  Three solvers
are provided: list-greedy in job-index order (each job goes to a
least-loaded processor, ties to the lowest index), LPT (greedy on jobs in
decreasing size), and an exact branch-and-bound used as the OPT oracle in
the deficiency measure.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Sequence

from .core import _count, _init_field, _length, _Record

EXACT_MAX_JOBS = 24

_OVERFLOW = "a processor load overflows the float range"


class InstanceTooLargeError(ValueError):
    """Raised when an instance exceeds the exact solver's job-count guard."""


class MakespanInstance(_Record):
    """A set of job sizes to be scheduled on m identical processors."""

    __slots__ = _fields = ("sizes", "m")

    def __init__(self, sizes: Iterable[float], m: int) -> None:
        sizes = tuple(sizes)
        _count(m, "m")
        if not sizes:
            raise ValueError("instance needs at least one job")
        # one fused test per size first, since verify builds tens of thousands of instances; a size that
        # fails it sends every size through the length rule, which makes an int a float or names the bad one
        for s in sizes:
            if not (type(s) is float and 0.0 < s < math.inf):  # also false for NaN
                sizes = tuple(_length(s, "job sizes") for s in sizes)
                break
        _init_field(self, "sizes", sizes)
        _init_field(self, "m", m)


class Assignment(_Record):
    """A job-to-processor map and its loads; ``makespan`` is the largest load.

    The loads must be at least one, and a load that is not finite (one that
    overflowed, or a NaN) is refused wherever it stands.
    """

    __slots__ = _fields = ("processor_of", "loads", "optimal")

    def __init__(self, processor_of: tuple[int, ...], loads: tuple[float, ...], optimal: bool) -> None:
        if not loads:
            raise ValueError("assignment needs at least one processor load")
        if not all(map(math.isfinite, loads)):  # one C-level pass: verify builds tens of thousands of these
            raise ValueError(_OVERFLOW)
        _init_field(self, "processor_of", processor_of)
        _init_field(self, "loads", loads)
        _init_field(self, "optimal", optimal)

    @property
    def makespan(self) -> float:
        return max(self.loads)


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


def _lpt_order(sizes: Sequence[float]) -> list[int]:
    """The jobs by decreasing size, ties to the lowest job index (a reversed sort is still stable)."""
    return sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)


def _lpt_span(sizes: Sequence[float], m: int) -> float:
    """``lpt_makespan(MakespanInstance(sizes, m)).makespan`` for ascending sizes, without a sort or either object.

    The sizes must be ascending, positive and finite (the deficiency's
    sorted snapshot of a ``Schedule``); a makespan that overflows is a
    ValueError, as in ``Assignment``.  Jobs are placed from the last index
    down, so in decreasing size as LPT places them; only jobs of equal size
    may come in another order than LPT's lowest-index-first.  Equal sizes
    are adjacent, and swapping two of them changes no size in the placement
    sequence, so ``_place`` sends the same sizes to the same processors.
    ``_loads`` then sums each processor's sizes in job-index order, which is
    ascending size order for both maps, so every processor sums the same
    floats in the same order and the makespan is the same float.
    """
    span = max(_loads(_place(sizes, range(len(sizes) - 1, -1, -1), m), sizes, m))
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
    return Assignment(processor_of=tuple(processor_of), loads=tuple(_loads(processor_of, sizes, m)), optimal=optimal)


def greedy_in_order(instance: MakespanInstance) -> Assignment:
    """Graham's list scheduling: jobs in index order, each to a least-loaded processor.

    Ties are broken by the lowest processor index, which makes the placement
    deterministic (on geometrically increasing sizes, job i lands on
    processor i mod m).
    """
    sizes, m = instance.sizes, instance.m
    return assignment_from_map(_place(sizes, range(len(sizes)), m), sizes, m, optimal=False)


def lpt_makespan(instance: MakespanInstance) -> Assignment:
    """Greedy on jobs in decreasing size order (the LPT heuristic)."""
    sizes, m = instance.sizes, instance.m
    return assignment_from_map(_place(sizes, _lpt_order(sizes), m), sizes, m, optimal=False)


def lower_bound(sizes: Sequence[float], m: int) -> float:
    """max(largest job, total / m) <= OPT; a total that overflows becomes the sum of s / m, which stays finite."""
    total = sum(sizes)
    # an overflowing total would make the bound inf and pass any assignment off as optimal
    return max(max(sizes), total / m if math.isfinite(total) else sum(s / m for s in sizes))


def exact_makespan(instance: MakespanInstance) -> Assignment:
    """Provably optimal makespan by branch and bound.

    The LPT assignment seeds the incumbent, and is returned at once if it is
    within a relative 1e-12 of ``lower_bound``, a stop capped at the largest
    float.  A bound that overflows is a ValueError (OPT is at least the bound),
    and an LPT seed that overflows only starts the search.  Otherwise jobs are assigned
    depth first in decreasing size order, and processors with identical
    current loads are only branched once (processor symmetry).  A placement
    is cut when it would bring its processor's load to the incumbent or
    above, and a branch when its current makespan has reached an incumbent
    improved below it.  The search stops at the first assignment within the
    same 1e-12 of the lower bound; from there every level of the descent
    returns at once.  The makespan is the largest load of the returned map;
    on one processor it is the total, taken with ``math.fsum`` (correctly
    rounded, so independent of the job order).  Guarded at ``EXACT_MAX_JOBS``
    jobs; callers needing larger instances can opt into the flagged LPT heuristic.

    Known error: the cuts compare placement-order sums with a job-index-order
    incumbent, so the result can be one ulp high (1.2000000000000002, not 1.2,
    on 0.2, 0.7, 0.3, 0.1, 0.7, 0.3, 1.1, 0.1 with m = 3).  The fix, summing by
    decreasing size, moves three benchmark references and waits for a re-record.
    """
    sizes, m = instance.sizes, instance.m
    n = len(sizes)
    if n > EXACT_MAX_JOBS:
        raise InstanceTooLargeError(f"{n} jobs exceeds the exact-solver guard of {EXACT_MAX_JOBS}")

    if m == 1:
        try:
            total = math.fsum(sizes)
        except OverflowError:
            total = math.inf
        return Assignment((0,) * n, (total,), optimal=True)

    bound = lower_bound(sizes, m)
    if bound == math.inf:
        raise ValueError(_OVERFLOW)
    stop = min(bound * (1.0 + 1e-12), sys.float_info.max)
    order = _lpt_order(sizes)
    best_assign = _place(sizes, order, m)  # the LPT placement, as ``lpt_makespan`` makes it
    seed_loads = _loads(best_assign, sizes, m)
    best_span = max(seed_loads)
    if best_span <= stop:
        return Assignment(tuple(best_assign), tuple(seed_loads), optimal=True)

    loads = [0.0] * m
    assign = [0] * n

    def descend(pos: int, cur_max: float) -> bool:
        """Search below ``pos``; True once an assignment within the stop is found, which ends the search."""
        nonlocal best_span, best_assign
        if pos == n:
            # strictly better than the incumbent by construction
            best_span = cur_max
            best_assign = assign.copy()
            return best_span <= stop
        if cur_max >= best_span:  # incumbent improved below this branch
            return False
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
            if descend(pos + 1, max(cur_max, new_load)):
                return True
            loads[proc] = load
        return False

    descend(0, 0.0)
    return assignment_from_map(best_assign, sizes, m, optimal=True)
