"""Deficiency-safe schedule normalizations for a single processor.

Two rewrites are provided, each recorded step by step with the exact
deficiency before and after:

* ``normalize``: whenever a contract starts for a problem that is not among
  the least-served ones, the problem assignments of the two offending
  problems are swapped on the whole suffix.  The output always starts a
  contract for a problem minimizing the completed length so far.
* ``reduce_consecutive_pairs`` (two problems only): runs of three or more
  consecutive contracts for one problem are shortened by dropping the first
  contract of a pair whenever a local supremum test shows the drop cannot
  increase the deficiency.

Both are one rewrite loop with a different step rule.  Before each step the
loop removes a dominated contract if there is one: a contract no longer than
an earlier contract for the same problem never contributes to any snapshot,
and removing it only shortens later interruption times.  The loop evaluates
every schedule state it reaches once and reads both deficiencies of a step
from those evaluations.

On one processor the deficiency at time t is t divided by the sum of the
per-problem completed lengths, which keeps every step's bookkeeping exact
and independent of the makespan solver.  Windows are read from
``core``'s sweep with ``math.fsum`` of the snapshot as the denominator.
``fsum`` is correctly rounded, so its sum does not depend on the order of
the lengths, and every value here is the float ``metrics.deficiency``
reports from its sorted snapshots.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter
from typing import Callable, Sequence

from .core import Contract, Schedule, _init_field, _Record, _snapshots_before, contract_of, simulate


class TransformStep(_Record):
    """One rewrite with its exact deficiency before and after.

    The two deficiencies are taken over comparable window sets: swap steps
    evaluate both schedules at the windows served by the pre-step schedule
    (swaps leave finish times unchanged), and dominated-contract removals
    exclude the vanishing window of the removed contract from the "before"
    value, since a finite prefix loses that interruption time entirely.
    Under this accounting deficiency_after <= deficiency_before always holds.

    ``kind`` is "remove-dominated", "swap-assignment" or "remove-consecutive".
    ``index`` is the contract's index in the schedule state the step was
    applied to, and ``time`` that contract's start time.  ``problems`` is
    (target, offending) for swaps, and ``rule`` is "q-test" or "direct" for
    removals inside runs.
    """

    __slots__ = _fields = ("kind", "index", "time", "problems", "rule", "deficiency_before", "deficiency_after")

    def __init__(self, kind: str, index: int, time: float, problems: tuple[int, int] | None, rule: str | None,
                 deficiency_before: float, deficiency_after: float) -> None:
        _init_field(self, "kind", kind)
        _init_field(self, "index", index)
        _init_field(self, "time", time)
        _init_field(self, "problems", problems)
        _init_field(self, "rule", rule)
        _init_field(self, "deficiency_before", deficiency_before)
        _init_field(self, "deficiency_after", deficiency_after)


class RunOutcome(_Record):
    """What happened to one run of >= 3 consecutive same-problem contracts.

    ``action`` is "removed", "certified" or "irreducible".
    """

    __slots__ = _fields = ("start_index", "length", "action")

    def __init__(self, start_index: int, length: int, action: str) -> None:
        _init_field(self, "start_index", start_index)
        _init_field(self, "length", length)
        _init_field(self, "action", action)


class NormalizationTrace(_Record):
    __slots__ = _fields = ("input", "output", "steps", "run_outcomes")

    def __init__(self, input: Schedule, output: Schedule, steps: tuple[TransformStep, ...],
                 run_outcomes: tuple[RunOutcome, ...] = ()) -> None:
        _init_field(self, "input", input)
        _init_field(self, "output", output)
        _init_field(self, "steps", steps)
        _init_field(self, "run_outcomes", run_outcomes)

    @property
    def identity(self) -> bool:
        return not self.steps


# ---------------------------------------------------------------------------
# Single-processor deficiency bookkeeping
# ---------------------------------------------------------------------------


def _ratios(contracts: list[Contract], n: int) -> list[tuple[float, float | None]]:
    """(t, deficiency ratio right before t) per contract finish time t, in contract order.

    The ratio is None where a problem is unserved.  Entry i is the window at
    the finish of contract i, so entry i - 1 is the one at its start.
    """
    schedule = Schedule(n_problems=n, m_processors=1, contracts=contracts)
    fins = simulate(schedule)  # on one processor, ascending: every finish time is a window
    # a problem with nothing completed has longest length 0.0, and every completed length is positive
    return [(t, t / math.fsum(longest) if 0.0 not in longest else None)
            for t, longest in zip(fins, _snapshots_before(schedule, fins, fins))]


def _value(ratios: list[tuple[float, float | None]]) -> float:
    """Supremum over the served windows (+inf if none is)."""
    return max((ratio for _, ratio in ratios if ratio is not None), default=math.inf)


def deficiency_value_m1(schedule: Schedule) -> float:
    """Exact single-processor deficiency: sup of t / (sum of completed lengths before t).

    The supremum runs over the finish times of the schedule's contracts at
    which every problem is served (+inf if none is).  To evaluate an
    explicit list of times, use ``metrics.deficiency(window=...)``.
    """
    if schedule.m_processors != 1:
        raise ValueError("this deficiency route is only valid on a single processor")
    return _value(_ratios(list(schedule.contracts), schedule.n_problems))


# ---------------------------------------------------------------------------
# The rewrite loop
# ---------------------------------------------------------------------------

# one step: (kind, index, problems, rule, next contract list, its ``_ratios`` if the step rule already has them)
_Move = tuple[str, int, tuple[int, int] | None, str | None, list[Contract], list | None]


def _first_dominated(contracts: list[Contract], n: int) -> int | None:
    longest = [0.0] * n
    for idx, c in enumerate(contracts):
        if c.length <= longest[c.problem]:
            return idx
        longest[c.problem] = c.length
    return None


def _rewrite(schedule: Schedule, next_move: Callable[..., _Move | None],
             outcomes: Sequence[RunOutcome] = ()) -> NormalizationTrace:
    """Apply steps until none applies: a dominated-contract removal, else ``next_move``.

    ``next_move(contracts, n, ratios)`` sees the current state with its
    windows and returns the next move, or None when it has none; ``outcomes``
    holds the run outcomes it records.  The loop holds each state's
    ``_ratios``, evaluates a new state once (not at all when the move carries
    its windows) and reads both deficiencies of a step from those lists, over
    the window sets ``TransformStep`` describes.
    """
    n = schedule.n_problems
    cur = list(schedule.contracts)
    ratios = _ratios(cur, n)
    steps: list[TransformStep] = []
    while True:
        dom = _first_dominated(cur, n)
        if dom is not None:
            move = ("remove-dominated", dom, None, None, cur[:dom] + cur[dom + 1 :], None)
        else:
            move = next_move(cur, n, ratios)
            if move is None:
                break
        kind, idx, problems, rule, nxt, nxt_ratios = move
        if nxt_ratios is None:
            nxt_ratios = _ratios(nxt, n)
        served = [i for i, (_, ratio) in enumerate(ratios)
                  if ratio is not None and not (kind == "remove-dominated" and i == idx)]
        before = max((ratios[i][1] for i in served), default=math.inf)
        if kind == "swap-assignment":  # same finish times: windows match index by index
            after = max((math.inf if nxt_ratios[i][1] is None else nxt_ratios[i][1] for i in served),
                        default=math.inf)
        else:
            after = _value(nxt_ratios)
        start = ratios[idx - 1][0] if idx else 0.0
        steps.append(TransformStep(kind, idx, start, problems, rule, before, after))
        cur, ratios = nxt, nxt_ratios

    output = Schedule(n_problems=n, m_processors=1, contracts=tuple(cur)) if steps else schedule
    return NormalizationTrace(input=schedule, output=output, steps=tuple(steps), run_outcomes=tuple(outcomes))


# ---------------------------------------------------------------------------
# The least-served rule
# ---------------------------------------------------------------------------


def _first_violation(contracts: list[Contract], n: int) -> tuple[int, int] | None:
    """First contract start where the assigned problem is not least-served.

    Returns (index, target problem), the target being the lowest-index
    minimizer of the completed length at that start.  Equal lengths are not
    violations: the rule only demands some minimizer.
    """
    longest = [0.0] * n
    for idx, c in enumerate(contracts):
        least = min(longest)
        if longest[c.problem] > least:
            return idx, longest.index(least)
        if c.length > longest[c.problem]:
            longest[c.problem] = c.length
    return None


def is_normalized(schedule: Schedule) -> bool:
    """True if every contract start picks a problem with minimal completed length."""
    if schedule.m_processors != 1:
        raise ValueError("normalization is defined on a single processor")
    return _first_violation(list(schedule.contracts), schedule.n_problems) is None


def _swap_suffix(contracts: list[Contract], start: int, a: int, b: int) -> list[Contract]:
    relabel = {a: b, b: a}
    return contracts[:start] + [contract_of((relabel.get(p, p), proc, length))
                                for p, proc, length in contracts[start:]]


def _suffix_swap_move(contracts: list[Contract], n: int, ratios) -> _Move | None:
    violation = _first_violation(contracts, n)
    if violation is None:
        return None
    idx, target = violation
    offending = contracts[idx].problem
    return "swap-assignment", idx, (target, offending), None, _swap_suffix(contracts, idx, target, offending), None


def normalize(schedule: Schedule) -> NormalizationTrace:
    """Rewrite a single-processor schedule to always serve a least-served problem.

    Alternates two deficiency-safe steps until neither applies: removal of a
    dominated contract, and the suffix swap that redirects the earliest
    offending contract to the least-served problem (lowest index on ties).
    Swap steps record the deficiency of both schedules over the windows
    served by the pre-step schedule, so the recorded pair is comparable.
    The result is idempotent: normalizing it again yields an identity trace.
    """
    if schedule.m_processors != 1:
        raise ValueError("normalize requires m = 1")
    return _rewrite(schedule, _suffix_swap_move)


# ---------------------------------------------------------------------------
# Consecutive-pair reduction for two problems
# ---------------------------------------------------------------------------


def _runs(contracts: list[Contract]) -> list[tuple[int, int]]:
    """Maximal (start, length) runs of consecutive contracts for one problem."""
    runs = []
    start = 0
    for _, run in groupby(contracts, itemgetter(0)):  # field 0 is the problem
        length = len(list(run))
        runs.append((start, length))
        start += length
    return runs


def _pair_q_test(ratios: list[tuple[float, float | None]], dropped: list[tuple[float, float | None]],
                 pair_at: int) -> bool:
    """Whether the first contract of the pair at `pair_at` may be dropped: Q' <= Q, compared exactly.

    ``ratios`` are the schedule's windows and ``dropped`` those of the
    schedule without that contract.  Compares the local suprema Q and Q'
    with and without it: Q covers the interruptions right before the pair
    starts and right before each pair contract finishes, Q' the pair-start
    interruption and the finish of the surviving contract.  All other
    interruptions contribute to the shorter schedule no more than to the
    original (earlier windows are identical; later ones keep their snapshot,
    since the surviving contract masks the dropped one, at an earlier time).
    A window that lands before both problems are served contributes to
    neither side, matching how such windows are excluded from the deficiency
    itself; at index 0 the pair-start window is time 0, where nothing is.
    """
    shared = [ratios[pair_at - 1]] if pair_at else []
    q = max((v for _, v in shared + ratios[pair_at : pair_at + 2] if v is not None), default=-math.inf)
    qp = max((v for _, v in shared + dropped[pair_at : pair_at + 1] if v is not None), default=-math.inf)
    return qp <= q


def _certified(contracts: list[Contract], pair_at: int) -> bool:
    """Whether ``x_next >= l_other``: the contract following the pair must serve the other problem.

    The run then legitimately ends there.  Reads the contract lengths only and compares them exactly.
    """
    other = 1 - contracts[pair_at].problem
    l_other = max((c.length for c in contracts[:pair_at] if c.problem == other), default=0.0)
    return contracts[pair_at + 1].length >= l_other


def reduce_consecutive_pairs(schedule: Schedule) -> NormalizationTrace:
    """Shorten runs of >= 3 same-problem contracts in a normalized two-problem schedule.

    Each run is attacked pair by pair with the local supremum test; the first
    contract of a passing pair is dropped and the scan restarts.  If no pair
    passes, a direct comparison of the exact deficiencies is tried as a
    fallback (the local test is sufficient but not necessary).  A run none of
    whose pairs may be dropped is left in place and reported in the trace:
    shortening it would provably increase the deficiency, which only happens
    through ties in the least-served rule.
    """
    if schedule.m_processors != 1:
        raise ValueError("reduce_consecutive_pairs requires m = 1")
    if schedule.n_problems != 2:
        raise ValueError("reduce_consecutive_pairs requires exactly two problems")
    if not is_normalized(schedule):
        raise ValueError("schedule must be normalized first (see normalize())")

    outcomes: list[RunOutcome] = []

    def drop_pair(cur: list[Contract], n: int, ratios) -> _Move | None:
        runs = [(start, length) for start, length in _runs(cur) if length >= 3]
        for run_start, run_len in runs:
            candidates = []  # (pair index, contracts, windows) of the pairs that failed the q-test
            for p in range(run_start, run_start + run_len - 1):
                dropped = cur[:p] + cur[p + 1 :]
                dropped_ratios = _ratios(dropped, n)
                if _pair_q_test(ratios, dropped_ratios, p):
                    chosen = p, "q-test", dropped, dropped_ratios
                    break
                candidates.append((p, dropped, dropped_ratios))
            else:
                limit = _value(ratios)
                chosen = next(((p, "direct", d, r) for p, d, r in candidates if _value(r) <= limit), None)
            if chosen is not None:
                pair_at, rule, nxt, nxt_ratios = chosen
                outcomes.append(RunOutcome(run_start, run_len, "removed"))
                return "remove-consecutive", pair_at, None, rule, nxt, nxt_ratios
        # whatever still stands is blocked: record whether the run at least
        # carries a certification (the pair's successor legitimately belongs
        # to the run's problem only through a least-served tie)
        for run_start, run_len in runs:
            certified = any(_certified(cur, p) for p in range(run_start, run_start + run_len - 1))
            outcomes.append(RunOutcome(run_start, run_len, "certified" if certified else "irreducible"))
        return None

    return _rewrite(schedule, drop_pair, outcomes)
