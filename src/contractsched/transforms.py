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
and removing it only shortens later interruption times.  The loop holds
each state it reaches as problem and length lists (every processor is 0)
with its finish times and one ratio per window, and reads both
deficiencies of a step from those.

A step at index i sweeps only the windows it can change.  The windows
before i are the held floats, since no contract from i on finishes before
contract i - 1 does.  A removal sweeps every window from i: each later
finish time moves.  A swap keeps every finish time and sweeps only until a
snapshot has both swapped problems' entries above every length either
problem completed before i; from there on each snapshot is the held one
with the two entries exchanged, and ``math.fsum`` gives the same float for
it.  Which contracts a window counts, tied finish times included, is
decided by ``core._sweep`` alone.  ``_rewrite`` states each case in full.

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
from itertools import accumulate, compress, groupby, repeat, takewhile
from typing import Callable, Sequence

from .core import Schedule, _finish_times, _Record, _sweep, simulate


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


class RunOutcome(_Record):
    """What happened to one run of >= 3 consecutive same-problem contracts.

    ``start_index`` and ``length`` are ints; ``action`` is "removed", "certified" or "irreducible".
    """

    __slots__ = _fields = ("start_index", "length", "action")


class NormalizationTrace(_Record):
    """Input and output ``Schedule``, and the tuples of ``TransformStep`` and ``RunOutcome`` between them."""

    __slots__ = _fields = ("input", "output", "steps", "run_outcomes")

    _defaults = {"run_outcomes": ()}

    @property
    def identity(self) -> bool:
        return not self.steps


# ---------------------------------------------------------------------------
# Single-processor deficiency bookkeeping
# ---------------------------------------------------------------------------

def _ratios(problems: Sequence[int], lengths: Sequence[float], n: int, fins: list[float],
            held: list[float | None] | None = None, start: int = 0, longest: list[float] | None = None,
            swap: tuple[int, int, float] | None = None) -> list[float | None]:
    """Deficiency ratio right before each finish time in ``fins``, in contract order; None where a problem is unserved.

    ``fins[i]`` is the finish time of contract i, of problem ``problems[i]``
    and length ``lengths[i]``: on one processor they never decrease, so
    contract order is the sweep's ranking, and every one is a window.
    Windows from ``start`` are swept from the columns, and the ones before
    it are read from ``held``, the ratios of a state the caller knows to
    agree with the columns there (see ``_rewrite``).  The sweep is offered
    the start ``start`` with ``longest``, each problem's longest length over
    the contracts before it, where the caller carries them; ``core._sweep``
    decides whether that start holds.

    ``swap``, (a, b, reach), says that the columns are ``held``'s state
    with problems a and b exchanged from ``start`` on, and that neither
    problem completes a length above ``reach`` before ``start``.  The sweep
    then stops at the first window whose snapshot has a's and b's entries
    both strictly above ``reach``, and every ratio from there on is the
    held one.  Each of those entries is then the longest of the counted
    contracts from ``start`` on that the held state gives the other
    problem, so it is also that problem's held entry, and these maxima only
    grow at later windows.  Each later snapshot is thus the held one with
    two entries exchanged: served exactly when the held one is, and of the
    same ``math.fsum``, which is correctly rounded.  An entry equal to
    ``reach`` may be a length from before ``start``, so it would not do.
    """
    times = fins[start:]
    # the ranking is the contract order, as a list: the sweep's loop indexes a list faster than a range
    snaps = _sweep(problems, lengths, n, fins, times, list(range(len(fins))), start, longest)
    if swap is not None:
        a, b, reach = swap
        snaps = takewhile(lambda snap: snap[a] <= reach or snap[b] <= reach, snaps)
    # a problem with nothing completed has longest length 0.0, and every completed length is positive
    swept = [t / math.fsum(snap) if 0.0 not in snap else None for t, snap in zip(times, snaps)]
    if swap is not None:
        swept += held[start + len(swept) :]
    return held[:start] + swept if start else swept


def _single_processor(schedule: Schedule, what: str) -> None:
    """The one-processor rule of every public route here; ``what`` names the route in its error."""
    if schedule.m_processors != 1:
        raise ValueError(f"{what} requires m = 1")


def _value(ratios: list[float | None]) -> float:
    """Supremum over the served windows (+inf if none is).

    ``filter(None, ...)`` keeps exactly the served ratios, with no Python
    call per window: None is false, and a served ratio is never 0.0, since
    t is the running load over every contract counted before t, so at least
    about the sum of the longest lengths.
    """
    return max(filter(None, ratios), default=math.inf)


def deficiency_value_m1(schedule: Schedule) -> float:
    """Exact single-processor deficiency: sup of t / (sum of completed lengths before t).

    The supremum runs over the finish times of the schedule's contracts at
    which every problem is served (+inf if none is).  To evaluate an
    explicit list of times, use ``metrics.deficiency(window=...)``.
    """
    _single_processor(schedule, "deficiency_value_m1")
    return _value(_ratios(schedule.problems, schedule.lengths, schedule.n_problems, simulate(schedule)))


# ---------------------------------------------------------------------------
# The rewrite loop
# ---------------------------------------------------------------------------

# a state: (problem list, length list, its finish times, its ``_ratios``)
_State = tuple[list[int], list[float], list[float], list[float | None]]
# a step: (kind, index, problems, rule, next state, and for a swap the (clean, longest) the scans resume from)
_Move = tuple[str, int, tuple[int, int] | None, str | None, _State, tuple[int, list[float]] | None]


def _removal(problems: list[int], lengths: list[float], n: int, fins: list[float], ratios: list[float | None],
             idx: int, longest: list[float] | None = None) -> _State:
    """The state without contract ``idx``; ``longest``, where known, is each problem's longest length before it.

    Windows before ``idx`` are kept; every later finish time moves, so every
    later window is swept again.
    """
    problems, lengths = problems[:idx] + problems[idx + 1 :], lengths[:idx] + lengths[idx + 1 :]
    nxt_fins = fins[:idx] + _finish_times(repeat(0), lengths[idx:], [fins[idx - 1] if idx else 0.0])
    return problems, lengths, nxt_fins, _ratios(problems, lengths, n, nxt_fins, ratios, idx, longest)


def _first_dominated(problems: list[int], lengths: list[float], start: int, longest: list[float]) -> int | None:
    """First index from ``start`` of a contract no longer than an earlier one of its problem.

    ``longest`` holds each problem's longest length before ``start`` and is
    advanced in place, to the found contract or the end.
    """
    for idx in range(start, len(lengths)):
        problem, length = problems[idx], lengths[idx]
        if length <= longest[problem]:
            return idx
        longest[problem] = length
    return None


def _rewrite(schedule: Schedule, next_move: Callable[..., _Move | None],
             outcomes: Sequence[RunOutcome] = ()) -> NormalizationTrace:
    """Apply steps until none applies: a dominated-contract removal, else ``next_move``.

    ``next_move(problems, lengths, n, fins, ratios, clean, longest)`` sees
    the current state with its finish times and windows, and where its scan
    may resume (see below), and returns the next move, or None when it has
    none; ``outcomes`` holds the run outcomes it records.  The input is
    simulated once; every later state is held as problem and length lists
    with its finish times and ``_ratios``, and no ``Schedule`` is built
    until the output.  A move at index i sweeps only the windows it can change:

    * windows before i are the held floats: every contract from i on
      finishes no earlier than contract i - 1 (lengths are positive), so it
      counts at no window before i, ties included;
    * a removal (a dominated contract or a pair's first contract) sweeps
      every window from i, since each later finish time moves and shifted
      times can create or break ties between absorbed lengths;
    * a swap keeps every finish time, and ``_swap_move`` sweeps only until
      its snapshots show that each later window's ratio is the held float
      (``_ratios``).

    A step at index i also leaves contracts 0..i-1 alone, so the scans for
    the next step need not read them again.  The loop holds ``clean``, an
    index below which the state has no dominated contract and no violation
    of the least-served rule, with ``longest``, each problem's longest
    length below it; the dominated-contract scan and the swap rule's scan
    start there.  A swap at i moves ``clean`` to i, since its violation was
    the first and no contract was dominated.  Every other step is at or
    above ``clean`` (a removed dominated contract is found from there, and
    the pair rule, which makes no swap, leaves it at 0), so it stays valid.
    Each scan leaves the longest lengths at the index it stops at, so a
    dominated-contract removal and a swap offer their sweep the start i with
    them (``_ratios``), and neither walks the unchanged contracts before i
    unless window i ties with the one before it.

    Both deficiencies of a step are read from the held ratios, over the
    window sets ``TransformStep`` describes.
    """
    n = schedule.n_problems
    fins = simulate(schedule)
    problems, lengths = list(schedule.problems), list(schedule.lengths)
    ratios = _ratios(problems, lengths, n, fins)
    clean, longest = 0, [0.0] * n
    steps: list[TransformStep] = []
    while True:
        seen = longest.copy()
        dom = _first_dominated(problems, lengths, clean, seen)
        if dom is not None:
            move = "remove-dominated", dom, None, None, _removal(problems, lengths, n, fins, ratios, dom, seen), None
        else:
            move = next_move(problems, lengths, n, fins, ratios, clean, longest.copy())
            if move is None:
                break
        kind, idx, pair, rule, (nxt_problems, nxt_lengths, nxt_fins, nxt_ratios), resume = move
        # over the windows the state serves (true exactly where a ratio is served, see ``_value``), except the
        # removed contract's own window; a swap keeps each of them served (see ``_swap_move``)
        before = _value(ratios[:idx] + ratios[idx + 1 :] if kind == "remove-dominated" else ratios)
        after = max(compress(nxt_ratios, ratios), default=math.inf) if kind == "swap-assignment" else _value(nxt_ratios)
        steps.append(TransformStep(kind, idx, fins[idx - 1] if idx else 0.0, pair, rule, before, after))
        problems, lengths, fins, ratios = nxt_problems, nxt_lengths, nxt_fins, nxt_ratios
        if resume is not None:
            clean, longest = resume

    output = Schedule._of(n, 1, (problems, (0,) * len(lengths), lengths)) if steps else schedule
    return NormalizationTrace(input=schedule, output=output, steps=tuple(steps), run_outcomes=tuple(outcomes))


# ---------------------------------------------------------------------------
# The least-served rule
# ---------------------------------------------------------------------------


def _first_violation(problems: Sequence[int], lengths: Sequence[float], start: int,
                     longest: list[float]) -> tuple[int, int] | None:
    """First contract start from ``start`` where the assigned problem is not least-served.

    ``longest`` holds each problem's completed length at ``start``, and the
    contracts before it must hold no violation.  Returns (index, target
    problem), the target being the lowest-index minimizer of the completed
    length at that start, and leaves ``longest`` at that start.  Equal
    lengths are not violations: the rule only demands some minimizer.
    """
    for idx in range(start, len(lengths)):
        problem = problems[idx]
        least = min(longest)
        if longest[problem] > least:
            return idx, longest.index(least)
        if lengths[idx] > longest[problem]:
            longest[problem] = lengths[idx]
    return None


def is_normalized(schedule: Schedule) -> bool:
    """True if every contract start picks a problem with minimal completed length."""
    _single_processor(schedule, "is_normalized")
    return _first_violation(schedule.problems, schedule.lengths, 0, [0.0] * schedule.n_problems) is None


def _swap_suffix(problems: list[int], start: int, a: int, b: int) -> list[int]:
    relabel, suffix = {a: b, b: a}, problems[start:]
    return problems[:start] + list(map(relabel.get, suffix, suffix))


def _swap_move(problems: list[int], lengths: list[float], n: int, fins: list[float], ratios: list[float | None],
               clean: int, longest: list[float]) -> _Move | None:
    """The suffix swap at the first violation, with its windows.

    The swap keeps every finish time.  Windows before the violation, and
    the ones from where ``_ratios`` finds the swap changes no ratio, are the
    held ratios; the ones between are swept.  A window the held state
    serves stays served, since each of the two problems keeps a contract
    finishing before it: the target receives the offending contract, which
    finishes no later than any suffix contract it had, and the offending
    problem keeps its contracts from before the violation.  The next scans
    resume at the violation.
    """
    violation = _first_violation(problems, lengths, clean, longest)
    if violation is None:
        return None
    idx, target = violation
    offending = problems[idx]
    nxt = _swap_suffix(problems, idx, target, offending)
    swap = target, offending, max(longest[target], longest[offending])
    return ("swap-assignment", idx, (target, offending), None,
            (nxt, lengths, fins, _ratios(nxt, lengths, n, fins, ratios, idx, longest, swap)), (idx, longest))


def normalize(schedule: Schedule) -> NormalizationTrace:
    """Rewrite a single-processor schedule to always serve a least-served problem.

    Alternates two deficiency-safe steps until neither applies: removal of a
    dominated contract, and the suffix swap that redirects the earliest
    offending contract to the least-served problem (lowest index on ties).
    Swap steps record the deficiency of both schedules over the windows
    served by the pre-step schedule, so the recorded pair is comparable.
    The result is idempotent: normalizing it again yields an identity trace.
    """
    _single_processor(schedule, "normalize")
    return _rewrite(schedule, _swap_move)


# ---------------------------------------------------------------------------
# Consecutive-pair reduction for two problems
# ---------------------------------------------------------------------------


def _runs(problems: list[int]) -> list[tuple[int, int]]:
    """Maximal (start, length) runs of consecutive contracts for one problem."""
    lengths = [len(list(run)) for _, run in groupby(problems)]
    return list(zip(accumulate(lengths, initial=0), lengths))


def _pair_q_test(ratios: list[float | None], dropped: list[float | None], pair_at: int) -> bool:
    """Whether the first contract of the pair at `pair_at` may be dropped: Q' <= Q, compared exactly.

    ``ratios`` are the schedule's ``_ratios`` and ``dropped`` those of the
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
    shared = ratios[pair_at - 1 : pair_at] if pair_at else []
    q = max(filter(None, shared + ratios[pair_at : pair_at + 2]), default=-math.inf)  # served ones, see ``_value``
    qp = max(filter(None, shared + dropped[pair_at : pair_at + 1]), default=-math.inf)
    return qp <= q


def _certified(problems: list[int], lengths: list[float], pair_at: int) -> bool:
    """Whether ``x_next >= l_other``: the contract following the pair must serve the other problem.

    The run then legitimately ends there.  Reads the contract lengths only and compares them exactly.
    """
    other = 1 - problems[pair_at]
    l_other = max((length for problem, length in zip(problems[:pair_at], lengths) if problem == other), default=0.0)
    return lengths[pair_at + 1] >= l_other


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
    _single_processor(schedule, "reduce_consecutive_pairs")
    if schedule.n_problems != 2:
        raise ValueError("reduce_consecutive_pairs requires exactly two problems")
    if not is_normalized(schedule):
        raise ValueError("schedule must be normalized first (see normalize())")

    outcomes: list[RunOutcome] = []

    def drop_pair(problems: list[int], lengths: list[float], n: int, fins: list[float], ratios: list[float | None],
                  clean: int, longest: list[float]) -> _Move | None:
        runs = [(start, length) for start, length in _runs(problems) if length >= 3]
        for run_start, run_len in runs:
            candidates = []  # (pair index, state without the pair's first contract) of the pairs that failed the q-test
            for p in range(run_start, run_start + run_len - 1):
                dropped = _removal(problems, lengths, n, fins, ratios, p)
                if _pair_q_test(ratios, dropped[3], p):
                    chosen = p, "q-test", dropped
                    break
                candidates.append((p, dropped))
            else:
                limit = _value(ratios)
                chosen = next(((p, "direct", d) for p, d in candidates if _value(d[3]) <= limit), None)
            if chosen is not None:
                pair_at, rule, dropped = chosen
                outcomes.append(RunOutcome(run_start, run_len, "removed"))
                return "remove-consecutive", pair_at, None, rule, dropped, None
        # whatever still stands is blocked: record whether the run at least
        # carries a certification (the pair's successor legitimately belongs
        # to the run's problem only through a least-served tie)
        for run_start, run_len in runs:
            certified = any(_certified(problems, lengths, p) for p in range(run_start, run_start + run_len - 1))
            outcomes.append(RunOutcome(run_start, run_len, "certified" if certified else "irreducible"))
        return None

    return _rewrite(schedule, drop_pair, outcomes)
