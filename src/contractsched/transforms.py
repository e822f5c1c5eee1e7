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

Both run a dominance pre-pass first: a contract no longer than an earlier
contract for the same problem never contributes to any snapshot, and
removing it only shortens later interruption times.

On one processor the deficiency at time t is t divided by the sum of the
per-problem completed lengths, which keeps every step's bookkeeping exact
and independent of the makespan solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Contract, Schedule, simulate, snapshots_before, times_close


@dataclass(frozen=True)
class TransformStep:
    """One rewrite with its exact deficiency before and after.

    The two deficiencies are taken over comparable window sets: swap steps
    evaluate both schedules at the windows served by the pre-step schedule
    (swaps leave finish times unchanged), and dominated-contract removals
    exclude the vanishing window of the removed contract from the "before"
    value, since a finite prefix loses that interruption time entirely.
    Under this accounting deficiency_after <= deficiency_before always holds.
    """

    kind: str  # "remove-dominated" | "swap-assignment" | "remove-consecutive"
    index: int  # contract index in the schedule state the step was applied to
    time: float  # start time of that contract
    problems: tuple[int, int] | None  # (target, offending) for swaps
    rule: str | None  # for removals inside runs: "q-test" | "direct"
    deficiency_before: float
    deficiency_after: float


@dataclass(frozen=True)
class RunOutcome:
    """What happened to one run of >= 3 consecutive same-problem contracts."""

    start_index: int
    length: int
    action: str  # "removed" | "certified" | "irreducible"


@dataclass(frozen=True)
class NormalizationTrace:
    input: Schedule
    output: Schedule
    steps: tuple[TransformStep, ...]
    run_outcomes: tuple[RunOutcome, ...] = ()

    @property
    def identity(self) -> bool:
        return not self.steps


# ---------------------------------------------------------------------------
# Single-processor deficiency bookkeeping
# ---------------------------------------------------------------------------


def _starts(contracts: list[Contract]) -> list[float]:
    out, acc = [], 0.0
    for c in contracts:
        out.append(acc)
        acc += c.length
    return out


def _windows(contracts: list[Contract], n: int, times: list[float] | None = None) -> list[tuple[float, float, bool]]:
    """(t, snapshot sum right before t, all problems served) per ascending t.

    ``times=None`` takes every contract's finish time, in contract order.
    The snapshot sums run over the problems in index order.
    """
    schedule = Schedule(n_problems=n, m_processors=1, contracts=tuple(contracts))
    if times is None:
        times = [fin for _, fin in simulate(schedule)]
    return [(t, sum(snap), min(snap) > 0.0) for t, snap in zip(times, snapshots_before(schedule, times))]


def deficiency_value_m1(schedule_or_contracts, n: int | None = None, times: list[float] | None = None) -> float:
    """Exact single-processor deficiency: sup of t / (sum of completed lengths before t).

    With ``times=None`` the supremum runs over the finish times of the
    schedule's contracts at which every problem is served (+inf if none is).
    An explicit ``times`` list is evaluated as given, which lets two
    schedules with the same critical times be compared over a common window
    set.
    """
    if isinstance(schedule_or_contracts, Schedule):
        if schedule_or_contracts.m_processors != 1:
            raise ValueError("this deficiency route is only valid on a single processor")
        contracts = list(schedule_or_contracts.contracts)
        n = schedule_or_contracts.n_problems
    else:
        contracts = list(schedule_or_contracts)
        if n is None:
            raise ValueError("n is required when passing a raw contract list")

    if times is None:
        return max((t / denom for t, denom, served in _windows(contracts, n) if served), default=math.inf)
    return max(
        (t / denom if denom > 0.0 else math.inf for t, denom, _ in _windows(contracts, n, sorted(times))),
        default=math.inf,
    )


# ---------------------------------------------------------------------------
# Dominated contracts and the least-served rule
# ---------------------------------------------------------------------------


def _first_dominated(contracts: list[Contract], n: int) -> int | None:
    longest = [0.0] * n
    for idx, c in enumerate(contracts):
        if c.length <= longest[c.problem]:
            return idx
        longest[c.problem] = c.length
    return None


def _remove_dominated(contracts: list[Contract], n: int) -> tuple[list[Contract], TransformStep] | None:
    """Drop the first dominated contract, recording the step; None if there is none.

    The "before" value skips the removed contract's own window, which does
    not survive into the shorter prefix.
    """
    dom = _first_dominated(contracts, n)
    if dom is None:
        return None
    before = max(
        (t / denom for idx, (t, denom, served) in enumerate(_windows(contracts, n)) if served and idx != dom),
        default=math.inf,
    )
    nxt = contracts[:dom] + contracts[dom + 1 :]
    step = TransformStep(
        kind="remove-dominated",
        index=dom,
        time=_starts(contracts)[dom],
        problems=None,
        rule=None,
        deficiency_before=before,
        deficiency_after=deficiency_value_m1(nxt, n),
    )
    return nxt, step


def _first_violation(contracts: list[Contract], n: int) -> tuple[int, int] | None:
    """First contract start where the assigned problem is not least-served.

    Returns (index, target problem), the target being the lowest-index
    minimizer of the completed length at that start.  Equal lengths are not
    violations: the rule only demands some minimizer.
    """
    longest = [0.0] * n
    for idx, c in enumerate(contracts):
        low = min(range(n), key=lambda p: (longest[p], p))
        if longest[c.problem] > longest[low] and not times_close(longest[c.problem], longest[low]):
            return idx, low
        if c.length > longest[c.problem]:
            longest[c.problem] = c.length
    return None


def is_normalized(schedule: Schedule) -> bool:
    """True if every contract start picks a problem with minimal completed length."""
    if schedule.m_processors != 1:
        raise ValueError("normalization is defined on a single processor")
    return _first_violation(list(schedule.contracts), schedule.n_problems) is None


def _swap_suffix(contracts: list[Contract], start: int, a: int, b: int) -> list[Contract]:
    out = list(contracts[:start])
    for c in contracts[start:]:
        if c.problem == a:
            out.append(Contract(b, c.processor, c.length))
        elif c.problem == b:
            out.append(Contract(a, c.processor, c.length))
        else:
            out.append(c)
    return out


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
    n = schedule.n_problems
    cur = list(schedule.contracts)
    steps: list[TransformStep] = []

    while True:
        removal = _remove_dominated(cur, n)
        if removal is not None:
            cur, step = removal
            steps.append(step)
            continue
        violation = _first_violation(cur, n)
        if violation is None:
            break
        idx, target = violation
        offending = cur[idx].problem
        served = [(t, t / denom) for t, denom, ok in _windows(cur, n) if ok]
        before = max((value for _, value in served), default=math.inf)
        nxt = _swap_suffix(cur, idx, target, offending)
        after = deficiency_value_m1(nxt, n, times=[t for t, _ in served])
        steps.append(
            TransformStep(
                kind="swap-assignment",
                index=idx,
                time=_starts(cur)[idx],
                problems=(target, offending),
                rule=None,
                deficiency_before=before,
                deficiency_after=after,
            )
        )
        cur = nxt

    if not steps:
        return NormalizationTrace(input=schedule, output=schedule, steps=())
    output = Schedule(n_problems=n, m_processors=1, contracts=tuple(cur))
    return NormalizationTrace(input=schedule, output=output, steps=tuple(steps))


# ---------------------------------------------------------------------------
# Consecutive-pair reduction for two problems
# ---------------------------------------------------------------------------


def _runs(contracts: list[Contract]) -> list[tuple[int, int]]:
    """Maximal (start, length) runs of consecutive contracts for one problem."""
    runs = []
    i = 0
    while i < len(contracts):
        j = i
        while j + 1 < len(contracts) and contracts[j + 1].problem == contracts[i].problem:
            j += 1
        runs.append((i, j - i + 1))
        i = j + 1
    return runs


def _window_values(contracts: list[Contract], times: list[float]) -> list[float | None]:
    """Two-problem deficiency contribution right before each ascending t, or
    None where some problem has no strictly earlier completed contract."""
    return [t / denom if served else None for t, denom, served in _windows(contracts, 2, times)]


def _pair_q_test(contracts: list[Contract], pair_at: int) -> tuple[bool, bool]:
    """(drop allowed, next-contract certification) for the pair at `pair_at`.

    Compares the local suprema Q and Q' with and without the first contract
    of the pair: Q covers the interruptions right before the pair starts and
    right before each pair contract finishes, Q' the pair-start interruption
    and the finish of the surviving contract.  All other interruptions
    contribute to the shorter schedule no more than to the original (earlier
    windows are identical; later ones keep their snapshot, since the
    surviving contract masks the dropped one, at an earlier time).  The
    terms are evaluated as true schedule windows; one that lands before both
    problems are served contributes to neither side, matching how such
    windows are excluded from the deficiency itself.

    The certification ``x_next >= l_other`` means the contract following the
    pair must serve the other problem, so the run legitimately ends there.
    """
    other = 1 - contracts[pair_at].problem
    t = _starts(contracts)[pair_at]
    x_i = contracts[pair_at].length
    x_next = contracts[pair_at + 1].length
    candidate = contracts[:pair_at] + contracts[pair_at + 1 :]

    terms_q = _window_values(contracts, [t, t + x_i, t + x_i + x_next])
    terms_qp = [terms_q[0]] + _window_values(candidate, [t + x_next])  # the pair-start term is shared
    q = max((v for v in terms_q if v is not None), default=-math.inf)
    qp = max((v for v in terms_qp if v is not None), default=-math.inf)
    drop_ok = qp <= q * (1.0 + 1e-12) + 1e-15

    l_other = max((c.length for c in contracts[:pair_at] if c.problem == other), default=0.0)
    certified = x_next >= l_other * (1.0 - 1e-12)
    return drop_ok, certified


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

    n = 2
    cur = list(schedule.contracts)
    steps: list[TransformStep] = []
    outcomes: list[RunOutcome] = []

    while True:
        removal = _remove_dominated(cur, n)
        if removal is not None:
            cur, step = removal
            steps.append(step)
            continue

        removed = False
        for run_start, run_len in _runs(cur):
            if run_len < 3:
                continue
            chosen: tuple[int, str] | None = None
            for pair_at in range(run_start, run_start + run_len - 1):
                drop_ok, _ = _pair_q_test(cur, pair_at)
                if drop_ok:
                    chosen = (pair_at, "q-test")
                    break
            if chosen is None:
                before_all = deficiency_value_m1(cur, n)
                for pair_at in range(run_start, run_start + run_len - 1):
                    candidate = cur[:pair_at] + cur[pair_at + 1 :]
                    if deficiency_value_m1(candidate, n) <= before_all * (1.0 + 1e-12) + 1e-15:
                        chosen = (pair_at, "direct")
                        break
            if chosen is None:
                continue  # this run is blocked; try the next one
            pair_at, rule = chosen
            before = deficiency_value_m1(cur, n)
            nxt = cur[:pair_at] + cur[pair_at + 1 :]
            steps.append(
                TransformStep(
                    kind="remove-consecutive",
                    index=pair_at,
                    time=_starts(cur)[pair_at],
                    problems=None,
                    rule=rule,
                    deficiency_before=before,
                    deficiency_after=deficiency_value_m1(nxt, n),
                )
            )
            outcomes.append(RunOutcome(run_start, run_len, "removed"))
            cur = nxt
            removed = True
            break
        if not removed:
            break

    # whatever still stands is blocked: record whether the run at least carries
    # a certification (the pair's successor legitimately belongs to the run's
    # problem only through a least-served tie)
    for run_start, run_len in _runs(cur):
        if run_len < 3:
            continue
        any_certified = any(
            _pair_q_test(cur, pair_at)[1] for pair_at in range(run_start, run_start + run_len - 1)
        )
        outcomes.append(RunOutcome(run_start, run_len, "certified" if any_certified else "irreducible"))

    if not steps and not outcomes:
        return NormalizationTrace(input=schedule, output=schedule, steps=())
    output = Schedule(n_problems=2, m_processors=1, contracts=tuple(cur))
    return NormalizationTrace(input=schedule, output=output, steps=tuple(steps), run_outcomes=tuple(outcomes))
