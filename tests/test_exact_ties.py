"""Property tests: the sweep and the measures against a reference written here.

The reference takes finish times from float running sums per processor and
decides "completed before t" with float ``<``, so two finish times tie only
when they are the same float.  Snapshot totals are summed exactly in
``Fraction``; on one processor that total, rounded once, is the deficiency's
denominator bit for bit.
"""

import itertools
import math
from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contractsched import (
    Contract,
    MakespanInstance,
    Schedule,
    acceleration_ratio,
    critical_times,
    deficiency,
    deficiency_value_m1,
    lpt_makespan,
    performance_ratio,
    simulate,
    snapshot,
    snapshots_before,
)
from contractsched.core import _ranked, _sweep

# one processor's finish times 1e6, 1e6 + 1 and 1e6 + 1 + 1e-4 lie within a
# relative 1e-9 of each other, yet are three distinct interruption times
NEAR_TIE = Schedule(1, 1, (Contract(0, 0, 1e6), Contract(0, 0, 1.0), Contract(0, 0, 1e-4)))
# the last window's snapshot sums to 0.6 exactly rounded, but to 0.6000000000000001 left to right
ORDER_DEPENDENT = Schedule(3, 1, (Contract(0, 0, 0.1), Contract(1, 0, 0.2), Contract(2, 0, 0.3), Contract(0, 0, 0.7)))
# the 1e20 contract absorbs the 0.5 and the 4.0 after it, so its finish time repeats three times (CI's absorbed.json)
ABSORBED = Schedule(2, 1, (Contract(1, 0, 1e20), Contract(0, 0, 0.5), Contract(0, 0, 4.0), Contract(1, 0, 2e20),
                           Contract(1, 0, 2e20)))

LENGTHS = (
    st.integers(1, 4).map(float),  # finish times tie exactly across processors
    st.builds(lambda i, j: i * (1 + j * 1e-10), st.integers(1, 4), st.integers(-2, 2)),  # near ties
    st.sampled_from((1e6, 1.0, 1e-4, 1e-11, 1e-17)),  # tiny lengths vanish into a running sum
    st.sampled_from((0.1, 0.2, 0.3, 0.7)),  # float sums that depend on the order: 0.1 + 0.2 + 0.3 != 0.6
)


@st.composite
def schedules(draw, processors=st.integers(1, 3)):
    n, m = draw(st.integers(1, 4)), draw(processors)
    lengths = draw(st.sampled_from(LENGTHS + (st.one_of(LENGTHS),)))
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), lengths), max_size=10))
    return Schedule(n, m, tuple(Contract(p, q, length) for p, q, length in rows))


def finish_times(schedule):
    loads = [0.0] * schedule.m_processors
    fins = []
    for c in schedule.contracts:
        loads[c.processor] += c.length
        fins.append(loads[c.processor])
    return fins


def longest_before(schedule, fins, t):
    longest = [0.0] * schedule.n_problems
    for c, fin in zip(schedule.contracts, fins):
        if fin < t and c.length > longest[c.problem]:
            longest[c.problem] = c.length
    return tuple(longest)


def exact_opt(snap, m):
    """OPT of the snapshot by enumeration, with loads summed in Fraction."""
    return min(
        max(sum((Fraction(v) for v, p in zip(snap, assign) if p == q), Fraction(0)) for q in range(m))
        for assign in itertools.product(range(m), repeat=len(snap))
    )


def reference_windows(schedule):
    """(t, snapshot, exact denominator) per distinct finish time; None for an unserved window."""
    fins = finish_times(schedule)
    for t in sorted(set(fins)):
        snap = longest_before(schedule, fins, t)
        yield t, snap, exact_opt(snap, schedule.m_processors) if min(snap) > 0.0 else None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(schedules())
@example(NEAR_TIE)
def test_sweep_matches_float_reference(s):
    fins = finish_times(s)
    assert simulate(s) == fins
    assert critical_times(s) == sorted(set(simulate(s))) == sorted(set(fins))
    # every finish time, twice, and the floats on either side of it
    times = sorted(fins + fins + [math.nextafter(f, 0.0) for f in fins] + [math.nextafter(f, math.inf) for f in fins])
    assert list(snapshots_before(s, times)) == [longest_before(s, fins, t) for t in times]
    for t in fins:
        assert snapshot(s, t) == longest_before(s, fins, math.nextafter(t, math.inf))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(schedules(processors=st.just(1)))
@example(ABSORBED)
@example(NEAR_TIE)
def test_one_processor_ranking_is_contract_order(s):
    # the transforms sweep one-processor contracts in contract order, without ranking them: finish times never
    # decrease there, and the ranking keeps ties in contract order
    fins = simulate(s)
    assert _ranked(fins) == list(range(len(fins)))


@st.composite
def tied_sweeps(draw):
    """A schedule whose finish times tie often, with ascending times at and between its finish times."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # 1e20 absorbs every later 1, 2 and 4 on its processor, and equal small lengths tie across processors
    lengths = st.sampled_from((1.0, 2.0, 4.0, 1e20))
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), lengths), min_size=1, max_size=10))
    s = Schedule(n, m, tuple(Contract(p, q, length) for p, q, length in rows))
    ends = sorted(set(finish_times(s)))
    points = [ends[0] / 2, *ends, *((a + b) / 2 for a, b in zip(ends, ends[1:])), ends[-1] * 2]
    return s, sorted(draw(st.lists(st.sampled_from(points), min_size=1, max_size=6)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tied_sweeps())
@example((ABSORBED, [1e20, 1e20, 3e20]))
def test_sweep_takes_a_callers_start_only_where_it_holds(case):
    # a start holds when every contract ranked before it finishes before the first time; any other start, even
    # with the true longest lengths over the contracts before it, or with wrong ones, gives the sweep's own
    s, times = case
    fins = finish_times(s)
    order = _ranked(fins)
    problems, lengths, n = s.problems, s.lengths, s.n_problems
    expected = list(_sweep(problems, lengths, n, fins, times, order))
    assert expected == [longest_before(s, fins, t) for t in times]
    for start in range(len(order) + 1):
        longest = [0.0] * n
        for i in order[:start]:
            longest[problems[i]] = max(longest[problems[i]], lengths[i])
        assert list(_sweep(problems, lengths, n, fins, times, order, start, longest)) == expected
        if start and not fins[order[start - 1]] < times[0]:
            assert list(_sweep(problems, lengths, n, fins, times, order, start, [8.0] * n)) == expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(schedules())
@example(NEAR_TIE)
@example(ORDER_DEPENDENT)
def test_measures_match_exact_reference(s):
    windows = list(reference_windows(s))
    served = [(t, snap, opt) for t, snap, opt in windows if opt is not None]
    report, acc = deficiency(s), acceleration_ratio(s)
    for r in (report, acc):
        assert r.unserved_times == tuple(t for t, _, opt in windows if opt is None)
        assert [(x.time, x.snapshot) for x in r.samples] == [(t, tuple(sorted(snap))) for t, snap, _ in served]
    assert [x.ratio for x in acc.samples] == [t / min(snap) for t, snap, _ in served]

    ratios = [t / float(opt) for t, _, opt in served]
    value = max(ratios, default=math.inf)
    if s.m_processors == 1:
        # one processor's OPT is the total: no solve, and the same float as the exact sum rounded once
        assert [x.denominator for x in report.samples] == [float(opt) for _, _, opt in served]
        assert [x.ratio for x in report.samples] == ratios
        assert report.value == deficiency_value_m1(s) == value
        assert report.argmax_time == (served[ratios.index(value)][0] if served else None)
        assert report.opt_solves == 0
    else:
        # the solver stops within a relative 1e-12 of its lower bound and a
        # reused partition adds at most 1e-12 more; float loads may round below OPT
        for x, (_, _, opt) in zip(report.samples, served):
            assert float(opt) * (1 - 1e-15) <= x.denominator <= float(opt) * (1 + 1e-12) ** 2
        assert report.value == pytest.approx(value, rel=3e-12)
        if served:
            assert ratios[[t for t, _, _ in served].index(report.argmax_time)] == pytest.approx(value, rel=3e-12)
        # the bound-pruned route reports the same value and window counts
        pruned = deficiency(s, samples=False)
        assert (pruned.value, pruned.argmax_time, pruned.windows, pruned.unserved_times, pruned.incomplete) == (
            report.value, report.argmax_time, report.windows, report.unserved_times, report.incomplete)
        assert pruned.opt_solves <= report.opt_solves

    # every sample row is its replay, over the default window and over an explicit one that mixes unserved and
    # served times, each finish time and the floats on either side of it: acc, perf and LPT to the bit, the exact
    # deficiency within the solver's stop on m >= 2; on one processor either solver's OPT is the total
    m, stack = s.m_processors, -(-s.n_problems // s.m_processors)
    opt = cache(lambda snap: float(exact_opt(snap, m)))
    denominators = {
        acceleration_ratio: lambda snap: snap[0],
        performance_ratio: lambda snap: stack * snap[0],
        partial(deficiency, solver="lpt"): lambda snap: lpt_makespan(MakespanInstance(snap, m)).makespan if m > 1
        else opt(snap),
        deficiency: opt,
    }
    fins = finish_times(s)
    explicit = [f for fin in fins for f in (math.nextafter(fin, math.inf), fin, math.nextafter(fin, 0.0))]
    for window in (None, explicit):
        times = sorted(set(fins)) if window is None else sorted(window)
        replay = [(t, tuple(sorted(longest_before(s, fins, t)))) for t in times]
        replay = [(t, snap, snap[0] > 0.0) for t, snap in replay if window is not None or snap[0] > 0.0]
        for measure, denominator in denominators.items():
            r = measure(s, window=window)
            assert [(x.time, x.snapshot, x.served) for x in r.samples] == replay
            for x in r.samples:
                if not x.served:
                    assert (x.denominator, x.ratio) == (0.0, math.inf)
                    continue
                assert x.ratio == x.time / x.denominator
                if measure is deficiency and m > 1:
                    assert denominator(x.snapshot) * (1 - 1e-15) <= x.denominator
                    assert x.denominator <= denominator(x.snapshot) * (1 + 1e-12) ** 2
                else:
                    assert x.denominator == denominator(x.snapshot)
            if window is not None and r.unserved_times:
                assert (r.value, r.argmax_time) == (math.inf, r.unserved_times[0])


def test_near_tie_is_one_value_on_both_routes():
    assert len(critical_times(NEAR_TIE)) == 3
    assert deficiency(NEAR_TIE).value == deficiency_value_m1(NEAR_TIE) == 1.0000010001
