import marshal
import math
import os
import random
import signal
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contractsched import (
    Contract,
    ExponentialSpec,
    InstanceTooLargeError,
    MakespanInstance,
    Schedule,
    acceleration_ratio,
    critical_times,
    deficiency,
    deficiency_bruteforce_oracle,
    deficiency_optimal_base,
    deficiency_upper_bound,
    exact_makespan,
    exponential_schedule,
    performance_ratio,
    scaling_oracle,
)
from contractsched import _parts, core, metrics, transforms
from contractsched.makespan import lower_bound
from contractsched.transforms import deficiency_value_m1

from forks import assert_no_child_left, record_forks


def sched(n, m, rows):
    return Schedule(n, m, tuple(Contract(p, q, length) for p, q, length in rows))


def random_sched(rng, n, m, k, serve_all_first=True):
    problems = list(range(n)) if serve_all_first else []
    rng.shuffle(problems)
    while len(problems) < k:
        problems.append(rng.randrange(n))
    return Schedule(
        n, m, tuple(Contract(p, rng.randrange(m), rng.uniform(0.1, 10.0)) for p in problems[:k])
    )


# --- hand-checked fixed cases --------------------------------------------------

HAND = [(0, 0, 1.0), (1, 0, 2.0), (0, 0, 4.0), (1, 0, 8.0)]


def test_hand_schedule_measures():
    s = sched(2, 1, HAND)
    assert acceleration_ratio(s).value == 7.5  # at 15^-: 15 / 2
    assert performance_ratio(s).value == 3.75  # acceleration / ceil(2/1)
    assert deficiency(s).value == 2.5  # at 15^-: 15 / (4 + 2)


def test_two_processor_series():
    # exponential b=2, n=3, m=2 prefix of 8; series hand-verified via
    # per-processor prefix sums and enumeration of OPT
    s = sched(3, 2, [(i % 3, i % 2, 2.0**i) for i in range(8)])
    report = deficiency(s)
    assert [round(x.time, 9) for x in report.samples] == [10.0, 21.0, 42.0, 85.0, 170.0]
    assert [x.ratio for x in report.samples] == [2.5, 2.625, 2.625, 2.65625, 2.65625]
    assert report.value == 2.65625
    assert report.argmax_time == 85.0
    assert report.unserved_times == (1.0, 2.0, 5.0)
    assert report.incomplete
    assert acceleration_ratio(s).value == 10.625
    assert performance_ratio(s).value == 5.3125


def test_first_window_starts_when_all_served():
    s = sched(3, 2, [(i % 3, i % 2, 2.0**i) for i in range(8)])
    report = deficiency(s)
    assert min(x.time for x in report.samples) == 10.0
    assert max(report.unserved_times) < 10.0


# --- doubling schedule ----------------------------------------------------------


def test_doubling_schedule_reaches_four():
    s = exponential_schedule(ExponentialSpec(n=1, m=1, base=2.0, k_max=40))
    assert acceleration_ratio(s).value == pytest.approx(4.0, abs=1e-3)
    assert deficiency(s).value == pytest.approx(4.0, abs=1e-3)


def test_single_problem_measures_coincide():
    rng = random.Random(5)
    for _ in range(20):
        s = random_sched(rng, 1, 1, rng.randint(2, 8))
        a = acceleration_ratio(s).value
        assert performance_ratio(s).value == a
        assert deficiency(s).value == pytest.approx(a, rel=1e-12)


# --- acceleration ----------------------------------------------------------------


def test_single_contract_window():
    s = sched(1, 1, [(0, 0, 5.0)])
    report = acceleration_ratio(s, window=[5.5])
    assert report.value == pytest.approx(5.5 / 5.0, rel=1e-12)


def test_acceleration_optimal_base_sup():
    s = exponential_schedule(ExponentialSpec(n=2, m=1, base=1.5, k_max=40))
    assert abs(acceleration_ratio(s).value - 6.75) <= 1e-6
    assert acceleration_ratio(s).analytic == {"kind": "limit", "value": pytest.approx(6.75, rel=1e-12)}


def test_performance_is_acceleration_over_stack():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        s = random_sched(rng, n, m, rng.randint(n + 1, 10))
        acc = acceleration_ratio(s).value
        perf = performance_ratio(s).value
        if math.isinf(acc):
            assert math.isinf(perf)
        else:
            assert perf == pytest.approx(acc / math.ceil(n / m), rel=1e-12)


def test_performance_equals_acceleration_when_m_ge_n():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = rng.randint(n, 4)
        s = random_sched(rng, n, m, rng.randint(n + 1, 9))
        assert performance_ratio(s).value == acceleration_ratio(s).value


def test_performance_halved_for_two_problems():
    s = exponential_schedule(ExponentialSpec(n=2, m=1, base=1.5, k_max=40))
    assert abs(performance_ratio(s).value - 3.375) <= 1e-6


# --- deficiency -------------------------------------------------------------------


def test_best_exponential_two_problems():
    s = exponential_schedule(ExponentialSpec(n=2, m=1, base=math.sqrt(3.0), k_max=40))
    target = 3.0**1.5 / 2.0  # 2.598076...
    assert abs(deficiency(s).value - target) <= 1e-6
    assert deficiency(s).analytic == {"kind": "limit", "value": pytest.approx(target, rel=1e-12)}


def test_deficiency_m1_equals_sum_formula():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 4)
        s = random_sched(rng, n, 1, rng.randint(n + 1, 10))
        assert deficiency(s).value == pytest.approx(deficiency_value_m1(s), rel=1e-12)


def test_deficiency_analytic_upper_bound_for_multiprocessor():
    s = exponential_schedule(ExponentialSpec(n=3, m=2, base=1.4))
    report = deficiency(s)
    assert report.analytic["kind"] == "upper_bound"
    assert report.analytic["value"] == pytest.approx(deficiency_upper_bound(3, 2, 1.4).value, rel=1e-12)
    assert report.value <= report.analytic["value"] + 1e-6


def test_truncation_note_for_generated_schedules():
    s = exponential_schedule(ExponentialSpec(n=2, m=1, base=1.5, k_max=10))
    assert "prefix" in deficiency(s).truncation_note
    assert deficiency(sched(1, 1, [(0, 0, 1.0)])).truncation_note is None


def test_lpt_solver_flagged_and_conservative():
    rng = random.Random(10)
    for _ in range(15):
        n = rng.randint(2, 5)
        m = rng.randint(2, 3)
        s = random_sched(rng, n, m, rng.randint(n + 1, 12))
        exact_report = deficiency(s, solver="exact")
        lpt_report = deficiency(s, solver="lpt")
        assert not lpt_report.exact and lpt_report.solver == "lpt"
        assert exact_report.exact and exact_report.solver == "exact"
        if not math.isinf(exact_report.value):
            assert lpt_report.value <= exact_report.value + 1e-12


def test_deficiency_solver_validated():
    with pytest.raises(ValueError):
        deficiency(sched(1, 1, [(0, 0, 1.0)]), solver="magic")


def test_instance_too_large_propagates():
    rows = [(p, p % 2, float(p + 1)) for p in range(25)] + [(0, 0, 26.0)]
    s = sched(25, 2, rows)
    with pytest.raises(InstanceTooLargeError):
        deficiency(s)


def test_explicit_unserved_window_is_infinite():
    s = sched(2, 1, HAND)
    report = deficiency(s, window=[1.5])  # problem 1 unserved at 1.5
    assert math.isinf(report.value)
    assert not report.samples[0].served
    # problem 1 is unserved until 3.0; the earliest window attaining the value is the argmax
    report = deficiency(s, window=[1.5, 2.5, 3.5])
    assert math.isinf(report.value) and report.argmax_time == 1.5
    assert report.unserved_times == (1.5, 2.5) and report.windows == 3


@pytest.mark.parametrize("measure", [deficiency, acceleration_ratio, performance_ratio])
@pytest.mark.parametrize("samples", [True, False])
@pytest.mark.parametrize("window", [[7.0, math.nan, 3.0], [math.nan], [3.0, math.nan]])
def test_explicit_window_rejects_a_nan_time(measure, samples, window):
    # the NaN passed the sweep's ascending check: deficiency read 2.333 and the acceleration ratio 7.0
    # on [7.0, nan, 3.0], though problem 1 is unserved at 3.0 and the value is +inf
    s = sched(2, 1, [(0, 0, 1.0), (1, 0, 2.0), (0, 0, 4.0), (1, 0, 8.0)])
    with pytest.raises(ValueError, match="^interruption time must be positive and finite, got nan$"):
        measure(s, window=window, samples=samples)


def test_empty_prefix_value_is_infinite():
    s = sched(2, 1, [(0, 0, 1.0)])  # problem 1 never served
    assert math.isinf(deficiency(s).value)
    assert deficiency(s).argmax_time is None


def test_deficiency_at_least_one_on_served_windows():
    # the schedule itself packs its completed contracts by time t, so the
    # offline optimum can always scale them up by at least 1
    rng = random.Random(16)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(1, 3)
        s = random_sched(rng, n, m, rng.randint(n + 1, 12))
        for sample in deficiency(s).samples:
            assert sample.ratio >= 1.0 - 1e-12


def test_interior_windows_never_beat_next_critical():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 3)
        s = random_sched(rng, n, rng.randint(1, 2), rng.randint(n + 1, 9))
        times = critical_times(s)
        for t0, t1 in zip(times, times[1:]):
            mid = rng.uniform(t0 + (t1 - t0) * 0.01, t1 - (t1 - t0) * 0.01)
            left = deficiency(s, window=[mid]).value
            right = deficiency(s, window=[t1]).value
            if not math.isinf(right):
                assert left <= right + 1e-9


# --- OPT shape memo ------------------------------------------------------------------


def memo_test_schedules(rng):
    """Random schedules whose windows repeat exactly, up to a power of two, or up to scale.

    Integer lengths make snapshots repeat exactly; a schedule followed by a
    copy scaled by a power of two far above its lengths repeats every
    served window at that scale; exponential schedules with a random base
    repeat one shape at non-power-of-two scales.
    """
    for i in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        k = rng.randint(n + 1, 14)
        if i % 4 == 3:
            base = rng.uniform(1.1, 2.5)
            yield exponential_schedule(ExponentialSpec(n=n, m=m, base=base, k_max=rng.randint(n + m, 4 * (n + m))))
            continue
        integral = i % 2 == 0
        rows = [
            (rng.randrange(n), rng.randrange(m), float(rng.randint(1, 6)) if integral else rng.uniform(0.1, 10.0))
            for _ in range(k)
        ]
        if i % 4 == 2:
            scale = 2.0 ** rng.randint(7, 12)
            rows += [(p, q, length * scale) for p, q, length in rows]
        yield sched(n, m, rows)


def test_opt_memo_denominators_match_fresh_solves():
    rng = random.Random(41)
    hits = 0
    for s in memo_test_schedules(rng):
        m = s.m_processors
        report = deficiency(s)
        served = [x for x in report.samples if x.served]
        expected = []
        for sample in served:
            fresh = exact_makespan(MakespanInstance(sample.snapshot, m)).makespan
            assert sample.denominator == fresh
            expected.append(sample.time / fresh)
        assert [x.ratio for x in served] == expected
        assert report.value == max(expected, default=math.inf)
        assert report.opt_solves <= len(served)
        hits += len(served) - report.opt_solves
    assert hits > 500


def same_value(pruned, full):
    """The value-only route reports what the full route does, without samples."""
    assert pruned.samples == () and full.windows == len(full.samples)
    assert (pruned.value, pruned.argmax_time) == (full.value, full.argmax_time)
    assert (pruned.windows, pruned.unserved_times, pruned.incomplete) == (full.windows, full.unserved_times, full.incomplete)
    assert pruned.opt_solves <= full.opt_solves
    assert 0 <= pruned.pruned_windows < max(pruned.windows, 1)


def test_pruned_deficiency_matches_the_full_route():
    pruned_somewhere = full_solves = pruned_solves = 0
    for s in memo_test_schedules(random.Random(41)):
        full, pruned = deficiency(s), deficiency(s, samples=False)
        same_value(pruned, full)
        assert full.pruned_windows == 0
        pruned_somewhere += pruned.pruned_windows > 0
        full_solves += full.opt_solves
        pruned_solves += pruned.opt_solves
    assert pruned_somewhere > 50
    assert 2 * pruned_solves < full_solves


def test_pruned_route_computes_each_kept_denominator_once():
    # the window with the largest ceiling is read once before the time-order pass, to set its first floor,
    # and once more in it (in deficiency, a memo hit); every other kept window is read once
    for s in memo_test_schedules(random.Random(41)):
        m = s.m_processors
        calls = []

        def denom_of(snap):
            calls.append(snap)
            return exact_makespan(MakespanInstance(snap, m)).makespan

        report = metrics._evaluate(s, None, "deficiency", denom_of, None, samples=False,
                                   lower=lambda snap: lower_bound(snap, m))
        assert len(calls) == report.windows - report.pruned_windows + (report.windows > 0)


def test_pruned_deficiency_solves_a_snapshot_whose_total_overflows():
    # the last window's total, 2.1e308, overflows, yet it holds the supremum
    # 17 / 9; a ceiling t / (total / m) would read 0 there and skip it
    s = sched(3, 2, [(2, 1, 1e307), (1, 0, 8e307), (0, 1, 9e307), (2, 0, 9e307), (1, 1, 3e307)])
    full, pruned = deficiency(s), deficiency(s, samples=False)
    same_value(pruned, full)
    assert pruned.value == full.samples[-1].ratio == pytest.approx(17 / 9)


def test_pruned_route_streams_its_windows():
    # the ceilings are one array of floats, so the pruned route holds no window's snapshot beyond its top one:
    # on 24,996 windows its peak is within 0.5 MB of the value-only acceleration ratio's (2.6 against 2.2 MB),
    # where a list of every (t, sorted snapshot) and of their ceilings peaked at 6.8 MB
    s = exponential_schedule(ExponentialSpec(n=4, m=2, base=1.004, k_max=25_000))

    def peak(measure):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = measure(s, samples=False)
            return report, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    (pruned, pruned_peak), (_, acc_peak) = peak(deficiency), peak(acceleration_ratio)
    assert pruned_peak <= acc_peak + 500_000
    same_value(pruned, deficiency(s))
    assert (pruned.pruned_windows, pruned.windows, pruned.opt_solves) == (2_936, 24_996, 1)


def test_value_only_routes_build_no_samples(monkeypatch):
    built = []

    class CountingSample(metrics.MeasureSample):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(metrics, "MeasureSample", CountingSample)
    two = random_sched(random.Random(3), 3, 2, 12)
    one = sched(2, 1, [(0, 0, 1.0), (1, 0, 2.0), (0, 0, 3.0)])
    times = critical_times(two)
    # every default window starts unserved; the last explicit window mixes unserved and served times
    windows = ({}, {"window": times[-3:]}, {"window": times[:2] + times[-2:]})
    # exact with m >= 2 (the pruned route), exact with m = 1, LPT, explicit windows
    cases = [(deficiency, two, {}), (deficiency, one, {}), (deficiency, two, {"solver": "lpt"})]
    cases += [(deficiency, two, w) for w in windows[1:]]
    cases += [(measure, s, w) for measure in (acceleration_ratio, performance_ratio) for s in (two, one) for w in windows]
    for measure, s, kwargs in cases:
        full = measure(s, **kwargs)
        assert len(built) == len(full.samples) > 0
        built.clear()
        pruned = measure(s, samples=False, **kwargs)
        assert built == []
        same_value(pruned, full)
        if measure is deficiency and not kwargs and s is two:
            assert pruned.pruned_windows > 0
        else:
            assert pruned.opt_solves == full.opt_solves and pruned.pruned_windows == 0
    assert math.isinf(acceleration_ratio(two, window=windows[2]["window"], samples=False).value)


def test_every_route_simulates_the_schedule_once(monkeypatch):
    # the windows and the snapshot sweeps read one simulation; the pruned route streams two sweeps of
    # it, one for its ceilings and one for the window loop, and every other route one
    calls, sweeps = [], []
    original, original_sweep = core.simulate, core._sweep

    def counting(schedule):
        calls.append(schedule)
        return original(schedule)

    def counting_sweep(*args):
        sweeps.append(args)
        return original_sweep(*args)

    for module in (core, metrics, transforms):
        monkeypatch.setattr(module, "simulate", counting)
        monkeypatch.setattr(module, "_sweep", counting_sweep)
    two = random_sched(random.Random(3), 3, 2, 12)
    one = sched(2, 1, [(0, 0, 1.0), (1, 0, 2.0), (0, 0, 3.0)])
    routes = [(lambda: deficiency(two, samples=False), 2), (lambda: deficiency(two), 1),
              (lambda: deficiency(two, solver="lpt"), 1), (lambda: deficiency(two, window=[3.0, 9.0]), 1),
              (lambda: acceleration_ratio(two), 1), (lambda: performance_ratio(one), 1),
              (lambda: deficiency_value_m1(one), 1)]
    assert deficiency(two, samples=False).pruned_windows > 0
    for route, sweep_count in routes:
        calls.clear()
        sweeps.clear()
        route()
        assert len(calls) == 1
        assert len(sweeps) == sweep_count


# --- value-only LPT windows split across forked children ----------------------


def forced_split(monkeypatch):
    """Split every value-only LPT loop of at least 4 windows into up to three ranges, whatever the host.

    Returns the list that records each range given to a child.
    """
    monkeypatch.setattr(metrics, "_PART_MIN", 2)
    return record_forks(monkeypatch, cpus=3)


@st.composite
def cut_counts(draw):
    items = draw(st.integers(1, sys.maxsize))
    return items, draw(st.integers(1, min(items, 64)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cut_counts())
@example((sys.maxsize, 3))
@example((sys.maxsize, 64))
def test_cuts_are_ranges_of_equal_count_within_one_item(case):
    # every split cuts this way: windows, checks and a file's characters; a float quotient drifts at large items
    items, count = case
    cuts = _parts._cuts(items, count)
    assert len(cuts) == count + 1
    assert (cuts[0], cuts[-1]) == (0, items)
    assert all(lo < hi for lo, hi in zip(cuts, cuts[1:]))
    assert {hi - lo for lo, hi in zip(cuts, cuts[1:])} <= {items // count, items // count + 1}


def lpt_value(s, window=None):
    return deficiency(s, window=window, solver="lpt", samples=False)


def split_cases():
    rng = random.Random(31)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(2, 3)
        s = random_sched(rng, n, m, rng.randint(4, 60), serve_all_first=rng.random() < 0.5)
        times = critical_times(s)
        # unsorted, repeated, before the first finish and between finishes: served and unserved windows alike
        window = [rng.choice(times) for _ in range(rng.randint(4, 40))] + [rng.uniform(0.01, times[-1] * 1.1)
                                                                          for _ in range(5)]
        yield s, window


@pytest.mark.parametrize("explicit", [False, True], ids=["default-window", "explicit-window"])
def test_split_reports_equal_the_serial_ones(monkeypatch, explicit):
    cases = [(s, window if explicit else None) for s, window in split_cases()]
    serial = [repr(lpt_value(s, window)) for s, window in cases]
    forked = forced_split(monkeypatch)
    assert [repr(lpt_value(s, window)) for s, window in cases] == serial
    assert len(forked) > len(cases)
    assert_no_child_left()


def range_start_cases():
    """Schedules and windows whose second range starts where a child must find its own first snapshot.

    Lengths from {1, 2, 4} on two or three processors tie many finish times, also at a range's first window;
    a schedule that serves one problem first has unserved leading windows, some in a child's range; and the
    explicit windows are drawn between finish times, so a child's first window is never one of them.
    """
    rng = random.Random(35)
    for case in range(30):
        n, m = rng.randint(1, 4), rng.randint(2, 3)
        problems = [0] * rng.randint(0, 60) + [rng.randrange(n) for _ in range(rng.randint(8, 30))]
        s = sched(n, m, [(p, rng.randrange(m), rng.choice((1.0, 2.0, 4.0))) for p in problems])
        fins = sorted(set(critical_times(s)))
        window = None
        if case % 2:
            window = [rng.uniform(0.5, fins[-1] * 1.1) for _ in range(rng.randint(4, 40))]
            assert not set(window) & set(fins)
        yield s, window


@pytest.mark.parametrize("explicit", [False, True], ids=["default-window", "explicit-window"])
def test_value_only_lpt_splits_at_a_range_start_into_the_serial_reports(monkeypatch, explicit):
    cases = [(s, window) for s, window in range_start_cases() if (window is not None) == explicit]
    forked = forced_split(monkeypatch)
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    split = [repr(lpt_value(s, window)) for s, window in cases]
    assert len(forked) == len(cases)
    monkeypatch.setattr(core, "_cpus", lambda: 1)
    serial = [lpt_value(s, window) for s, window in cases]
    assert [repr(report) for report in serial] == split
    assert len(forked) == len(cases)
    # some child's range opens with unserved windows
    assert any(len(report.unserved_times) > lo for (lo, _), report in zip(forked, serial))
    assert_no_child_left()


def test_split_argmax_is_the_earliest_window_of_a_maximum_tied_across_ranges(monkeypatch):
    # the window 3 * 2^i sees the contract 2^i as the longest completed, after 2^(i+1) - 1 and before
    # 2^(i+2) - 1, and one job's LPT makespan is its size, so every one of the 30 ratios is exactly 3, in
    # each of the three ranges of ten windows
    s = sched(1, 2, [(0, 0, 2.0**i) for i in range(40)])
    window = [3 * 2.0**i for i in range(1, 31)]
    forked = forced_split(monkeypatch)
    report = lpt_value(s, window)
    assert forked == [(10, 20), (20, 30)]
    assert (report.value, report.argmax_time, report.windows) == (3.0, 6.0, 30)
    assert_no_child_left()


def test_split_concatenates_unserved_windows_across_ranges(monkeypatch):
    # problem 1 completes its first contract at 12.0: the windows 1.0 ... 12.0 are unserved, the ten
    # unserved windows of the first range and the first two of the second
    s = sched(2, 2, [(0, 0, 1.0)] * 11 + [(1, 0, 1.0)] + [((i + 1) % 2, 0, 1.0 + i / 8) for i in range(18)])
    serial = lpt_value(s)
    forked = forced_split(monkeypatch)
    report = lpt_value(s)
    assert forked == [(10, 20), (20, 30)]
    assert report.unserved_times == tuple(float(t) for t in range(1, 13))
    assert report.windows == 18
    assert repr(report) == repr(serial)
    assert_no_child_left()


def test_split_raises_the_serial_overflow_of_a_later_range(monkeypatch):
    # with s = 2.6e307 every finish time is finite, but the last window's snapshot (2s, 2s, 2s, 3s, 3s) has
    # the LPT makespan 7s, which overflows; it is the one served window, in the child's range
    size = 2.6e307
    s = sched(5, 2, [(0, 0, 3 * size), (2, 1, 2 * size), (1, 0, 3 * size), (3, 1, 2 * size), (4, 1, 2 * size),
                     (0, 0, 1e307)])
    with pytest.raises(ValueError) as serial:
        lpt_value(s)
    forked = forced_split(monkeypatch)
    with pytest.raises(ValueError) as split:
        lpt_value(s)
    assert forked == [(2, 5)]
    assert (split.type, str(split.value)) == (serial.type, str(serial.value))
    assert str(split.value).startswith("a processor load overflows")
    assert_no_child_left()


@pytest.mark.parametrize("failure", ["fork-refused", "child-raises", "child-killed", "child-hangs"])
def test_split_runs_here_every_range_no_child_reported(monkeypatch, failure):
    s = random_sched(random.Random(8), 3, 2, 40)
    serial = repr(lpt_value(s))
    forked = forced_split(monkeypatch)
    monkeypatch.setattr(_parts, "_WAIT_S", 0.2)
    parent, sweep = os.getpid(), metrics._sweep

    def refused():
        raise OSError("fork refused")

    def failing(*args):
        if os.getpid() != parent:
            if failure == "child-killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if failure == "child-hangs":
                threading.Event().wait()  # as on a lock a thread of the parent held when it forked
            raise RuntimeError("only a child fails")
        return sweep(*args)

    if failure == "fork-refused":
        monkeypatch.setattr(os, "fork", refused)
    else:
        monkeypatch.setattr(metrics, "_sweep", failing)
    assert repr(lpt_value(s)) == serial
    assert len(forked) == 2
    assert_no_child_left()


def test_split_reaps_every_child_when_the_first_range_is_interrupted(monkeypatch):
    s = random_sched(random.Random(9), 3, 2, 40)
    forked = forced_split(monkeypatch)
    parent, sweep = os.getpid(), metrics._sweep

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return sweep(*args)

    monkeypatch.setattr(metrics, "_sweep", interrupted)
    with pytest.raises(KeyboardInterrupt):
        lpt_value(s)
    assert len(forked) == 2
    assert_no_child_left()


@pytest.mark.parametrize("sent", ["whole", "cut-short", "length-cut-short", "nothing"])
def test_a_part_is_received_only_once_all_of_it_came(sent):
    # more than one read's worth, sent from a thread since the pipe holds less; a child that raised or was killed
    # part way leaves the pipe's end after some of its part, and one that hangs sends nothing by the deadline
    part = [list(range(50_000)), [0.5] * 50_000]
    data = marshal.dumps(part)
    message = len(data).to_bytes(8, "little") + data
    message = {"whole": message, "cut-short": message[:-1], "length-cut-short": message[:5], "nothing": b""}[sent]
    read, write = os.pipe()

    def send():
        with open(write, "wb", closefd=sent != "nothing") as pipe:
            pipe.write(message)

    sender = threading.Thread(target=send)
    sender.start()
    try:
        got = _parts._receive(read, time.monotonic() + (0.2 if sent == "nothing" else 30))
    finally:
        sender.join()
        os.close(read)
        if sent == "nothing":
            os.close(write)
    assert got == (part if sent == "whole" else None)


def test_nothing_forks_where_a_split_is_not_allowed(monkeypatch):
    s = random_sched(random.Random(10), 3, 2, 40)
    one = random_sched(random.Random(10), 3, 1, 40)
    forked = forced_split(monkeypatch)
    # samples kept; the acceleration and performance ratios at any length; windows too cheap to pay for a
    # child: the deficiency on one processor, LPT or not; the exact solver's shape memo on m >= 2, pruned or
    # over an explicit window
    deficiency(s, solver="lpt")
    acceleration_ratio(s)
    performance_ratio(s, window=critical_times(s))
    acceleration_ratio(s, samples=False)
    performance_ratio(s, window=critical_times(s), samples=False)
    deficiency(one, samples=False)
    deficiency(one, solver="lpt", samples=False)
    deficiency(s, samples=False)
    deficiency(s, window=critical_times(s), samples=False)
    assert forked == []
    # a second thread running
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        lpt_value(s)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive() and forked == []
    # fewer than 2 * _PART_MIN windows
    monkeypatch.setattr(metrics, "_PART_MIN", 10_000)
    lpt_value(s)
    assert forked == []
    # at 2 * _PART_MIN windows the LPT deficiency splits into two ranges of equal count, and the acceleration
    # and performance ratios, at that length and beyond, fork nothing
    big = exponential_schedule(ExponentialSpec(n=2, m=2, base=1.004, k_max=20_000))
    assert len(critical_times(big)) == 20_000
    lpt_value(big)
    assert forked == [(10_000, 20_000)]
    forked.clear()
    bigger = exponential_schedule(ExponentialSpec(n=2, m=2, base=1.004, k_max=40_000))
    for ratio in (acceleration_ratio, performance_ratio):
        ratio(big, samples=False)
        ratio(bigger, samples=False)
    assert forked == []
    assert_no_child_left()


def test_opt_memo_solves_a_beta_exponential_shape_once():
    s = exponential_schedule(ExponentialSpec(n=16, m=4, base=deficiency_optimal_base(16, 4)))
    report = deficiency(s)
    assert report.opt_solves == 1
    assert report.value == 1.6182625912321769
    assert len(report.samples) == 144
    assert deficiency(s, solver="lpt").opt_solves == 0
    assert acceleration_ratio(s).opt_solves == 0
    assert performance_ratio(s).opt_solves == 0


def test_opt_memo_reuses_a_partition_only_within_its_tolerance():
    # the two windows' shapes, (0.1234, 1) and (third / 4, 1), round to one
    # key at 12 digits; a relative 1e-13 apart the partition is reused, a
    # relative 2.4e-12 apart (beyond SHAPE_TOLERANCE) it is solved again; two
    # processors, since one processor's OPT is the total and never solved
    r = 0.1234
    for third, solves in ((4.0 * r * (1 + 1e-13), 1), (4.0 * (r + 3e-13), 2)):
        s = sched(2, 2, [(0, 0, r), (1, 0, 1.0), (0, 0, third), (1, 0, 4.0)])
        report = deficiency(s, window=[critical_times(s)[2], 100.0])
        assert [x.snapshot for x in report.samples] == [(r, 1.0), (third, 4.0)]
        assert report.opt_solves == solves


# --- scaling oracle ----------------------------------------------------------------


def test_scaling_oracle_simple_values():
    assert scaling_oracle((1.0, 2.0), 1, 6.0) == pytest.approx(2.0, rel=1e-9)
    assert scaling_oracle((1.0, 2.0, 4.0), 2, 8.0) == pytest.approx(2.0, rel=1e-9)


def test_scaling_oracle_fixed_point():
    from contractsched import MakespanInstance, exact_makespan

    rng = random.Random(14)
    for _ in range(10):
        values = tuple(rng.uniform(0.5, 5.0) for _ in range(rng.randint(1, 5)))
        m = rng.randint(1, 3)
        t = rng.uniform(5.0, 20.0)
        d = scaling_oracle(values, m, t)
        scaled = exact_makespan(MakespanInstance(tuple(d * v for v in values), m)).makespan
        assert scaled == pytest.approx(t, rel=1e-9)


def test_oracle_against_schedule():
    s = sched(2, 1, [(0, 0, 1.0), (1, 0, 2.0)])
    assert deficiency_bruteforce_oracle(s, 6.0) == pytest.approx(2.0, rel=1e-9)
    s2 = sched(3, 2, [(0, 0, 1.0), (1, 0, 2.0), (2, 1, 4.0)])
    assert deficiency_bruteforce_oracle(s2, 8.0) == pytest.approx(2.0, rel=1e-9)


def test_oracle_unserved_is_infinite():
    s = sched(2, 1, [(0, 0, 1.0), (1, 0, 2.0)])
    assert math.isinf(deficiency_bruteforce_oracle(s, 0.5))


def test_oracle_guard():
    s = sched(11, 1, [(p, 0, float(p + 1)) for p in range(11)])
    with pytest.raises(ValueError):
        deficiency_bruteforce_oracle(s, 100.0)


def test_oracle_matches_deficiency_randomized():
    rng = random.Random(15)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = rng.randint(1, 3)
        s = random_sched(rng, n, m, rng.randint(max(3, n), 12), serve_all_first=False)
        for sample in deficiency(s).samples:
            oracle = deficiency_bruteforce_oracle(s, sample.time)
            assert sample.ratio == pytest.approx(oracle, rel=1e-9)
