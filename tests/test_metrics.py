import math
import random

import pytest

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
from contractsched import metrics
from contractsched.makespan import lower_bound
from contractsched.transforms import deficiency_value_m1


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
    # the seed window, solved before the time-order pass, reuses its denominator there
    for s in memo_test_schedules(random.Random(41)):
        m = s.m_processors
        calls = []

        def denom_of(snap):
            calls.append(snap)
            return exact_makespan(MakespanInstance(snap, m)).makespan

        report = metrics._evaluate(s, None, "deficiency", denom_of, None, samples=False,
                                   lower=lambda snap: lower_bound(snap, m))
        assert len(calls) == report.windows - report.pruned_windows


def test_pruned_deficiency_solves_a_snapshot_whose_total_overflows():
    # the last window's total, 2.1e308, overflows, yet it holds the supremum
    # 17 / 9; a ceiling t / (total / m) would read 0 there and skip it
    s = sched(3, 2, [(2, 1, 1e307), (1, 0, 8e307), (0, 1, 9e307), (2, 0, 9e307), (1, 1, 3e307)])
    full, pruned = deficiency(s), deficiency(s, samples=False)
    same_value(pruned, full)
    assert pruned.value == full.samples[-1].ratio == pytest.approx(17 / 9)


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
