import math
import random

import pytest

from contractsched import (
    Contract,
    Schedule,
    critical_times,
    deficiency,
    deficiency_value_m1,
    is_normalized,
    normalize,
    reduce_consecutive_pairs,
    snapshots_before,
)
from contractsched import transforms
from contractsched.transforms import _certified, _pair_q_test, _ratios, _runs


def sched(rows, n=None, m=1):
    n = n if n is not None else max(p for p, _ in rows) + 1
    return Schedule(n, m, tuple(Contract(p, 0, length) for p, length in rows))


def random_sched(rng, n, k, serve_all_first=True):
    problems = list(range(n)) if serve_all_first else []
    rng.shuffle(problems)
    while len(problems) < k:
        problems.append(rng.randrange(n))
    return sched([(p, rng.uniform(0.1, 10.0)) for p in problems[:k]], n=n)


def pointwise_deficiency(schedule, t):
    """t over the snapshot sum right before t; +inf when a problem is unserved."""
    longest = [0.0] * schedule.n_problems
    acc = 0.0
    for c in schedule.contracts:
        acc += c.length
        if acc < t * (1 - 1e-12) and c.length > longest[c.problem]:
            longest[c.problem] = c.length
    if min(longest) <= 0.0:
        return math.inf
    return t / sum(longest)


# --- normalize ----------------------------------------------------------------


def test_normalize_example_swaps_to_alternating():
    s = sched([(0, 1.0), (0, 2.0), (1, 4.0)])
    trace = normalize(s)
    assert [(c.problem, c.length) for c in trace.output.contracts] == [(0, 1.0), (1, 2.0), (0, 4.0)]
    (step,) = trace.steps
    assert step.kind == "swap-assignment"
    assert step.index == 1
    assert step.time == 1.0
    assert step.problems == (1, 0)


def test_normalize_identity_on_round_robin():
    s = sched([(0, 1.0), (1, 2.0), (0, 3.0), (1, 4.0)])
    trace = normalize(s)
    assert trace.identity
    assert trace.output == s


def test_normalize_requires_single_processor():
    s = Schedule(2, 2, (Contract(0, 0, 1.0), Contract(1, 1, 2.0)))
    with pytest.raises(ValueError):
        normalize(s)


def test_normalize_output_satisfies_least_served_rule():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(2, 4)
        s = random_sched(rng, n, rng.randint(n, 10), serve_all_first=False)
        out = normalize(s).output
        assert is_normalized(out)


def test_normalize_idempotent():
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randint(2, 4)
        s = random_sched(rng, n, rng.randint(n, 10), serve_all_first=False)
        out = normalize(s).output
        assert normalize(out).identity


def test_normalize_steps_never_increase_deficiency():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 4)
        s = random_sched(rng, n, rng.randint(n + 1, 10), serve_all_first=False)
        for step in normalize(s).steps:
            assert step.deficiency_after <= step.deficiency_before


def test_normalize_overall_deficiency_never_increases():
    # schedules serving every problem once up front: all windows comparable
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(2, 4)
        s = random_sched(rng, n, rng.randint(n + 2, 10))
        trace = normalize(s)
        after = deficiency_value_m1(trace.output)
        if not math.isinf(after):
            assert after <= deficiency_value_m1(s)


def test_normalize_swaps_pointwise_non_increasing():
    # swap-only traces keep finish times, so compare window by window with
    # unserved windows counted as infinitely bad
    rng = random.Random(25)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 3)
        s = random_sched(rng, n, rng.randint(n + 1, 9), serve_all_first=False)
        trace = normalize(s)
        if any(step.kind != "swap-assignment" for step in trace.steps) or trace.identity:
            continue
        for t in critical_times(s):
            assert pointwise_deficiency(trace.output, t) <= pointwise_deficiency(s, t)
        checked += 1
    assert checked > 10


def test_explicit_unserved_window_scores_infinity():
    # before 2.0 only problem 0 has finished, so the window is unserved
    s = sched([(0, 1.0), (1, 2.0), (0, 4.0)])
    assert math.isinf(deficiency(s, window=[2.0]).value)
    assert deficiency(s, window=[7.0]).value == 7.0 / 3.0


def test_dominated_contracts_are_removed():
    s = sched([(0, 2.0), (1, 5.0), (0, 1.5), (1, 6.0)])  # third contract is dominated
    trace = normalize(s)
    kinds = [step.kind for step in trace.steps]
    assert "remove-dominated" in kinds
    per_problem = {}
    for c in trace.output.contracts:
        per_problem.setdefault(c.problem, []).append(c.length)
    for lengths in per_problem.values():
        assert all(a < b for a, b in zip(lengths, lengths[1:]))


def test_normalize_preserves_problem_count_and_lengths():
    rng = random.Random(26)
    for _ in range(50):
        n = rng.randint(2, 4)
        s = random_sched(rng, n, rng.randint(n, 9), serve_all_first=False)
        out = normalize(s).output
        assert out.n_problems == n and out.m_processors == 1
        # swaps relabel problems, removals drop contracts; lengths are a sub-multiset
        remaining = sorted(c.length for c in out.contracts)
        original = sorted(c.length for c in s.contracts)
        it = iter(original)
        assert all(any(x == y for y in it) for x in remaining)


# --- reduce_consecutive_pairs ---------------------------------------------------


def test_reduce_requires_two_problems_single_processor_normalized():
    with pytest.raises(ValueError):
        reduce_consecutive_pairs(sched([(0, 1.0), (1, 2.0), (2, 4.0)], n=3))
    with pytest.raises(ValueError):
        reduce_consecutive_pairs(Schedule(2, 2, (Contract(0, 0, 1.0), Contract(1, 1, 2.0))))
    with pytest.raises(ValueError):
        reduce_consecutive_pairs(sched([(0, 1.0), (0, 2.0), (1, 4.0)], n=2))  # not normalized


def test_reduce_identity_on_alternating():
    s = sched([(0, 1.0), (1, 2.0), (0, 3.0), (1, 4.0)], n=2)
    trace = reduce_consecutive_pairs(s)
    assert trace.identity
    assert trace.output == s


def test_reduce_triple_run():
    s = sched([(0, 1.0), (1, 10.0), (0, 2.0), (0, 3.0), (0, 4.0)], n=2)
    assert is_normalized(s)
    trace = reduce_consecutive_pairs(s)
    assert all(length <= 2 for _, length in _runs(list(trace.output.contracts)))
    assert all(o.action == "removed" for o in trace.run_outcomes)
    assert deficiency_value_m1(trace.output) <= deficiency_value_m1(s)


def test_reduce_second_pair_fires_when_first_is_blocked():
    # the first pair's local test fails (the other problem first completes
    # exactly at the run start and the certification does not hold) but the
    # second pair passes, hand-checked window by window
    s = sched([(0, 1.0), (1, 10.0), (0, 5.0), (0, 6.0), (0, 7.0)], n=2)
    trace = reduce_consecutive_pairs(s)
    (step,) = trace.steps
    assert step.kind == "remove-consecutive"
    assert step.index == 3
    assert step.rule == "q-test"
    assert [c.length for c in trace.output.contracts] == [1.0, 10.0, 5.0, 7.0]
    assert deficiency_value_m1(trace.output) == pytest.approx(23.0 / 15.0, rel=1e-12)


def test_reduce_irreducible_run_left_intact():
    # every removal in this normalized run strictly increases the exact
    # deficiency, so the run must be kept and reported; regression from a
    # randomized sweep
    rows = [(0, 0.1984), (1, 7.906), (0, 1.3881), (0, 6.3709), (0, 7.8351)]
    s = sched(rows, n=2)
    assert is_normalized(s)
    before = deficiency_value_m1(s)
    contracts = list(s.contracts)
    for idx in (2, 3):
        candidate = contracts[:idx] + contracts[idx + 1 :]
        assert deficiency_value_m1(Schedule(2, 1, tuple(candidate))) > before + 1e-9
    trace = reduce_consecutive_pairs(s)
    assert trace.output == s
    assert len(trace.run_outcomes) == 1
    assert trace.run_outcomes[0].action in ("certified", "irreducible")
    assert deficiency_value_m1(trace.output) == before


def test_reduce_with_only_blocked_runs_returns_its_input():
    # an identity trace returns the input itself, generator included, and
    # still reports the blocked run
    rows = [(0, 0.1984), (1, 7.906), (0, 1.3881), (0, 6.3709), (0, 7.8351)]
    s = Schedule(2, 1, tuple(Contract(p, 0, length) for p, length in rows), generator={"family": "custom"})
    trace = reduce_consecutive_pairs(s)
    assert trace.identity
    assert trace.output is s
    assert trace.output.generator == {"family": "custom"}
    assert [o.action for o in trace.run_outcomes] in (["certified"], ["irreducible"])


@pytest.mark.parametrize("rows, calls", [
    # blocked run: the state, then one candidate per pair; the direct test
    # and the certification reuse them
    ([(0, 0.1984), (1, 7.906), (0, 1.3881), (0, 6.3709), (0, 7.8351)], 3),
    # the first pair fails, the second passes: the state and two candidates;
    # the chosen candidate's windows become the loop's next state
    ([(0, 1.0), (1, 10.0), (0, 5.0), (0, 6.0), (0, 7.0)], 3),
])
def test_reduce_evaluates_each_candidate_once(monkeypatch, rows, calls):
    counted = []
    original = transforms._ratios

    def counting(*args):
        counted.append(args)
        return original(*args)

    monkeypatch.setattr(transforms, "_ratios", counting)
    reduce_consecutive_pairs(sched(rows, n=2))
    assert len(counted) == calls


def test_reduce_dichotomy_under_canonical_windows():
    # at the first pair of a run whose pair-start window has both problems
    # served strictly before it, the local test and the certification cannot
    # both fail
    rng = random.Random(27)
    checked = 0
    for _ in range(2000):
        s = random_sched(rng, 2, rng.randint(4, 12))
        normalized = normalize(s).output
        contracts = list(normalized.contracts)
        for start, length in _runs(contracts):
            if length < 3 or start == 0:
                continue
            t = sum(c.length for c in contracts[:start])
            if not min(next(snapshots_before(normalized, [t]))) > 0.0:
                continue
            dropped = contracts[:start] + contracts[start + 1 :]
            ratios, dropped_ratios = _ratios(contracts, 2), _ratios(dropped, 2)
            assert _pair_q_test(ratios, dropped_ratios, start) or _certified(contracts, start)
            checked += 1
    assert checked > 5


def test_reduce_never_increases_deficiency_randomized():
    rng = random.Random(28)
    blocked = 0
    for _ in range(200):
        s = random_sched(rng, 2, rng.randint(4, 10))
        normalized = normalize(s).output
        trace = reduce_consecutive_pairs(normalized)
        for step in trace.steps:
            assert step.deficiency_after <= step.deficiency_before
        after = deficiency_value_m1(trace.output)
        before = deficiency_value_m1(normalized)
        assert after <= before
        blocked += sum(1 for o in trace.run_outcomes if o.action != "removed")
        if not trace.run_outcomes or all(o.action == "removed" for o in trace.run_outcomes):
            assert all(length <= 2 for _, length in _runs(list(trace.output.contracts)))
    # blocked runs exist but are rare
    assert blocked <= 4


def test_reduce_output_stays_normalized():
    rng = random.Random(29)
    for _ in range(100):
        s = random_sched(rng, 2, rng.randint(4, 10))
        normalized = normalize(s).output
        out = reduce_consecutive_pairs(normalized).output
        assert is_normalized(out)
