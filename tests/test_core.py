import json
import math
import random
import sys

import pytest

from contractsched import (
    Contract,
    Schedule,
    critical_times,
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    simulate,
    snapshot,
    snapshot_before,
    snapshots_before,
)


def sched(n, m, rows):
    return Schedule(n, m, tuple(Contract(p, q, length) for p, q, length in rows))


# --- simulate ---------------------------------------------------------------


def test_simulate_two_processor_queues():
    # queues {1,4} and {2,8}: hand-computed finish times
    s = sched(3, 2, [(0, 0, 1.0), (1, 1, 2.0), (2, 0, 4.0), (0, 1, 8.0)])
    assert simulate(s) == [(0, 1.0), (1, 2.0), (2, 5.0), (3, 10.0)]
    b, k, n, m = 2.0, 0, 3, 2
    assert simulate(s)[3][1] == (b ** (k + n + m) - b ** ((k + n) % m)) / (b**m - 1)


def test_simulate_single_contract():
    s = sched(1, 1, [(0, 0, 5.0)])
    assert simulate(s) == [(0, 5.0)]


def test_simulate_prefix_sums():
    s = sched(1, 1, [(0, 0, 1.0), (0, 0, 2.0), (0, 0, 4.0)])
    assert simulate(s) == [(0, 1.0), (1, 3.0), (2, 7.0)]


def test_simulate_per_processor_strictly_increasing():
    rng = random.Random(7)
    for _ in range(30):
        n, m, k = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 12)
        s = Schedule(
            n,
            m,
            tuple(Contract(rng.randrange(n), rng.randrange(m), rng.uniform(0.1, 5)) for _ in range(k)),
        )
        fins = dict(simulate(s))
        for queue in s.processor_queues():
            for a, b in zip(queue, queue[1:]):
                assert fins[a] < fins[b]


def test_schedule_validation_errors():
    with pytest.raises(ValueError):
        sched(1, 1, [(0, 0, 0.0)])
    with pytest.raises(ValueError):
        sched(1, 1, [(0, 0, -1.0)])
    with pytest.raises(ValueError):
        sched(1, 1, [(0, 0, math.inf)])
    with pytest.raises(ValueError):
        sched(1, 1, [(1, 0, 1.0)])  # problem out of range
    with pytest.raises(ValueError):
        sched(1, 1, [(0, 1, 1.0)])  # processor out of range
    with pytest.raises(ValueError):
        Schedule(0, 1, ())
    with pytest.raises(ValueError):
        Schedule(1, 0, ())


# --- snapshots ---------------------------------------------------------------

ALTERNATING = [(0, 0, 1.0), (1, 0, 2.0), (0, 0, 4.0), (1, 0, 8.0)]


def test_snapshot_right_before_boundary():
    # x_2 finishes exactly at 7: excluded right before 7
    s = sched(2, 1, ALTERNATING)
    assert snapshot_before(s, 7.0).longest == (1.0, 2.0)
    assert snapshot(s, 7.0).longest == (4.0, 2.0)


def test_snapshot_before_first_finish_is_incomplete():
    s = sched(2, 1, ALTERNATING)
    snap = snapshot_before(s, 0.5)
    assert snap.longest == (0.0, 0.0)
    assert not snap.complete


def test_snapshot_inclusive_at_end():
    s = sched(2, 1, ALTERNATING)
    snap = snapshot(s, 15.0)
    assert snap.longest == (4.0, 8.0)
    assert snap.complete
    assert snap.sorted == (4.0, 8.0)


def test_snapshot_requires_positive_time():
    s = sched(2, 1, ALTERNATING)
    with pytest.raises(ValueError):
        snapshot(s, 0.0)


def test_snapshot_monotone_in_time():
    rng = random.Random(3)
    for _ in range(25):
        n, m, k = rng.randint(1, 4), rng.randint(1, 3), rng.randint(2, 10)
        s = Schedule(
            n, m, tuple(Contract(rng.randrange(n), rng.randrange(m), rng.uniform(0.1, 5)) for _ in range(k))
        )
        prev = None
        for t in critical_times(s):
            cur = snapshot(s, t).longest
            if prev is not None:
                assert all(a >= b for a, b in zip(cur, prev))
            prev = cur


def test_snapshot_before_equals_epsilon_shift():
    rng = random.Random(4)
    for _ in range(25):
        n, m, k = rng.randint(1, 3), rng.randint(1, 2), rng.randint(2, 9)
        s = Schedule(
            n, m, tuple(Contract(rng.randrange(n), rng.randrange(m), rng.uniform(0.1, 5)) for _ in range(k))
        )
        times = critical_times(s)
        gaps = [b - a for a, b in zip(times, times[1:])]
        eps = min(gaps) / 2 if gaps else times[0] / 2
        for t in times:
            if t - eps > 0:
                assert snapshot_before(s, t).longest == snapshot(s, t - eps).longest


def before_by_brute_force(schedule, t):
    """Per-problem longest length among contracts finishing strictly before t."""
    longest = [0.0] * schedule.n_problems
    for idx, fin in simulate(schedule):
        c = schedule.contracts[idx]
        if fin < t and c.length > longest[c.problem]:
            longest[c.problem] = c.length
    return tuple(longest)


def test_snapshots_before_matches_brute_force():
    rng = random.Random(11)
    tied = 0
    for trial in range(300):
        n, m, k = rng.randint(1, 4), rng.randint(1, 3), rng.randint(0, 12)
        integer = trial % 2 == 0  # integer lengths make finish times tie exactly across processors
        s = Schedule(
            n,
            m,
            tuple(
                Contract(rng.randrange(n), rng.randrange(m), float(rng.randint(1, 3)) if integer else rng.uniform(0.1, 5))
                for _ in range(k)
            ),
        )
        fins = sorted(fin for _, fin in simulate(s))
        tied += len(set(fins)) < len(fins)
        gaps = [(a + b) / 2 for a, b in zip(fins, fins[1:]) if a < b]
        near = [fin * (1 + 1e-12) for fin in fins]  # just after a finish time: it counts
        edges = [fins[0] / 2, fins[-1] + 1.0] if fins else [1.0]
        times = sorted(fins + fins + gaps + near + edges)  # every finish time is queried at least twice
        assert list(snapshots_before(s, times)) == [before_by_brute_force(s, t) for t in times]
        for t in times:
            assert [snapshot_before(s, t).longest] == list(snapshots_before(s, [t]))
    assert tied > 50


def test_snapshots_before_requires_ascending_times():
    s = sched(2, 1, ALTERNATING)
    assert list(snapshots_before(s, [])) == []
    with pytest.raises(ValueError):
        list(snapshots_before(s, [3.0, 1.0]))


# --- critical times ----------------------------------------------------------


def test_critical_times_prefix_sums():
    s = sched(1, 1, [(0, 0, 1.0), (0, 0, 2.0), (0, 0, 4.0)])
    assert critical_times(s) == [1.0, 3.0, 7.0]


def test_critical_times_empty_schedule():
    assert critical_times(Schedule(1, 1, ())) == []


def test_critical_times_two_processors():
    s = sched(3, 2, [(0, 0, 1.0), (1, 1, 2.0), (2, 0, 4.0), (0, 1, 8.0)])
    assert critical_times(s) == [1.0, 2.0, 5.0, 10.0]


def test_critical_times_dedupes_ties():
    s = sched(2, 2, [(0, 0, 3.0), (1, 1, 3.0)])
    assert critical_times(s) == [3.0]


def test_tied_finishes_all_excluded_right_before():
    # both contracts end at 3: right before 3 neither counts, at 3 both do
    s = sched(2, 2, [(0, 0, 3.0), (1, 1, 3.0)])
    assert snapshot_before(s, 3.0).longest == (0.0, 0.0)
    assert snapshot(s, 3.0).longest == (3.0, 3.0)


# --- JSON round-trip ---------------------------------------------------------


def test_json_round_trip_is_exact(tmp_path):
    # awkward binary64 values must survive read -> write -> read unchanged
    lengths = [0.1 + 0.2, 1.0 / 3.0, math.pi, 5.0, 1e-9 + 1.0]
    s = Schedule(
        2,
        2,
        tuple(Contract(i % 2, i % 2, length) for i, length in enumerate(lengths)),
        generator={"family": "exponential", "base": 1.0000001},
    )
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_schedule(s, p1)
    first = load_schedule(p1)
    save_schedule(first, p2)
    second = load_schedule(p2)
    assert first == s
    assert second == first
    assert [c.length for c in second.contracts] == lengths


def test_schedule_file_is_one_compact_json_line(tmp_path):
    s = Schedule(2, 1, (Contract(0, 0, 1.0), Contract(1, 0, 0.1 + 0.2)), generator={"family": "custom", "k": [1, 2]})
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert path.read_text(encoding="utf-8") == (
        '{"n":2,"m":1,"contracts":[{"problem":0,"processor":0,"length":1.0},'
        '{"problem":1,"processor":0,"length":0.30000000000000004}],"generator":{"family":"custom","k":[1,2]}}\n'
    )


def test_schedule_file_round_trips_every_length_bit_for_bit(tmp_path):
    rng = random.Random(5)
    # lengths across the whole float range, subnormals and the largest finite float included
    lengths = [rng.random() * 10.0 ** rng.randint(-300, 300) for _ in range(200)]
    lengths += [5e-324, 2.2250738585072014e-308, sys.float_info.max, 1.0000000000000002, 0.1]
    lengths = [x for x in lengths if x > 0.0]
    # one contract per processor keeps every finish time finite
    s = Schedule(3, len(lengths), tuple(Contract(i % 3, i, x) for i, x in enumerate(lengths)),
                 generator={"family": "exponential", "base": 1.0000001, "k_max": len(lengths)})
    path = tmp_path / "s.json"
    save_schedule(s, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n") and text.count("\n") == 1
    back = load_schedule(path)
    assert back == s and back.generator == s.generator
    assert [c.length.hex() for c in back.contracts] == [x.hex() for x in lengths]


def test_json_document_shape():
    s = sched(2, 1, ALTERNATING)
    doc = schedule_to_dict(s)
    assert set(doc) == {"n", "m", "contracts"}
    assert doc["contracts"][0] == {"problem": 0, "processor": 0, "length": 1.0}
    assert schedule_from_dict(json.loads(json.dumps(doc))) == s


def test_json_missing_key_raises():
    with pytest.raises(ValueError):
        schedule_from_dict({"n": 1, "m": 1})
