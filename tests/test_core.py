import collections
import gc
import json
import math
import os
import random
import re
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractsched import core
from contractsched.verification import random_schedule
from contractsched import (
    Contract,
    ExponentialSpec,
    Schedule,
    acceleration_ratio,
    critical_times,
    deficiency,
    deficiency_bruteforce_oracle,
    deficiency_optimal_base,
    exponential_schedule,
    load_schedule,
    performance_ratio,
    save_schedule,
    scaling_oracle,
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
    assert simulate(s) == [1.0, 2.0, 5.0, 10.0]
    b, k, n, m = 2.0, 0, 3, 2
    assert simulate(s)[3] == (b ** (k + n + m) - b ** ((k + n) % m)) / (b**m - 1)


def test_simulate_single_contract():
    s = sched(1, 1, [(0, 0, 5.0)])
    assert simulate(s) == [5.0]


def test_simulate_prefix_sums():
    s = sched(1, 1, [(0, 0, 1.0), (0, 0, 2.0), (0, 0, 4.0)])
    assert simulate(s) == [1.0, 3.0, 7.0]


def test_simulate_per_processor_strictly_increasing():
    rng = random.Random(7)
    for _ in range(30):
        n, m, k = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 12)
        s = Schedule(
            n,
            m,
            tuple(Contract(rng.randrange(n), rng.randrange(m), rng.uniform(0.1, 5)) for _ in range(k)),
        )
        fins = simulate(s)
        for proc in range(m):
            queue = [fin for c, fin in zip(s.contracts, fins) if c.processor == proc]
            assert all(a < b for a, b in zip(queue, queue[1:]))


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


def test_contract_is_a_named_tuple():
    c = Contract(problem=2, processor=1, length=0.5)
    assert (c.problem, c.processor, c.length) == (2, 1, 0.5)
    assert c == Contract(2, 1, 0.5) == (2, 1, 0.5)
    problem, processor, length = c
    assert (problem, processor, length) == (2, 1, 0.5)
    with pytest.raises(AttributeError):
        c.length = 1.0


# (field, bad value, message after "contract i: ") on a schedule with n = 3 and m = 2
BAD_FIELDS = [
    ("length", math.nan, "length must be positive and finite, got nan"),
    ("length", math.inf, "length must be positive and finite, got inf"),
    ("length", -math.inf, "length must be positive and finite, got -inf"),
    ("length", 0.0, "length must be positive and finite, got 0.0"),
    ("length", -1.0, "length must be positive and finite, got -1.0"),
    ("problem", 3, "problem 3 out of range [0, 3)"),
    ("problem", -1, "problem -1 out of range [0, 3)"),
    ("processor", 2, "processor 2 out of range [0, 2)"),
    ("processor", -1, "processor -1 out of range [0, 2)"),
    # a field of the wrong type is refused, not truncated or read as 0 or 1
    ("problem", 1.5, "problem must be an integer, got 1.5"),
    ("problem", True, "problem must be an integer, got True"),
    ("processor", True, "processor must be an integer, got True"),
    ("length", True, "length must be a number, got True"),
    ("length", "3", "length must be a number, got '3'"),
    ("length", 10**400, "length is outside the float range"),
]
BAD_FIELD_IDS = [f"{f}={'10**400' if v == 10**400 else repr(v)}" for f, v, _ in BAD_FIELDS]


def five_rows(bad):
    """Five valid rows of a 3-problem, 2-processor schedule; ``bad`` maps an index to one replaced field."""
    rows = [{"problem": i % 3, "processor": i % 2, "length": float(i + 1)} for i in range(5)]
    for idx, (field, value) in bad.items():
        rows[idx][field] = value
    return rows


def both_routes(rows):
    """Build the rows through Schedule(...) and through schedule_from_dict, each expected to raise."""
    yield lambda: Schedule(3, 2, tuple(Contract(**row) for row in rows))
    yield lambda: schedule_from_dict({"n": 3, "m": 2, "contracts": rows})


@pytest.mark.parametrize("idx", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("field, value, message", BAD_FIELDS, ids=BAD_FIELD_IDS)
def test_a_bad_contract_is_named_at_any_position(idx, field, value, message):
    # a check by min() and max() alone would pass a NaN that does not come first
    for build in both_routes(five_rows({idx: (field, value)})):
        with pytest.raises(ValueError, match=re.escape(f"contract {idx}: {message}")):
            build()


def test_the_earlier_of_two_bad_contracts_is_named():
    # the earlier contract is named whatever is wrong with each, a range error before a type error included
    for bad, first in (({1: ("length", math.nan), 3: ("problem", 7)}, 1),
                       ({1: ("processor", 5), 3: ("length", -math.inf)}, 1),
                       ({0: ("problem", 5), 1: ("problem", 1.5)}, 0)):
        for build in both_routes(five_rows(bad)):
            with pytest.raises(ValueError, match=f"^contract {first}: "):
                build()


def test_a_nan_problem_or_processor_is_not_an_integer():
    for field in ("problem", "processor"):
        for build in both_routes(five_rows({2: (field, math.nan)})):
            with pytest.raises(ValueError, match=re.escape(f"contract 2: {field} must be an integer, got nan")):
                build()


# --- snapshots ---------------------------------------------------------------

ALTERNATING = [(0, 0, 1.0), (1, 0, 2.0), (0, 0, 4.0), (1, 0, 8.0)]


def test_snapshot_right_before_boundary():
    # x_2 finishes exactly at 7: excluded right before 7
    s = sched(2, 1, ALTERNATING)
    assert snapshot_before(s, 7.0) == (1.0, 2.0)
    assert snapshot(s, 7.0) == (4.0, 2.0)


def test_snapshot_before_first_finish_is_incomplete():
    s = sched(2, 1, ALTERNATING)
    assert snapshot_before(s, 0.5) == (0.0, 0.0)


def test_snapshot_inclusive_at_end():
    s = sched(2, 1, ALTERNATING)
    assert snapshot(s, 15.0) == (4.0, 8.0)


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
            cur = snapshot(s, t)
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
                assert snapshot_before(s, t) == snapshot(s, t - eps)


def before_by_brute_force(schedule, t):
    """Per-problem longest length among contracts finishing strictly before t."""
    longest = [0.0] * schedule.n_problems
    for c, fin in zip(schedule.contracts, simulate(schedule)):
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
        fins = sorted(simulate(s))
        tied += len(set(fins)) < len(fins)
        gaps = [(a + b) / 2 for a, b in zip(fins, fins[1:]) if a < b]
        near = [fin * (1 + 1e-12) for fin in fins]  # just after a finish time: it counts
        edges = [fins[0] / 2, fins[-1] + 1.0] if fins else [1.0]
        times = sorted(fins + fins + gaps + near + edges)  # every finish time is queried at least twice
        assert list(snapshots_before(s, times)) == [before_by_brute_force(s, t) for t in times]
        for t in times:
            assert [snapshot_before(s, t)] == list(snapshots_before(s, [t]))
    assert tied > 50


def test_snapshots_before_requires_ascending_times():
    s = sched(2, 1, ALTERNATING)
    assert list(snapshots_before(s, [])) == []
    with pytest.raises(ValueError):
        list(snapshots_before(s, [3.0, 1.0]))


@pytest.mark.parametrize("times", [[7.0, math.nan, 3.0], [math.nan], [1.0, math.nan], [1.0, 2.0, math.nan, 8.0]])
def test_snapshots_before_rejects_a_nan_time(times):
    # NaN < prev is false, so a NaN passed the ascending check and every later time got a stale snapshot:
    # [7.0, nan, 3.0] yielded the snapshot at 7.0 three times
    s = sched(2, 1, [(0, 0, 1.0), (1, 0, 2.0), (0, 0, 4.0), (1, 0, 8.0)])
    with pytest.raises(ValueError, match="^interruption time must be positive and finite, got nan$"):
        list(snapshots_before(s, times))


def _on_alternating(call):
    return lambda t: call(sched(2, 1, ALTERNATING), t)


# name -> a call taking one interruption time
TIME_TAKERS = {
    "snapshot": _on_alternating(snapshot),
    "snapshot_before": _on_alternating(snapshot_before),
    "snapshots_before": _on_alternating(lambda s, t: list(snapshots_before(s, [t]))),
    **{f"{measure.__name__}-samples-{samples}": _on_alternating(
        lambda s, t, measure=measure, samples=samples: measure(s, window=[t], samples=samples))
       for measure in (acceleration_ratio, performance_ratio, deficiency) for samples in (True, False)},
    "scaling_oracle": lambda t: scaling_oracle((1.0, 2.0), 2, t),
    "deficiency_bruteforce_oracle": _on_alternating(deficiency_bruteforce_oracle),
}

BAD_TIMES = {
    "0": (0, "interruption time must be positive and finite, got 0.0"),
    "0.0": (0.0, "interruption time must be positive and finite, got 0.0"),
    "-1.0": (-1.0, "interruption time must be positive and finite, got -1.0"),
    "nan": (math.nan, "interruption time must be positive and finite, got nan"),
    "inf": (math.inf, "interruption time must be positive and finite, got inf"),
    "-inf": (-math.inf, "interruption time must be positive and finite, got -inf"),
    "1e400": (10**400, "interruption time is outside the float range"),
    "True": (True, "interruption time must be a number, got True"),
    "str": ("3", "interruption time must be a number, got '3'"),
    "None": (None, "interruption time must be a number, got None"),
}


@pytest.mark.parametrize("name", sorted(TIME_TAKERS))
def test_every_time_taker_runs_at_valid_times(name):
    for t in (5, 7.0, 1e-300):
        TIME_TAKERS[name](t)


@pytest.mark.parametrize("bad, message", BAD_TIMES.values(), ids=BAD_TIMES.keys())
@pytest.mark.parametrize("name", sorted(TIME_TAKERS))
def test_every_time_taker_refuses_a_time_outside_the_rule(name, bad, message):
    # at the parent, "3" was a TypeError, 10**400 an OverflowError, True a time of 1 (the bruteforce
    # oracle returned inf on it), and the measures gave +inf at 0, -1.0 and inf
    with pytest.raises(ValueError) as info:
        TIME_TAKERS[name](bad)
    assert str(info.value) == message


def test_an_int_time_is_a_float_and_the_largest_float_is_a_time():
    s = sched(2, 1, ALTERNATING)
    argmax = deficiency(s, window=[5]).argmax_time
    assert argmax == 5.0 and type(argmax) is float
    # the next float above it is inf, which is not a time, yet every contract finishes by then
    assert snapshot(s, sys.float_info.max) == (4.0, 8.0)


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


@st.composite
def tie_heavy_schedules(draw):
    # small integer lengths on several processors, so finish times collide
    n, m = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), st.integers(1, 3).map(float)),
                         max_size=16))
    return Schedule(n, m, tuple(Contract(p, q, length) for p, q, length in rows))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tie_heavy_schedules())
def test_critical_times_are_the_distinct_sorted_finish_times(s):
    assert critical_times(s) == sorted(set(simulate(s)))


def test_tied_finishes_all_excluded_right_before():
    # both contracts end at 3: right before 3 neither counts, at 3 both do
    s = sched(2, 2, [(0, 0, 3.0), (1, 1, 3.0)])
    assert snapshot_before(s, 3.0) == (0.0, 0.0)
    assert snapshot(s, 3.0) == (3.0, 3.0)


# --- JSON round-trip ---------------------------------------------------------


def _generator_last(text):
    doc = json.loads(text)
    doc["generator"] = doc.pop("generator")
    return json.dumps(doc, separators=(",", ":")) + "\n"


# a saved file as it is, and laid out as json reads it but save_schedule does not write it: the generator after
# the contracts (as files were saved before the generator came first), indented, or with whitespace at the end
LAYOUTS = {
    "saved": lambda text: text,
    "generator-last": _generator_last,
    "indented": lambda text: json.dumps(json.loads(text), indent=2),
    "whitespace-at-the-end": lambda text: text + "\t\r\n \r\n",
}


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_json_round_trip_is_exact(tmp_path, layout):
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
    saved = p1.read_text(encoding="utf-8")
    p1.write_text(layout(saved), encoding="utf-8")
    first = load_schedule(p1)
    save_schedule(first, p2)
    second = load_schedule(p2)
    assert first == s
    assert second == first
    assert [c.length for c in second.contracts] == lengths
    assert p2.read_text(encoding="utf-8") == saved


def test_schedule_file_is_one_compact_json_line(tmp_path):
    s = Schedule(2, 1, (Contract(0, 0, 1.0), Contract(1, 0, 0.1 + 0.2)), generator={"family": "custom", "k": [1, 2]})
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert path.read_text(encoding="utf-8") == (
        '{"n":2,"m":1,"generator":{"family":"custom","k":[1,2]},"contracts":[{"problem":0,"processor":0,"length":1.0},'
        '{"problem":1,"processor":0,"length":0.30000000000000004}]}\n'
    )


def _random_schedule():
    rng = random.Random(11)
    n, m = 5, 3
    # integer lengths and lengths across many magnitudes, where repr and json must agree digit for digit
    lengths = [rng.randint(1, 10**6) if rng.random() < 0.1 else rng.random() * 10.0 ** rng.randint(-30, 30)
               for _ in range(500)]
    return Schedule(n, m, [Contract(rng.randrange(n), rng.randrange(m), x) for x in lengths if x > 0])


def _exponential_schedule():
    return exponential_schedule(ExponentialSpec(n=4, m=2, base=deficiency_optimal_base(4, 2), k_max=400))


@pytest.mark.parametrize("make", [_random_schedule, _exponential_schedule], ids=["random", "exponential"])
def test_schedule_file_is_the_compact_json_dump(tmp_path, make):
    s = make()
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert path.read_text(encoding="utf-8") == json.dumps(schedule_to_dict(s), separators=(",", ":")) + "\n"


@pytest.mark.parametrize("generator", [None, {"family": "exponential", "base": 1.5}], ids=["plain", "generator"])
@pytest.mark.parametrize("k", [0, 1, core._BLOCK - 1, core._BLOCK, core._BLOCK + 1, 2 * core._BLOCK + 1])
def test_schedule_file_is_the_compact_json_dump_at_every_block_boundary(tmp_path, k, generator):
    # rows are written a block at a time: the commas between blocks and the empty list must come out as json's
    rng = random.Random(k)
    s = Schedule(3, 2, [Contract(rng.randrange(3), rng.randrange(2), rng.random() + 0.5) for _ in range(k)],
                 generator=generator)
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert path.read_bytes() == (json.dumps(schedule_to_dict(s), separators=(",", ":")) + "\n").encode()
    assert load_schedule(path) == s


def test_schedule_file_is_written_and_read_without_a_second_copy_of_its_text(tmp_path):
    # save never holds the whole file's text, and load releases the text before it builds the contracts
    s = exponential_schedule(ExponentialSpec(n=4, m=2, base=1.004, k_max=20_000))
    path = tmp_path / "s.json"

    tracemalloc.start()
    try:
        save_schedule(s, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        size = path.stat().st_size
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        doc = json.loads(path.read_text(encoding="utf-8"))
        parsed = tracemalloc.get_traced_memory()[0] - base  # the parsed document alone
        back = schedule_from_dict(doc)
        del doc
        built = tracemalloc.get_traced_memory()[0] - base  # the schedule alone
        del back
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert load_schedule(path) == s
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert save_peak < size / 2
    # holding the text while the contracts are built peaks near the text, the document and the schedule
    # together (at 20k contracts, 7.1 MB against a bound of 6.7 MB); releasing it peaks at 6.0 MB
    assert load_peak < parsed + built + size / 4


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


GOOD_FILE = '{"n":1,"m":1,"contracts":[{"problem":0,"processor":0,"length":1.0}]}'
BAD_CONTRACT_FILE = '{"n":1,"m":1,"contracts":[{"problem":3,"processor":0,"length":1.0}]}'


@pytest.mark.parametrize("caller_collects", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("text, error", [(GOOD_FILE, None),
                                         (BAD_CONTRACT_FILE, "contract 0: problem 3 out of range [0, 1)")],
                         ids=["good-file", "bad-contract"])
def test_load_schedule_pauses_the_collector_and_restores_the_callers_state(tmp_path, monkeypatch, caller_collects,
                                                                           text, error):
    path = tmp_path / "s.json"
    path.write_text(text, encoding="utf-8")
    during = []
    parse = core.schedule_from_dict

    def recording(doc):
        during.append(gc.isenabled())
        return parse(doc)

    monkeypatch.setattr(core, "schedule_from_dict", recording)
    was = gc.isenabled()
    try:
        gc.enable() if caller_collects else gc.disable()
        if error is None:
            assert load_schedule(path) == sched(1, 1, [(0, 0, 1.0)])
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                load_schedule(path)
        assert gc.isenabled() is caller_collects
    finally:
        gc.enable() if was else gc.disable()
    assert during == [False]


BAD_GENERATORS = {
    "int": (5, "schedule 'generator' must be a JSON object, got int"),
    "list": ([], "schedule 'generator' must be a JSON object, got list"),
    "empty": ({}, "schedule 'generator' family must be a string, got None"),
    "int-family": ({"family": 3}, "schedule 'generator' family must be a string, got 3"),
    "no-base": ({"family": "exponential"}, "exponential generator base must be a finite number > 1, got None"),
    "str-base": ({"family": "exponential", "base": "2"},
                 "exponential generator base must be a finite number > 1, got '2'"),
}


@pytest.mark.parametrize("generator, message", BAD_GENERATORS.values(), ids=BAD_GENERATORS.keys())
def test_schedule_and_the_loader_refuse_a_bad_generator_alike(generator, message):
    # at the parent, Schedule built all six and the loader refused only 5 and []; deficiency then died with
    # an AttributeError on 5, and a report's note read "from an infinite None schedule" on {}
    with pytest.raises(ValueError) as built:
        Schedule(2, 1, tuple(Contract(*row) for row in ALTERNATING), generator)
    with pytest.raises(ValueError) as loaded:
        schedule_from_dict({**schedule_to_dict(sched(2, 1, ALTERNATING)), "generator": generator})
    assert str(built.value) == str(loaded.value) == message


def test_schedule_keeps_a_copy_of_the_generator_it_checked():
    # at the parent the record kept the caller's dict, so deficiency read a base edited to "2" after the
    # check as float("2")
    generator = {"family": "exponential", "base": 2.0, "note": {"tags": ["a"]}}
    s = Schedule(2, 1, tuple(Contract(*row) for row in ALTERNATING), generator)
    generator["base"] = "2"
    generator["note"]["tags"].append("b")
    assert s.generator == {"family": "exponential", "base": 2.0, "note": {"tags": ["a"]}}


def test_json_document_shape():
    s = sched(2, 1, ALTERNATING)
    doc = schedule_to_dict(s)
    assert set(doc) == {"n", "m", "contracts"}
    assert doc["contracts"][0] == {"problem": 0, "processor": 0, "length": 1.0}
    assert schedule_from_dict(json.loads(json.dumps(doc))) == s


def test_loosely_typed_rows_load_as_the_exactly_typed_ones():
    # an integer length is made a float by Schedule's length rule, and a dict subclass reads as a dict
    rows = [{"problem": 0, "processor": 0, "length": 1.0}, {"problem": 1, "processor": 0, "length": 2.0}]
    exact = schedule_from_dict({"n": 2, "m": 1, "contracts": rows})
    for loose in ([rows[0], {**rows[1], "length": 2}], [collections.OrderedDict(rows[0]), rows[1]]):
        back = schedule_from_dict({"n": 2, "m": 1, "contracts": loose})
        assert back == exact
        assert [type(c.length) for c in back.contracts] == [float, float]
    built = Schedule(2, 1, [Contract(0, 0, 1), (1, 0, 2.0)])
    assert built == exact and [type(c) for c in built.contracts] == [Contract, Contract]
    assert [type(c.length) for c in built.contracts] == [float, float]


ROW = {"problem": 0, "processor": 0, "length": 1.0}

# a document lacking a member or a row's field, and which of two faults is named: "contracts" is read first, then
# n and m, then the rows in order
MISSING = {
    "contracts": ({"n": 1, "m": 1}, "schedule document missing key: 'contracts'"),
    "n": ({"m": 1, "contracts": [ROW]}, "schedule document missing key: 'n'"),
    "m": ({"n": 1, "contracts": [ROW]}, "schedule document missing key: 'm'"),
    "a-field": ({"n": 1, "m": 1, "contracts": [ROW, {"problem": 0, "length": 1.0}]},
                "schedule document missing key: 'processor'"),
    "contracts-before-n": ({"m": 1}, "schedule document missing key: 'contracts'"),
    "contracts-not-a-list-before-n": ({"m": 1, "contracts": 5}, "schedule 'contracts' must be a list, got int"),
    "n-before-m": ({"contracts": [ROW]}, "schedule document missing key: 'n'"),
    "bad-n-before-m": ({"n": 0, "contracts": [ROW]}, f"n must be an integer in [1, {sys.maxsize}], got 0"),
    "m-before-a-field": ({"n": 1, "contracts": [{"problem": 0}]}, "schedule document missing key: 'm'"),
    "m-before-a-row-not-an-object": ({"n": 1, "contracts": [5]}, "schedule document missing key: 'm'"),
    "a-field-before-a-row-not-an-object": ({"n": 1, "m": 1, "contracts": [{"problem": 0}, 5]},
                                           "schedule document missing key: 'processor'"),
    "a-row-not-an-object-before-a-field": ({"n": 1, "m": 1, "contracts": [ROW, 5, {"problem": 0}]},
                                           "contract 1 must be a JSON object, got int"),
}


@pytest.mark.parametrize("doc, message", MISSING.values(), ids=MISSING.keys())
def test_json_missing_key_raises(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        schedule_from_dict(doc)


def test_every_builder_makes_contracts_not_plain_tuples(tmp_path):
    # a plain (p, q, x) tuple compares equal to its Contract, so only the type tells them apart
    from contractsched import normalize


    s = exponential_schedule(ExponentialSpec(n=3, m=2, base=1.5, k_max=60))
    doc = schedule_to_dict(s)
    loose = json.loads(json.dumps(doc).replace('"length": 1.0}', '"length": 1}'))  # an int length: the checked path
    path = tmp_path / "s.json"
    save_schedule(s, path)
    built = {"exponential_schedule": s, "schedule_from_dict": schedule_from_dict(doc),
             "schedule_from_dict, int length": schedule_from_dict(loose), "load_schedule": load_schedule(path)}
    built["Schedule from plain tuples"] = Schedule(3, 2, [tuple(c) for c in s.contracts])
    one = Schedule(2, 1, [Contract(0, 0, 1.0), Contract(0, 0, 2.0), Contract(1, 0, 4.0)])
    trace = normalize(one)
    assert trace.steps
    built["normalize"] = trace.output
    built["random_schedule"] = random_schedule(random.Random(0), 3, 2, 30)
    assert loose["contracts"][0]["length"] == 1
    for name, schedule in built.items():
        assert schedule.contracts == s.contracts or name in ("normalize", "random_schedule")
        assert {type(c) for c in schedule.contracts} == {Contract}, name


def _rows():
    return [(0, 0, 1.0), (1, 1, 2.0), (0, 0, 4.0)]


ROW_FORMS = {
    "plain tuples": lambda: Schedule(2, 2, _rows()),
    "zip": lambda: Schedule(2, 2, zip(*zip(*_rows()))),
    "one-shot generator": lambda: Schedule(2, 2, (row for row in _rows())),
    "_replace": lambda: sched(2, 2, [(1, 0, 8.0)])._replace(contracts=_rows()),
}


@pytest.mark.parametrize("make", ROW_FORMS.values(), ids=ROW_FORMS.keys())
def test_schedule_makes_a_contract_of_every_row_whatever_the_caller_passes(make):
    # at the parent Schedule kept a plain tuple it was given, so .problem and schedule_to_dict raised AttributeError
    s = make()
    assert [type(c) for c in s.contracts] == [Contract] * 3
    assert [c.problem for c in s.contracts] == [0, 1, 0] and s.contracts[2].length == 4.0
    assert schedule_to_dict(s)["contracts"][1] == {"problem": 1, "processor": 1, "length": 2.0}
    assert schedule_from_dict(schedule_to_dict(s)) == s


WRONG_LENGTH_ROWS = {
    "short": ([(0, 0)], "contract 0 must be a (problem, processor, length) row, got (0, 0)"),
    "long": ([(0, 0, 1.0), (1, 0, 2.0, 3)],
             "contract 1 must be a (problem, processor, length) row, got (1, 0, 2.0, 3)"),
    "empty": ([(0, 0, 1.0), ()], "contract 1 must be a (problem, processor, length) row, got ()"),
    "bad field first": ([(5, 0, 1.0), (0, 0)], "contract 0: problem 5 out of range [0, 2)"),
}


@pytest.mark.parametrize("rows, message", WRONG_LENGTH_ROWS.values(), ids=WRONG_LENGTH_ROWS.keys())
def test_a_row_of_the_wrong_length_is_named_like_every_other_bad_contract(rows, message):
    # at the parent a short row raised "not enough values to unpack (expected 3, got 2)", naming no contract
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Schedule(2, 1, rows)


class _RowsBroke(Exception):
    pass


def _raising_rows():
    yield (0, 0, 1.0)
    raise _RowsBroke


def test_an_error_from_the_callers_rows_reaches_the_caller():
    with pytest.raises(_RowsBroke):
        Schedule(2, 1, _raising_rows())


# --- the split gate -------------------------------------------------------------------------------------


@pytest.mark.parametrize("items, least, cpus, want", [
    (19, 10, 3, 1),  # below two parts' worth of items
    (20, 10, 3, 2),
    (29, 10, 3, 2),
    (30, 10, 3, 3),
    (10**6, 10, 3, 3),
    (10**6, 10, 1, 1),  # one usable CPU
    (10**6, 1, 2, 2),
])
def test_one_function_decides_every_split(monkeypatch, items, least, cpus, want):
    # min(items // least, cpus), or 1 below 2 * least; core._cpus is the one seam for the usable CPUs
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    assert core._split_count(items, least) == want


def test_no_split_without_fork(monkeypatch):
    monkeypatch.setattr(core, "_cpus", lambda: 3)
    monkeypatch.delattr(os, "fork", raising=False)
    assert core._split_count(10**6, 10) == 1


def test_no_split_beside_a_second_thread(monkeypatch):
    # a fork copies only the calling thread and may leave another's locks held in the child
    monkeypatch.setattr(core, "_cpus", lambda: 3)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert core._split_count(10**6, 10) == 1
    finally:
        release.set()
        waiter.join(timeout=10)
    assert core._split_count(10**6, 10) == (3 if hasattr(os, "fork") else 1)
