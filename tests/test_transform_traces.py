"""Pinned traces of ``normalize`` and ``reduce_consecutive_pairs``.

The SHA-256 digests below were recorded from seeded schedules built like
the inputs of ``verify`` check C09 (one processor, n from 2 to 4, k up to
12).  Every step is kept with its kind, index, start time, problems, rule
and both deficiencies as ``float.hex``, together with the output contracts
and the run outcomes, so any change to a decision, a step record or a
deficiency value, down to the last bit, changes a digest.  The two-problem
share reaches both a ``direct`` removal and a blocked run.

The third stream pins ties: its schedules mix contracts of length 1e20 or
3e20 with short ones, so a short contract after a long one is absorbed by
the running load and several contracts finish at the same float.  It
normalizes every schedule and reduces the two-problem ones.
"""

import hashlib
import random

from contractsched import Contract, Schedule, normalize, reduce_consecutive_pairs, simulate
from contractsched.verification import random_schedule

NORMALIZE_SEED, NORMALIZE_SCHEDULES = 7, 600
PAIR_SEED, PAIR_SCHEDULES = 31, 300  # this stream reaches a direct removal and a blocked run early
TIED_SEED, TIED_SCHEDULES = 5, 1500

NORMALIZE_DIGEST = "d1fd9699c41ca81f446c54091c273c685bffb34023864f925905bde72156f6b8"
REDUCE_DIGEST = "5cc8965572dc068f1000055d8a9c41d30709eaf487ccb5a6e2f3a8d85c606cce"
TIED_DIGEST = "e7c7e3a7ceb213bb168ed59badfc194f5f5d9839234569a23a76693c6424bccb"


def _record(trace) -> str:
    steps = [
        (s.kind, s.index, s.time.hex(), s.problems, s.rule, s.deficiency_before.hex(), s.deficiency_after.hex())
        for s in trace.steps
    ]
    output = [(c.problem, c.processor, c.length.hex()) for c in trace.output.contracts]
    outcomes = [(o.start_index, o.length, o.action) for o in trace.run_outcomes]
    return repr((steps, output, outcomes))


def _digest(records: list[str]) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def absorbed_schedule(rng: random.Random, n: int, k: int) -> Schedule:
    """One processor, every problem served once first, lengths mixing 1e20 and 3e20 with short ones.

    After a 1e20 contract the running load absorbs a 0.5, 1.0 or 2.0 whole,
    so the finish times of the contracts that follow repeat.
    """
    problems = list(range(n))
    rng.shuffle(problems)
    while len(problems) < k:
        problems.append(rng.randrange(n))
    lengths = []
    for _ in problems:
        r = rng.random()
        if r < 0.15:
            lengths.append(rng.choice((1e20, 3e20)))
        elif r < 0.55:
            lengths.append(rng.choice((0.5, 1.0, 2.0)))
        else:
            lengths.append(rng.uniform(0.1, 10.0))
    return Schedule(n, 1, [Contract(p, 0, length) for p, length in zip(problems, lengths)])


def _tied_traces():
    traces, tied = [], 0
    rng = random.Random(TIED_SEED)
    for i in range(TIED_SCHEDULES):
        n = rng.randint(2, 4) if i % 2 else 2
        s = absorbed_schedule(rng, n, rng.randint(n + 2, 12))
        fins = simulate(s)
        tied += len(set(fins)) < len(fins)
        trace = normalize(s)
        traces.append(trace)
        if n == 2:
            traces.append(reduce_consecutive_pairs(trace.output))
    return traces, tied


def _traces():
    normalized, reduced = [], []
    rng = random.Random(NORMALIZE_SEED)
    for i in range(NORMALIZE_SCHEDULES):
        n = rng.randint(2, 4)
        s = random_schedule(rng, n, 1, rng.randint(n + 2, 12), permutation_prefix=i % 2 == 0)
        normalized.append(normalize(s))
    rng = random.Random(PAIR_SEED)
    for _ in range(PAIR_SCHEDULES):
        s = random_schedule(rng, 2, 1, rng.randint(4, 12), permutation_prefix=True)
        trace = normalize(s)
        normalized.append(trace)
        reduced.append(reduce_consecutive_pairs(trace.output))
    return normalized, reduced


def test_transform_traces_match_pinned_digests():
    normalized, reduced = _traces()
    rules = {s.rule for t in reduced for s in t.steps}
    actions = {o.action for t in reduced for o in t.run_outcomes}
    kinds = {s.kind for t in normalized for s in t.steps}
    # the inputs reach every kind of step and outcome the digests pin
    assert kinds == {"remove-dominated", "swap-assignment"}
    assert {"q-test", "direct"} <= rules
    assert "removed" in actions and actions - {"removed"}
    assert _digest([_record(t) for t in normalized]) == NORMALIZE_DIGEST
    assert _digest([_record(t) for t in reduced]) == REDUCE_DIGEST


def test_tied_transform_traces_match_pinned_digest():
    traces, tied = _tied_traces()
    kinds = {s.kind for t in traces for s in t.steps}
    # most schedules repeat a finish time, and every kind of step is reached
    assert tied > TIED_SCHEDULES // 2
    assert kinds == {"remove-dominated", "swap-assignment", "remove-consecutive"}
    assert _digest([_record(t) for t in traces]) == TIED_DIGEST
