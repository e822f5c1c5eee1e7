"""Metamorphic relations of the three measures: transformed schedules whose value the definitions fix.

Relabelling the problems or the processors, scaling every length by 2^j and
reordering the contracts while each processor keeps its order leave every
sorted snapshot at every window the same (scaled by 2^j), so each measure
must give the same ``value`` bit for bit and the same ``argmax_time``
(scaled by 2^j).  Appending a contract that finishes after every other one
adds a window and changes none, so it cannot lower the value of a prefix
that serves some window.  None of this needs a reference value, so it also
holds the long, split routes to the short, serial ones.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractsched import (
    Contract,
    ExponentialSpec,
    Schedule,
    acceleration_ratio,
    deficiency,
    exponential_schedule,
    performance_ratio,
    simulate,
)

from forks import assert_no_child_left, record_forks

MEASURES = {
    "acc": lambda s, samples: acceleration_ratio(s, samples=samples),
    "perf": lambda s, samples: performance_ratio(s, samples=samples),
    "exact": lambda s, samples: deficiency(s, samples=samples),
    "lpt": lambda s, samples: deficiency(s, solver="lpt", samples=samples),
}


def relabel_problems(s, perm):
    return Schedule(s.n_problems, s.m_processors, [Contract(perm[p], q, x) for p, q, x in s.contracts])


def relabel_processors(s, perm):
    return Schedule(s.n_problems, s.m_processors, [Contract(p, perm[q], x) for p, q, x in s.contracts])


def scale(s, j):
    return Schedule(s.n_problems, s.m_processors, [Contract(p, q, x * 2.0**j) for p, q, x in s.contracts])


def interleave(s, labels):
    """The contracts reordered so that their processors read ``labels``, each processor's own order kept."""
    queues = {q: iter([c for c in s.contracts if c.processor == q]) for q in range(s.m_processors)}
    return Schedule(s.n_problems, s.m_processors, [next(queues[q]) for q in labels])


@st.composite
def schedules(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    # small integers make finish times and snapshots tie; floats in [0.1, 10] keep 2^j scaling exact
    lengths = st.one_of(st.integers(1, 6).map(float), st.floats(0.1, 10.0))
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), lengths), min_size=1, max_size=14))
    return Schedule(n, m, [Contract(*row) for row in rows])


def value_and_argmax(report, factor=1.0):
    return report.value, None if report.argmax_time is None else report.argmax_time * factor


@pytest.mark.parametrize("samples", [False, True], ids=["value-only", "samples"])
@pytest.mark.parametrize("measure", MEASURES.values(), ids=MEASURES.keys())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(s=schedules(), data=st.data())
def test_the_value_survives_relabelling_scaling_and_reordering(measure, samples, s, data):
    n, m, k = s.n_problems, s.m_processors, len(s)
    expected = value_and_argmax(measure(s, samples))
    problems = data.draw(st.permutations(range(n)))
    processors = data.draw(st.permutations(range(m)))
    j = data.draw(st.integers(-20, 20))
    labels = [s.contracts[i].processor for i in data.draw(st.permutations(range(k)))]
    assert value_and_argmax(measure(relabel_problems(s, problems), samples)) == expected
    assert value_and_argmax(measure(relabel_processors(s, processors), samples)) == expected
    assert value_and_argmax(measure(scale(s, j), samples), 2.0**-j) == expected
    assert value_and_argmax(measure(interleave(s, labels), samples)) == expected


@pytest.mark.parametrize("samples", [False, True], ids=["value-only", "samples"])
@pytest.mark.parametrize("measure", MEASURES.values(), ids=MEASURES.keys())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(s=schedules(), data=st.data())
def test_a_contract_finishing_last_cannot_lower_the_value(measure, samples, s, data):
    before = measure(s, samples).value
    # every load is at most the last finish time, so this length finishes after it on any processor
    last = Contract(data.draw(st.integers(0, s.n_problems - 1)), data.draw(st.integers(0, s.m_processors - 1)),
                    max(simulate(s)) + data.draw(st.floats(0.1, 10.0)))
    after = measure(Schedule(s.n_problems, s.m_processors, [*s.contracts, last]), samples).value
    if math.isfinite(before):  # +inf stands for no served window, which the new window may serve
        assert after >= before


# A prefix above the LPT deficiency's split threshold, 2 * _PART_MIN windows, as in CI.
LONG = exponential_schedule(ExponentialSpec(n=4, m=2, base=1.004, k_max=25_000))


@pytest.mark.parametrize("workers", [2, 1], ids=["split", "serial"])
@pytest.mark.parametrize("measure", MEASURES.values(), ids=MEASURES.keys())
def test_the_long_value_only_routes_keep_the_relations(monkeypatch, measure, workers):
    forked = record_forks(monkeypatch, cpus=workers)
    expected = value_and_argmax(measure(LONG, False))
    # only the LPT deficiency splits: the exact one takes the bound-pruned route, and acc and perf run here
    assert len(forked) == (workers - 1) * (measure is MEASURES["lpt"])
    labels = [1] * (len(LONG) // 2) + [0] * (len(LONG) - len(LONG) // 2)
    variants = [(relabel_problems(LONG, [2, 0, 3, 1]), 1.0), (relabel_processors(LONG, [1, 0]), 1.0),
                (scale(LONG, -3), 8.0), (interleave(LONG, labels), 1.0)]
    for variant, factor in variants:
        assert value_and_argmax(measure(variant, False), factor) == expected
    longer = Schedule(4, 2, [*LONG.contracts, Contract(0, 0, 2 * max(simulate(LONG)))])
    assert measure(longer, False).value >= expected[0]
    assert_no_child_left()
