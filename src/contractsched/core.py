"""Domain types for contract-algorithm schedules on identical processors.

A schedule interleaves executions of contract algorithms (fixed-duration runs,
each serving one problem) on ``m`` identical processors.  Every processor runs
its contracts back-to-back starting at time 0, with no idle time.  The state
relevant to an interruption at time ``t`` is the snapshot: for each problem,
the length of the longest contract completed by ``t``.

Interruptions "right before" a contract finishes are represented exactly, by
taking the snapshot at the finish time with every contract finishing at that
time excluded, rather than through floating-point epsilon arithmetic.  Two
finish times tie only when they are the same float.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

@dataclass(frozen=True)
class Contract:
    """One execution unit: a run of a given length for one problem on one processor."""

    problem: int
    processor: int
    length: float


@dataclass(frozen=True)
class Schedule:
    """A finite prefix of a (possibly infinite) schedule of contracts.

    Contracts are stored in global execution order.  ``generator`` optionally
    records the rule that produced the prefix (e.g. an exponential family),
    which lets evaluators report analytic limits next to empirical suprema.
    """

    n_problems: int
    m_processors: int
    contracts: tuple[Contract, ...]
    generator: dict | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "contracts", tuple(self.contracts))
        if self.n_problems < 1:
            raise ValueError(f"n_problems must be >= 1, got {self.n_problems}")
        if self.m_processors < 1:
            raise ValueError(f"m_processors must be >= 1, got {self.m_processors}")
        for idx, c in enumerate(self.contracts):
            if not (0 <= c.problem < self.n_problems):
                raise ValueError(f"contract {idx}: problem {c.problem} out of range [0, {self.n_problems})")
            if not (0 <= c.processor < self.m_processors):
                raise ValueError(f"contract {idx}: processor {c.processor} out of range [0, {self.m_processors})")
            if not (c.length > 0.0 and math.isfinite(c.length)):
                raise ValueError(f"contract {idx}: length must be positive and finite, got {c.length}")

    def __len__(self) -> int:
        return len(self.contracts)

    def processor_queues(self) -> list[list[int]]:
        """Contract indices per processor, in execution order."""
        queues: list[list[int]] = [[] for _ in range(self.m_processors)]
        for idx, c in enumerate(self.contracts):
            queues[c.processor].append(idx)
        return queues


@dataclass(frozen=True)
class Snapshot:
    """Per-problem longest completed contract lengths at an interruption time.

    ``longest[p]`` is 0.0 when problem ``p`` has no completed contract, in
    which case the snapshot is incomplete and ratio measures evaluate to
    +infinity at this time.
    """

    t: float
    longest: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "longest", tuple(self.longest))

    @property
    def sorted(self) -> tuple[float, ...]:
        return tuple(sorted(self.longest))

    @property
    def complete(self) -> bool:
        """True if every problem has at least one completed contract."""
        return all(v > 0.0 for v in self.longest)


def simulate(schedule: Schedule) -> list[tuple[int, float]]:
    """Finish time of every contract, as (contract index, finish time) pairs.

    Each processor executes its queue back-to-back from time 0, so a
    contract's finish time is the running load of its processor.  Raises
    ValueError if a processor's load overflows the float range.
    """
    loads = [0.0] * schedule.m_processors
    out: list[tuple[int, float]] = []
    for idx, c in enumerate(schedule.contracts):
        loads[c.processor] += c.length
        out.append((idx, loads[c.processor]))
    # loads only grow, so checking the final ones covers every finish time
    for processor, load in enumerate(loads):
        if not math.isfinite(load):
            raise ValueError(f"finish times on processor {processor} overflow the float range")
    return out


def critical_times(schedule: Schedule) -> list[float]:
    """Sorted distinct contract finish times, as simulated.

    These are the only interruption times that matter for suprema of the
    ratio measures: between two consecutive finish times the snapshot is
    constant while the numerator grows.
    """
    fins = sorted(f for _, f in simulate(schedule))
    return fins[:1] + [f for prev, f in zip(fins, fins[1:]) if f != prev]


def snapshots_before(schedule: Schedule, times: Iterable[float]) -> Iterator[tuple[float, ...]]:
    """Per-problem longest lengths completed strictly before each t, by one sweep.

    ``times`` must be ascending (repeats allowed).  Yields one tuple per t,
    in problem-index order.  A contract counts for t when its simulated
    finish time is a float below t, so all contracts finishing at exactly t
    are excluded together.  The schedule is simulated once and its
    finish events sorted once, so k contracts cost O(k log k + k n) for any
    number of times.  The results are yielded rather than listed so that a
    caller keeping only something derived from each snapshot (a sorted copy,
    a sum) never holds them all; on a 100k-contract prefix a list would add
    100k live tuples for the garbage collector to track.
    """
    events = sorted(
        ((fin, c.problem, c.length) for c, (_, fin) in zip(schedule.contracts, simulate(schedule))),
        key=lambda e: e[0],
    )
    longest = [0.0] * schedule.n_problems
    pos, end, prev = 0, len(events), -math.inf
    for t in times:
        if t < prev:
            raise ValueError(f"interruption times must be ascending, got {t} after {prev}")
        prev = t
        while pos < end and events[pos][0] < t:
            _, problem, length = events[pos]
            if length > longest[problem]:
                longest[problem] = length
            pos += 1
        yield tuple(longest)


def snapshot(schedule: Schedule, t: float) -> Snapshot:
    """Snapshot at time t; contracts finishing exactly at t count as completed."""
    if not t > 0.0:
        raise ValueError(f"interruption time must be positive, got {t}")
    # a float finishes at or before t exactly when it finishes before the next float above t
    (longest,) = snapshots_before(schedule, [math.nextafter(t, math.inf)])
    return Snapshot(t=t, longest=longest)


def snapshot_before(schedule: Schedule, t: float) -> Snapshot:
    """Snapshot right before t: contracts finishing at exactly t are excluded.

    This realizes interruption "right before" a finish time exactly; all
    contracts tied at t are excluded together.
    """
    if not t > 0.0:
        raise ValueError(f"interruption time must be positive, got {t}")
    (longest,) = snapshots_before(schedule, [t])
    return Snapshot(t=t, longest=longest)


# ---------------------------------------------------------------------------
# JSON schedule format
#
# {"n": int, "m": int, "contracts": [{"problem": int, "processor": int,
#  "length": float}, ...]} in global execution order, plus an optional
# "generator" object, written compact on one line.  Round-trips are
# value-exact (Python's json module serializes floats via repr, which is
# lossless for binary64).
# ---------------------------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> dict:
    doc: dict = {
        "n": schedule.n_problems,
        "m": schedule.m_processors,
        "contracts": [
            {"problem": c.problem, "processor": c.processor, "length": c.length}
            for c in schedule.contracts
        ],
    }
    if schedule.generator is not None:
        doc["generator"] = schedule.generator
    return doc


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is outside the float range") from None


def schedule_from_dict(doc: dict) -> Schedule:
    """Parse a schedule document, raising ValueError on any malformed field.

    Integer fields (``n``, ``m``, ``problem``, ``processor``) must be JSON
    integers: floats and booleans are rejected rather than truncated.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"schedule document must be a JSON object, got {type(doc).__name__}")
    try:
        rows = doc["contracts"]
        if not isinstance(rows, list):
            raise ValueError(f"schedule 'contracts' must be a list, got {type(rows).__name__}")
        contracts = []
        for idx, c in enumerate(rows):
            if not isinstance(c, dict):
                raise ValueError(f"contract {idx} must be a JSON object, got {type(c).__name__}")
            problem, processor, length = c["problem"], c["processor"], c["length"]
            # exact-type fast path: calling the helpers on every field made a 100k-contract load 1.6x slower
            if type(problem) is not int or type(processor) is not int or type(length) is not float:
                problem = _integer(problem, f"contract {idx}: problem")
                processor = _integer(processor, f"contract {idx}: processor")
                length = _number(length, f"contract {idx}: length")
            contracts.append(Contract(problem, processor, length))
        generator = doc.get("generator")
        if generator is not None and not isinstance(generator, dict):
            raise ValueError(f"schedule 'generator' must be a JSON object, got {type(generator).__name__}")
        return Schedule(
            n_problems=_integer(doc["n"], "n"),
            m_processors=_integer(doc["m"], "m"),
            contracts=tuple(contracts),
            generator=generator,
        )
    except KeyError as exc:
        raise ValueError(f"schedule document missing key: {exc}") from exc


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    # compact separators keep json on its C encoder; indent= would force the pure-Python one
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), separators=(",", ":")) + "\n", encoding="utf-8")


def load_schedule(path: str | Path) -> Schedule:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(f"schedule file {path} nests too deeply to parse") from None
    return schedule_from_dict(doc)
