"""Domain types for contract-algorithm schedules on identical processors.

A schedule interleaves executions of contract algorithms (fixed-duration runs,
each serving one problem) on ``m`` identical processors.  Every processor runs
its contracts back-to-back starting at time 0, with no idle time.  The state
relevant to an interruption at time ``t`` is the snapshot: for each problem,
the length of the longest contract completed by ``t``, as a tuple in
problem-index order (0.0 for a problem with nothing completed).
``simulate`` gives each contract's finish time, in contract order, and
``snapshots_before`` reads every snapshot a measure needs in one sweep.

Interruptions "right before" a contract finishes are represented exactly, by
taking the snapshot at the finish time with every contract finishing at that
time excluded, rather than through floating-point epsilon arithmetic.  Two
finish times tie only when they are the same float.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
from bisect import bisect_left
from itertools import chain, compress, repeat, zip_longest
from operator import itemgetter, ne
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class Contract(NamedTuple):
    """One execution unit: a run of a given length for one problem on one processor.

    A named tuple: it compares equal to the plain tuple of its fields.  A
    ``Schedule`` stores its contracts as columns and builds them only when
    its ``contracts`` row view is read.
    """

    problem: int
    processor: int
    length: float


# sets a field from a record's __init__, past the __setattr__ that refuses assignment; one module-level
# name, since looking up object.__setattr__ again for every field adds measurably to the hot records
_init_field = object.__setattr__


class _Record:
    """Base of the package's records: an immutable set of named fields.

    A subclass names its fields, in order, in ``__slots__ = _fields = (...)``,
    and the defaults of the last ones in ``_defaults``.  The base gives what
    a frozen dataclass gives, without importing ``dataclasses`` (which loads
    ``inspect`` and ``ast`` into every process): assigning or deleting a
    field raises AttributeError, two records are equal when they are of the
    same class with equal fields, the repr is ``Name(field=value, ...)``, and
    the hash is that of the field tuple (a record with a dict field, such as
    ``Schedule.generator`` or ``BoundReport.params``, cannot be hashed, and
    the dict is not frozen).  A subclass with no ``__init__`` in its class
    chain gets one compiled from ``_fields``, as ``namedtuple`` compiles its
    ``__new__``: one ``_init_field`` line per field, what a written-out
    ``__init__`` runs, so it is as fast (a loop over ``_fields`` measured
    slower on the tens of thousands of records ``verify`` builds).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        if cls.__init__ is object.__init__:
            fields = cls._fields
            body = "".join(f"\n _init_field(self, {name!r}, {name})" for name in fields) or " pass"
            namespace = {"_init_field": _init_field, "__name__": cls.__module__}
            exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
            init = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            # a KeyError unless the defaults are those of the last fields
            init.__defaults__ = tuple(cls._defaults[name] for name in fields[len(fields) - len(cls._defaults):])
            cls.__init__ = init

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild the record through __init__, since its __setattr__ refuses
        return self.__class__, self._values()

    def _replace(self, **changes):
        """A new record of the same class with the given fields changed, validated by ``__init__``."""
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))

    def _asdict(self) -> dict:
        """Field name -> value; records, lists, tuples and dicts inside are copied the same way."""
        return {name: _plain(value) for name, value in zip(self._fields, self._values())}


def _plain(value):
    if isinstance(value, _Record):
        return value._asdict()
    if isinstance(value, list):
        return list(map(_plain, value))
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _count(value: int, what: str) -> int:
    """``value`` if it is a problem or processor count, an ``int`` in [1, sys.maxsize], else a ValueError.

    The one rule for every n and m the package takes, checked before any
    arithmetic on them: a per-problem list longer than sys.maxsize cannot be
    indexed, and a count in range converts to a float in every closed form.
    A float or a bool is refused even when its value is in range: 2.5 would
    size no list and give a bound for no problem count.
    """
    if type(value) is not int or not 1 <= value <= sys.maxsize:
        raise ValueError(f"{what} must be an integer in [1, {sys.maxsize}], got {value}")
    return value


def _base(value: float, what: str) -> float:
    """``value``, unchanged, if it is a base: an ``int`` or ``float`` (no bool) in (1, sys.float_info.max]."""
    if type(value) not in (int, float) or not 1.0 < value <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number > 1, got {value!r}")
    return value


def _index(value: int, bound: int, what: str) -> int:
    """``value`` if it is a problem or processor index, an ``int`` (no bool) in [0, bound), else a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not 0 <= value < bound:
        raise ValueError(f"{what} {value} out of range [0, {bound})")
    return value


def _length(value: float, what: str) -> float:
    """``value`` as a float if it is a length: an ``int`` or ``float`` (no bool), positive and finite.

    The one rule for contract lengths, job sizes and interruption times.
    Anything else is a ValueError, an integer too large for a float included.
    """
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{what} is outside the float range") from None
    if not 0.0 < value < math.inf:  # also false for NaN
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return value


def _cpus() -> int:
    """The usable CPUs: this process's affinity mask where the platform has one, else ``os.cpu_count()``."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _split_count(items: int, least: int) -> int:
    """The parts a task of this many items runs in, each of about ``least`` or more: the one rule for every split.

    One below two parts' worth of items, so a short task never imports ``_parts`` or ``threading``.  Past that,
    one per usable CPU (``_cpus``), at most ``items // least``, where ``os.fork`` exists and this process runs a
    single thread: a fork copies only the calling thread and may leave another's locks held in the child.  A
    native library's threads are not counted; a child stuck on their locks is caught by ``_parts._in_parts``.
    """
    if items < 2 * least or not hasattr(os, "fork"):
        return 1
    count = min(items // max(least, 1), _cpus())
    if count < 2:
        return 1
    import threading

    return count if threading.active_count() == 1 else 1


def _split(run: Callable[[int, int], object], items: int, least: int) -> list:
    """``run(lo, hi)`` for each of ``_split_count(items, least)`` contiguous ranges of ``range(items)``, in order.

    The ranges are of equal count, within one item (``_parts._cuts``), and
    run side by side through ``_parts._in_parts``, so each part must be
    ``marshal``-able; a single range runs here, and ``_parts`` is not
    imported.
    """
    count = _split_count(items, least)
    if count > 1:
        from ._parts import _cuts, _in_parts

        cuts = _cuts(items, count)
        return _in_parts(run, list(zip(cuts, cuts[1:])))
    return [run(0, items)]


def _fits(n: int, m: int, problems: tuple, processors: tuple, lengths: tuple) -> bool:
    """Whether every contract of the columns is good as stored: ``Schedule``'s check, one fused test per contract.

    The types are tested first, since an int and a str do not compare, and ``0.0 < x < inf`` is false for NaN.
    """
    if not len(problems) == len(processors) == len(lengths):
        return False
    inf = math.inf
    for p, q, x in zip(problems, processors, lengths):
        if not (type(p) is int and type(q) is int and type(x) is float and 0 <= p < n and 0 <= q < m and 0.0 < x < inf):
            return False
    return True


class Schedule(_Record):
    """A finite prefix of a (possibly infinite) schedule of contracts.

    Contracts are stored in global execution order as three columns: the tuples ``problems`` and ``processors``
    of ints and ``lengths`` of floats.  ``contracts``, the field that ``repr``, equality, hashing, pickling,
    ``_replace`` and ``_asdict`` read, is a row view: a tuple of ``Contract``s built on each read (milliseconds on
    a 100k-contract prefix; the library reads the columns).  ``generator`` optionally records the rule that
    produced the prefix (e.g. an exponential family), which lets evaluators report analytic limits next to
    empirical suprema.  ``contracts`` is any iterable of (problem, processor, length) rows, read once and
    transposed; the loaders and the generator hand over columns (``_of``).  Either way they are checked here and
    nowhere else, by one fused test per contract (``_fits``), and where that fails one contract at a time: three fields,
    problem and processor by ``_index``, length by ``_length`` (an int length is stored as a float); a
    ValueError names the first bad field of the first bad contract.  So is the generator: ``None``, or a dict
    whose ``"family"`` is a ``str``, with a ``"base"`` that obeys ``_base`` if it is ``"exponential"``.
    """

    __slots__ = ("n_problems", "m_processors", "problems", "processors", "lengths", "generator")
    _fields = ("n_problems", "m_processors", "contracts", "generator")

    def __init__(self, n_problems: int, m_processors: int, contracts: Iterable[Iterable],
                 generator: dict | None = None) -> None:
        self._set(n_problems, m_processors, None, contracts, generator)

    @classmethod
    def _of(cls, n_problems: int, m_processors: int, columns: Iterable[Iterable],
            generator: dict | None = None) -> Schedule:
        """The schedule of the (problems, processors, lengths) ``columns``, iterables read once: the loaders' entry."""
        self = cls.__new__(cls)
        self._set(n_problems, m_processors, columns, None, generator)
        return self

    def _set(self, n_problems: int, m_processors: int, columns: Iterable[Iterable] | None,
             rows: Iterable[Iterable] | None, generator: dict | None) -> None:
        n, m = _count(n_problems, "n_problems"), _count(m_processors, "m_processors")
        if columns is None:
            rows = tuple(map(tuple, rows))
            # a row of other than three fields leaves other than three columns, or a None that no check passes
            columns = tuple(zip_longest(*rows)) or ((), (), ())
        columns = tuple(map(tuple, columns))
        if len(columns) != 3 or not _fits(n, m, *columns):
            checked = []  # one contract at a time, so the ValueError names the first bad field of the first bad one
            for i, row in enumerate(zip_longest(*columns) if rows is None else rows):
                if len(row) != 3:
                    raise ValueError(f"contract {i} must be a (problem, processor, length) row, got {row!r}")
                p, q, x = row
                checked.append((_index(p, n, f"contract {i}: problem"), _index(q, m, f"contract {i}: processor"),
                                _length(x, f"contract {i}: length")))
            columns = tuple(zip(*checked))
        if generator is not None:
            if not isinstance(generator, dict):
                raise ValueError(f"schedule 'generator' must be a JSON object, got {type(generator).__name__}")
            generator = _plain(generator)  # a deep copy: the caller's dict may change after this check
            family = generator.get("family")
            if type(family) is not str:
                raise ValueError(f"schedule 'generator' family must be a string, got {family!r}")
            if family == "exponential":
                _base(generator.get("base"), "exponential generator base")
        for name, value in zip(self.__slots__, (n, m, *columns, generator)):
            _init_field(self, name, value)

    @property
    def contracts(self) -> tuple[Contract, ...]:
        """The row view: a ``Contract`` per contract, built from the columns in one C-level map on each read."""
        return tuple(map(tuple.__new__, repeat(Contract), zip(self.problems, self.processors, self.lengths)))

    def __len__(self) -> int:
        return len(self.lengths)


def simulate(schedule: Schedule) -> list[float]:
    """Finish time of every contract: entry i is the finish time of contract i.

    Each processor executes its queue back-to-back from time 0, so a
    contract's finish time is the running load of its processor.  Raises
    ValueError if a processor's load overflows the float range.
    """
    return _finish_times(schedule.processors, schedule.lengths, [0.0] * schedule.m_processors)


def _finish_times(processors: Iterable[int], lengths: Iterable[float], loads: list[float]) -> list[float]:
    """The one finish-time loop: ``simulate`` for contracts run after the per-processor ``loads``.

    Entry i is the finish time of the i-th contract, ``lengths[i]`` added to
    the running load of processor ``processors[i]``; ``loads`` is updated in
    place.  From all-zero loads this is ``simulate``.  Raises ValueError if a
    load overflows the float range.
    """
    out: list[float] = []
    for p, x in zip(processors, lengths):
        loads[p] += x
        out.append(loads[p])
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
    return _critical_times(sorted(simulate(schedule)))


def _critical_times(ascending: list[float]) -> list[float]:
    """``critical_times`` from the finish times ``simulate`` gave, sorted."""
    # equal finish times are neighbours once sorted: keep each one that differs from its predecessor
    # (NaN, unequal to everything, stands before the first), with no hashing and no Python code per time
    return list(compress(ascending, map(ne, ascending, chain((math.nan,), ascending))))


def _ranked(fins: Sequence[float]) -> list[int]:
    """Contract indices by finish time, ties in contract order: the order ``_sweep`` completes contracts in."""
    return sorted(range(len(fins)), key=fins.__getitem__)


def snapshots_before(schedule: Schedule, times: Iterable[float]) -> Iterator[tuple[float, ...]]:
    """Per-problem longest lengths completed strictly before each t, by one sweep.

    Each t obeys ``_length`` (an int is read as a float), and ``times`` must
    be ascending (repeats allowed).  Yields one tuple per t,
    in problem-index order.  A contract counts for t when its simulated
    finish time is a float below t, so all contracts finishing at exactly t
    are excluded together.  The schedule is simulated once and its contract
    indices ranked once (``_ranked``), so k contracts cost O(k log k + k n)
    for any number of times.  The results are yielded rather than listed so
    that a caller keeping only something derived from each snapshot (a
    sorted copy, a sum) never holds them all; on a 100k-contract prefix a
    list would add 100k live tuples for the garbage collector to track.
    """
    fins = simulate(schedule)
    return _sweep(schedule.problems, schedule.lengths, schedule.n_problems, fins,
                  (_length(t, "interruption time") for t in times), _ranked(fins))


def _sweep(problems: Sequence[int], lengths: Sequence[float], n: int, fins: Sequence[float], times: Iterable[float],
           order: Sequence[int], start: int | None = None,
           longest: Sequence[float] | None = None) -> Iterator[tuple[float, ...]]:
    """The one sweep: ``snapshots_before`` of contracts given as columns, at checked times.

    The columns need not be a ``Schedule``'s: contract i, of problem
    ``problems[i]`` and length ``lengths[i]``, finishes at ``fins[i]``, so a
    caller holding columns and their finish times (``_finish_times``) sweeps
    them without building a schedule.  ``order`` is ``_ranked(fins)``, which
    every caller supplies; on one processor it is the contract order.

    The sweep alone decides where it starts, tied finish times included.
    A caller's rank position ``start`` is taken only if every contract
    ranked before it finishes before the first time, with ``longest``, each
    problem's longest length over ``order[:start]`` (not changed), and the
    walk over those contracts is skipped.  Otherwise, or with no ``start``,
    the sweep starts at ``bisect_left`` of the first time in the ranked
    finish times and reads the longest lengths before it from the length
    column alone.  Each time is read only when the sweep reaches it.
    """
    times = iter(times)
    first = next(times, None)
    if first is None:
        return
    if start is None or start and not fins[order[start - 1]] < first:
        start, longest = bisect_left(order, first, key=fins.__getitem__), None
    if longest is not None:
        longest = list(longest)
    else:
        longest = [0.0] * n
        if start:  # a sweep from the first position, the usual one, copies no ranks here
            head = order[:start]
            for problem, length in zip(map(problems.__getitem__, head), map(lengths.__getitem__, head)):
                if length > longest[problem]:
                    longest[problem] = length
    pos, end, prev = start, len(order), -math.inf
    for t in chain((first,), times):
        if not t >= prev:
            raise ValueError(f"interruption times must be ascending, got {t} after {prev}")
        prev = t
        while pos < end and fins[order[pos]] < t:
            i = order[pos]
            problem, length = problems[i], lengths[i]
            if length > longest[problem]:
                longest[problem] = length
            pos += 1
        yield tuple(longest)


def snapshot(schedule: Schedule, t: float) -> tuple[float, ...]:
    """Per-problem longest lengths at time t; contracts finishing exactly at t count as completed."""
    # finishing at or before t is finishing before the next float above t: inf after sys.float_info.max,
    # which snapshots_before would refuse, so the sweep is read directly
    t = math.nextafter(_length(t, "interruption time"), math.inf)
    fins = simulate(schedule)
    return next(_sweep(schedule.problems, schedule.lengths, schedule.n_problems, fins, [t], _ranked(fins)))


def snapshot_before(schedule: Schedule, t: float) -> tuple[float, ...]:
    """Per-problem longest lengths right before t: contracts finishing at exactly t are excluded.

    This realizes interruption "right before" a finish time exactly; all
    contracts tied at t are excluded together.
    """
    (longest,) = snapshots_before(schedule, [t])
    return longest


# ---------------------------------------------------------------------------
# JSON schedule format
#
# {"n": int, "m": int, "generator": {...}, "contracts": [{"problem": int,
#  "processor": int, "length": float}, ...]}, the "generator" optional and
# the contracts in global execution order, written compact on one line.
# Round-trips are value-exact (Python's json module serializes floats via
# repr, which is lossless for binary64).
# ---------------------------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> dict:
    """The schedule as its JSON document: "n", "m", the "generator" if there is one, and "contracts", last."""
    doc: dict = {"n": schedule.n_problems, "m": schedule.m_processors}
    if schedule.generator is not None:
        doc["generator"] = schedule.generator
    doc["contracts"] = [{"problem": p, "processor": q, "length": x}
                        for p, q, x in zip(schedule.problems, schedule.processors, schedule.lengths)]
    return doc


# a row's fields, and one getter per column: schedule_from_dict maps each over the rows
_ROW_FIELDS = itemgetter("problem", "processor", "length")
_COLUMN_FIELDS = tuple(map(itemgetter, ("problem", "processor", "length")))


def schedule_from_dict(doc: dict) -> Schedule:
    """Parse a schedule document, raising ValueError on any malformed field.

    ``n`` and ``m`` are counts (``_count``), and each contract's fields are
    checked by ``Schedule``: ``problem`` and ``processor`` must be JSON
    integers (floats and booleans are rejected rather than truncated) and
    ``length`` a positive finite number.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"schedule document must be a JSON object, got {type(doc).__name__}")
    try:
        rows = doc["contracts"]
        if not isinstance(rows, list):
            raise ValueError(f"schedule 'contracts' must be a list, got {type(rows).__name__}")
        n, m = _count(doc["n"], "n"), _count(doc["m"], "m")
        try:
            # three maps read the columns, so a well-formed 100k-contract file runs no Python code per contract here
            return Schedule._of(n, m, [map(field, rows) for field in _COLUMN_FIELDS], doc.get("generator"))
        except (KeyError, TypeError):
            list(map(_ROW_FIELDS, rows))  # raises again at the first row, in row order, lacking a field or no dict
            raise
    except KeyError as exc:  # "contracts", "n" or "m" is missing, or a row lacks a field
        raise ValueError(f"schedule document missing key: {exc}") from exc
    except TypeError:  # a row that is not a dict cannot be indexed by a field name
        idx, row = next((idx, row) for idx, row in enumerate(rows) if not isinstance(row, dict))
        raise ValueError(f"contract {idx} must be a JSON object, got {type(row).__name__}") from None


# one contract row as json.dumps writes it (json writes a float by its repr)
_ROW = '{"problem":%d,"processor":%d,"length":%r}'

# Contract rows ``save_schedule`` joins into one string before writing them.
_BLOCK = 1024


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    """Write ``schedule_to_dict(schedule)`` as compact JSON on one line.

    The bytes are those of ``json.dumps(..., separators=(",", ":"))``, which
    writes only ASCII, and a newline.  The contract rows go through one
    format string instead of a dict each, which takes about a fifth less
    time on a 100k-contract prefix.  They are written ``_BLOCK`` rows at a
    time, so the text of the whole file is never held: on that prefix it is
    5.9 MB.  The file is truncated before the first row is formatted, so a
    save interrupted or failing part way leaves a partial file at ``path``,
    not the one that was there before.
    """
    head = {"n": schedule.n_problems, "m": schedule.m_processors}
    if schedule.generator is not None:
        head["generator"] = schedule.generator
    columns = schedule.problems, schedule.processors, schedule.lengths
    with open(path, "wb") as out:
        out.write((json.dumps(head, separators=(",", ":"))[:-1] + ',"contracts":[').encode())
        for start in range(0, len(schedule), _BLOCK):
            block = ",".join(map(_ROW.__mod__, zip(*(column[start:start + _BLOCK] for column in columns))))
            out.write((("," if start else "") + block).encode())
        out.write(b"]}\n")


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule file written by ``save_schedule`` (or by hand), checked as ``schedule_from_dict`` checks it.

    The text is parsed by one ``json.loads``.  The cyclic garbage collector
    is paused while the JSON is parsed and the columns are read: the dicts
    and lists made there form no cycle, yet on a 100k-contract file the
    collections they trigger take about a fifth of the load.  The caller's
    collector state is restored however the load ends, and a collector the
    caller disabled stays so.  The file's text is released as soon as it is
    parsed, before ``Schedule`` reads its columns from the rows.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError(f"schedule file {path} nests too deeply to parse") from None
        del text
        return schedule_from_dict(doc)
    finally:
        if collecting:
            gc.enable()
