"""``Schedule``'s columns, and the surface its row view keeps.

A schedule stores three tuples, ``problems``, ``processors`` and
``lengths``; ``contracts`` is a row view of ``Contract``s built on each
read.  The literals below were recorded when ``Schedule`` still stored one
``Contract`` per row, so they pin that the records read the same either way:
repr, equality, hash, pickle, copy, ``_replace``, ``_asdict`` and ``len``.
"""

import copy
import gc
import hashlib
import json
import os
import pickle

import pytest

from contractsched import (
    Contract,
    ExponentialSpec,
    Schedule,
    exponential_schedule,
    load_schedule,
    save_schedule,
)
from contractsched.cli import main

ONE_FILE = ('{"n":2,"m":2,"contracts":[{"problem":1,"processor":0,"length":3.0},'
            '{"problem":0,"processor":1,"length":0.5},{"problem":1,"processor":1,"length":7}]}')


def load_text(tmp_path, text):
    path = tmp_path / "s.json"
    path.write_text(text, encoding="utf-8")
    return load_schedule(path)


BUILDERS = {
    "rows": lambda tmp_path: Schedule(3, 2, [(0, 0, 1.0), (1, 1, 2.5), (2, 0, 4.0), (0, 1, 0.125)]),
    "int length": lambda tmp_path: Schedule(2, 1, [(0, 0, 1), (1, 0, 2.0)]),
    "exponential": lambda tmp_path: exponential_schedule(ExponentialSpec(n=3, m=2, base=1.5, k_max=8)),
    "file, serial": lambda tmp_path: load_text(tmp_path, ONE_FILE),
}

FILE_ROWS = ((1, 0, 3.0), (0, 1, 0.5), (1, 1, 7.0))
FILE_REPR = ("Schedule(n_problems=2, m_processors=2, contracts=(Contract(problem=1, processor=0, length=3.0), "
             "Contract(problem=0, processor=1, length=0.5), Contract(problem=1, processor=1, length=7.0)), "
             "generator=None)")
FILE_PICKLE = "b7597c50b0d3287dafecdc7f8250dc7d2c3d4ecf449429d00d96f524a0e42983"

# name: (n, m, the rows, the generator, repr, sha256 of pickle.dumps(protocol=4)), each recorded from Contract rows
SURFACE = {
    "rows": (3, 2, ((0, 0, 1.0), (1, 1, 2.5), (2, 0, 4.0), (0, 1, 0.125)), None,
             "Schedule(n_problems=3, m_processors=2, contracts=(Contract(problem=0, processor=0, length=1.0), "
             "Contract(problem=1, processor=1, length=2.5), Contract(problem=2, processor=0, length=4.0), "
             "Contract(problem=0, processor=1, length=0.125)), generator=None)",
             "0db1c4f7131ed48d4f8751c223fc009327cc6eccb90dd0084b9d9c26484a3af4"),
    "int length": (2, 1, ((0, 0, 1.0), (1, 0, 2.0)), None,
                   "Schedule(n_problems=2, m_processors=1, contracts=(Contract(problem=0, processor=0, length=1.0), "
                   "Contract(problem=1, processor=0, length=2.0)), generator=None)",
                   "8a61f16bbe27a48992fadb68ec6c8c9c960915c8bce6e3e9cab82a75a3ec7747"),
    "exponential": (3, 2, ((0, 0, 1.0), (1, 1, 1.5), (2, 0, 2.25), (0, 1, 3.375), (1, 0, 5.0625), (2, 1, 7.59375),
                           (0, 0, 11.390625), (1, 1, 17.0859375)), {"family": "exponential", "base": 1.5},
                    "Schedule(n_problems=3, m_processors=2, contracts=(Contract(problem=0, processor=0, length=1.0), "
                    "Contract(problem=1, processor=1, length=1.5), Contract(problem=2, processor=0, length=2.25), "
                    "Contract(problem=0, processor=1, length=3.375), Contract(problem=1, processor=0, length=5.0625), "
                    "Contract(problem=2, processor=1, length=7.59375), "
                    "Contract(problem=0, processor=0, length=11.390625), "
                    "Contract(problem=1, processor=1, length=17.0859375)), generator={'family': 'exponential', "
                    "'base': 1.5})",
                    "51053c2d4836084a7080c273cee9c18db4b45894efd490ebcd45b663ad3bfac7"),
    "file, serial": (2, 2, FILE_ROWS, None, FILE_REPR, FILE_PICKLE),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_the_row_view_keeps_the_surface_of_contract_rows(tmp_path, name):
    s = BUILDERS[name](tmp_path)
    n, m, rows, generator, text, digest = SURFACE[name]
    assert repr(s) == text
    assert len(s) == len(rows)
    assert type(s.contracts) is tuple and [type(c) for c in s.contracts] == [Contract] * len(rows)
    assert s.contracts == rows
    assert s == Schedule(n, m, rows, generator) and s != Schedule(n, m, rows[:-1], generator)
    assert s != Schedule(n + 1, m, rows, generator) and (s == rows) is False
    if generator is None:
        assert hash(s) == hash((n, m, tuple(Contract(*row) for row in rows), None))
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(s)
    data = pickle.dumps(s, protocol=4)
    assert hashlib.sha256(data).hexdigest() == digest
    assert repr(pickle.loads(data)) == text and pickle.loads(data) == s
    assert repr(copy.copy(s)) == repr(copy.deepcopy(s)) == text
    assert repr(s._replace(n_problems=5)) == text.replace(f"n_problems={n}", "n_problems=5", 1)
    tail = text[text.index("), generator=") + 1:]
    assert repr(s._replace(contracts=[(0, 0, 2)])) == (f"Schedule(n_problems={n}, m_processors={m}, "
                                                       f"contracts=(Contract(problem=0, processor=0, length=2.0),)"
                                                       f"{tail}")
    plain = s._asdict()
    assert plain == {"n_problems": n, "m_processors": m, "contracts": rows, "generator": generator}
    assert {type(row) for row in plain["contracts"]} == {tuple}


@pytest.mark.parametrize("name", BUILDERS)
def test_each_column_is_a_tuple_of_exact_types(tmp_path, name):
    s = BUILDERS[name](tmp_path)
    rows = SURFACE[name][2]
    for column, kind, values in zip((s.problems, s.processors, s.lengths), (int, int, float), zip(*rows)):
        assert type(column) is tuple and column == values
        assert {type(value) for value in column} == {kind}


# --- the collector ---------------------------------------------------------------------------------------


def tracked_after(build):
    """How many more objects the collector tracks once ``build()`` returned, and what it returned."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()  # no collection in between may untrack or free what the count should see
    try:
        before = len(gc.get_objects())
        built = build()
        return len(gc.get_objects()) - before, built
    finally:
        if was:
            gc.enable()


K = 20_000


@pytest.mark.parametrize("route", ["exponential_schedule", "rows", "load_schedule"])
def test_a_long_schedule_adds_no_tracked_object_per_contract(tmp_path, route):
    # at the parent each Contract, a tuple subclass the collector never untracks, stayed tracked: 20,000 more
    spec = ExponentialSpec(n=4, m=2, base=1.0001, k_max=K)
    if route == "exponential_schedule":
        build = lambda: exponential_schedule(spec)  # noqa: E731
    elif route == "rows":
        rows = [(i % 4, i % 2, 1.0 + i) for i in range(K)]
        build = lambda: Schedule(4, 2, rows)  # noqa: E731
    else:
        path = tmp_path / "s.json"
        save_schedule(exponential_schedule(spec), path)
        build = lambda: load_schedule(path)  # noqa: E731
    added, s = tracked_after(build)
    assert len(s) == K and added < 100, added


# --- no library route reads the row view -----------------------------------------------------------------


COMMANDS = [
    ["eval", "--measure", "acc"],
    ["eval", "--measure", "perf"],
    ["eval", "--measure", "def", "--solver", "exact"],
    ["eval", "--measure", "def", "--solver", "lpt"],
]


def test_no_command_reads_the_row_view(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the row view was read")

    multi, single = tmp_path / "multi.json", tmp_path / "single.json"
    assert main(["gen", "--n", "3", "--m", "2", "--k", "40", "--out", str(multi)]) == 0
    assert main(["gen", "--n", "2", "--m", "1", "--k", "24", "--out", str(single)]) == 0
    monkeypatch.setattr(Schedule, "contracts", property(refuse))
    runs = [["gen", "--n", "3", "--m", "2", "--k", "40", "--out", str(tmp_path / "again.json")],
            ["gen", "--n", "2", "--m", "1", "--k", "6"]]
    for args in COMMANDS:
        runs += [[*args, "--schedule", str(multi)], [*args, "--schedule", str(single)],
                 [*args, "--schedule", str(multi), "--csv", str(tmp_path / "series.csv")]]
    runs += [["normalize", "--schedule", str(single), "--reduce-pairs", "--out", str(tmp_path / "n.json")],
             ["normalize", "--schedule", str(single), "--reduce-pairs"],
             ["verify", "--only", "C04", "P02"]]
    for args in runs:
        assert main(args) == 0, (args, capsys.readouterr().err)
    capsys.readouterr()
    assert json.loads((tmp_path / "again.json").read_text()) == json.loads(multi.read_text())
    assert os.path.getsize(tmp_path / "n.json") > 0
