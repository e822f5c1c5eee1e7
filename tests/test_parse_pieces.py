"""``core.load_schedule`` parsing a long file in pieces, in forked children after the first, against one parse."""

import json
import marshal
import os
import signal
import sys
import threading
import tempfile
import time
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractsched import Contract, ExponentialSpec, Schedule, exponential_schedule, load_schedule, save_schedule
from contractsched import _parts, core

from forks import assert_no_child_left, record_forks


def forced_pieces(monkeypatch, cpus=3):
    """Parse every file in up to ``cpus`` pieces, whatever its length and the host: returns the pieces forked."""
    monkeypatch.setattr(core, "_PARSE_MIN", 0)
    return record_forks(monkeypatch, cpus=cpus)


def outcome(path):
    """What loading ``path`` gives: the schedule's repr (its generator included), or the error's type and message."""
    try:
        return repr(load_schedule(path))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def serial_outcome(path):
    saved = core._PARSE_MIN
    core._PARSE_MIN = float("inf")
    try:
        return outcome(path)
    finally:
        core._PARSE_MIN = saved


def saved_text(s):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "s.json")
        save_schedule(s, path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def write(tmp_path, text):
    path = tmp_path / "s.json"
    path.write_text(text, encoding="utf-8")
    return path


def load_both_ways(text, cpus=3):
    """(the serial outcome of loading ``text``, the outcome with every file forced into pieces on ``cpus`` CPUs)."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "s.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        serial = serial_outcome(path)
        with pytest.MonkeyPatch.context() as monkeypatch:
            forced_pieces(monkeypatch, cpus)
            return serial, outcome(path)


ROW = '{"problem":%d,"processor":%d,"length":%s}'


def rows(k, extra="", n=3, m=2):
    return ",".join(ROW % (i % n, i % m, repr(1.0 + i / 7)) for i in range(k)).replace("}", extra + "}")


def exponential_text(k=60, generator=True):
    s = exponential_schedule(ExponentialSpec(n=3, m=2, base=1.5, k_max=k))
    return saved_text(s if generator else Schedule(3, 2, s.contracts))


def generator_last(text):
    """A saved text as files were written before the generator came first: the same members, the generator last."""
    doc = json.loads(text)
    generator = doc.pop("generator")
    return json.dumps({**doc, "generator": generator}, separators=(",", ":")) + "\n"


def test_a_saved_file_loads_in_pieces_as_one_parse(tmp_path, monkeypatch):
    s = exponential_schedule(ExponentialSpec(n=4, m=2, base=1.004, k_max=3_000))
    path = tmp_path / "s.json"
    save_schedule(s, path)
    forked = forced_pieces(monkeypatch)
    doc, parsed = core._parse(path.read_text(encoding="utf-8"))
    assert parsed is not None and len(forked) == 2
    assert parsed == [s.problems, s.processors, s.lengths]
    assert (doc["n"], doc["m"], doc["generator"]) == (4, 2, s.generator)
    assert repr(load_schedule(path)) == repr(s)
    assert len(forked) == 4
    assert_no_child_left()


# name: (how ``core._parse`` takes the text in three pieces, ``route``, the text): "pieces" gives the columns;
# "whole" forks nothing, since the head or tail check fails (no '"contracts":[' after a comma, an empty head or one
# that does not parse, or no "]}" at the end); "fallback" forks, and a piece fails (it does not parse, or finds no
# "},{" or no row); both fall back to one json.loads
NAMED = {
    # a cut lands inside a string that reads "},{": that piece does not parse
    "string-with-a-cut": ("fallback", '{"n":3,"m":2,"contracts":[%s]}' % rows(40, ',"note":"},{"')),
    # the cuts are looked for in the array alone, so the generator's "},{" is never one
    "generator-with-a-cut": ("pieces", '{"n":3,"m":2,"generator":{"family":"x},{y","k":[1,{}]},"contracts":[%s]}'
                             % rows(40)),
    # json keeps the last of a repeated key, so the head's contracts are dropped
    "contracts-before": ("pieces", '{"contracts":[%s],"n":3,"m":2,"contracts":[%s]}' % (rows(5), rows(40))),
    "contracts-after": ("fallback", '{"n":3,"m":2,"contracts":[%s],"contracts":[%s]}' % (rows(40), rows(5))),
    "contracts-after-not-a-list": ("whole", '{"n":3,"m":2,"contracts":[%s],"contracts":5}' % rows(40)),
    "n-repeated-after": ("whole", '{"n":1,"m":2,"contracts":[%s],"n":3}' % rows(40)),
    "n-repeated-in-the-head": ("pieces", '{"n":1,"m":2,"n":3,"contracts":[%s]}' % rows(40)),
    # the first ',"contracts":[' is inside the generator, so the head does not close
    "contracts-in-a-nested-object": ("whole", '{"n":3,"m":2,"generator":{"family":"x","contracts":[%s]},'
                                     '"contracts":[%s]}' % (rows(5), rows(40))),
    "escaped-contracts-in-a-string": ("pieces", '{"n":3,"m":2,"generator":{"family":"\\"contracts\\":["},'
                                      '"contracts":[%s]}' % rows(40)),
    "empty-head": ("whole", '{,"contracts":[%s]}' % rows(40)),
    "blank-head": ("whole", '{ \n,"contracts":[%s]}' % rows(40)),
    "head-in-another-order": ("pieces", '{"generator":{"family":"x"},"m":2,"n":3,"contracts":[%s]}' % rows(40)),
    "spaces-in-the-head": ("pieces", ' \r\n{ "n" : 3 ,\t"m":2\n,"contracts":[%s]}' % rows(40)),
    "generator-last": ("whole", generator_last(exponential_text())),
    "indented": ("whole", json.dumps(json.loads(exponential_text()), indent=2)),
    "indented-rows": ("fallback", exponential_text().replace("},{", "},\n  {")),
    "spaced-key": ("whole", exponential_text().replace('"contracts":[', '"contracts": [')),
    "space-after-the-array": ("whole", exponential_text().replace("]}", "] }")),
    "whitespace-at-the-end": ("pieces", exponential_text() + "\t\r\n \r\n"),
    # json's whitespace is space, tab, LF and CR; str.rstrip would also strip these three, which json refuses
    "form-feed-at-the-end": ("whole", exponential_text().replace("]}\n", "]}\f\n")),
    "next-line-at-the-end": ("whole", exponential_text().replace("]}\n", "]}\x85\n")),
    "no-break-space-at-the-end": ("whole", exponential_text().replace("]}\n", "]}\u00a0\n")),
    "bom": ("whole", "\ufeff" + exponential_text()),
    "nan-length": ("pieces", exponential_text().replace('"length":1.5}', '"length":NaN}', 1)),
    "infinite-length": ("pieces", exponential_text()[::-1].replace('}0.1:"htgnel"', '}ytinifnI-:"htgnel"', 1)[::-1]),
    "truncated": ("whole", exponential_text()[:-40]),
    "truncated-in-a-row": ("whole", exponential_text()[:len(exponential_text()) // 2]),
    "no-end": ("whole", exponential_text().rstrip()[:-1]),
    "extra-data": ("whole", exponential_text() + "{}"),
    "comma-before-the-end": ("whole", exponential_text().replace("]}", "],}")),
    "double-comma": ("fallback", '{"n":3,"m":2,"contracts":[%s,,%s]}' % (rows(20), rows(20))),
    "empty-contracts": ("fallback", '{"n":3,"m":2,"contracts":[]}'),
    "one-row": ("fallback", '{"n":3,"m":2,"contracts":[%s]}' % rows(1)),
    # nested past the recursion limit: a piece raises RecursionError, and so does the whole parse
    "deeply-nested-row": ("fallback", '{"n":3,"m":2,"contracts":[%s,{"problem":0,"processor":0,"length":%s1%s},%s]}'
                          % (rows(300), "[" * 5_000, "]" * 5_000, rows(300))),
    "nested-field": ("pieces", '{"n":3,"m":2,"contracts":[%s,{"problem":0,"processor":0,"length":1.0,"x":%s1%s},%s]}'
                     % (rows(20), "[" * 500, "]" * 500, rows(20))),
    "row-not-an-object": ("fallback", '{"n":3,"m":2,"contracts":[%s,[1,2,3],%s]}' % (rows(20), rows(20))),
    "row-missing-a-field": ("fallback", '{"n":3,"m":2,"contracts":[%s,{"problem":0,"length":1.0},%s]}'
                            % (rows(20), rows(20))),
    "bad-problem-late": ("pieces", '{"n":3,"m":2,"contracts":[%s,{"problem":7,"processor":0,"length":1.0}]}'
                         % rows(40)),
    "missing-m": ("pieces", '{"n":3,"contracts":[%s]}' % rows(40)),
    "not-an-object": ("whole", '[{"contracts":[%s]}]' % rows(40)),
    # a long row among short ones: two neighbouring ranges find the same "},{", so the piece between them is empty
    "adjacent-cuts": ("fallback", '{"n":3,"m":2,"contracts":[%s,%s,%s]}'
                      % (rows(1), ROW.replace("}", ',"pad":"%s"}') % (0, 0, "2.0", "x" * 5_000), rows(1))),
    "two-rows": ("fallback", '{"n":3,"m":2,"contracts":[%s]}' % rows(2)),
    # the only '"contracts":[' ends the key a\"contracts, whose opening quote is escaped: one contract, and a
    # missing key
    "escaped-key-after-contracts": ("whole", '{"n":1,"m":1,"contracts" : [%s],"a\\"contracts":[%s]}'
                                    % (rows(1, n=1, m=1), rows(40, n=1, m=1))),
    "escaped-key-only": ("whole", '{"n":1,"m":1,"a\\"contracts":[%s]}' % rows(40, n=1, m=1)),
}


def route(text):
    """How ``core._parse`` takes ``text`` in up to three pieces: "pieces", "whole" or "fallback" (see ``NAMED``)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        forked = forced_pieces(monkeypatch)
        try:
            parsed = core._parse(text)[1]
        except (ValueError, RecursionError):  # the serial parse the text falls back to raised
            parsed = None
    assert_no_child_left()
    return "pieces" if parsed is not None else "fallback" if forked else "whole"


@pytest.mark.parametrize("expected, text", NAMED.values(), ids=NAMED.keys())
def test_every_named_file_loads_or_fails_as_one_parse(tmp_path, monkeypatch, expected, text):
    path = write(tmp_path, text)
    serial = serial_outcome(path)
    assert route(text) == expected
    forked = forced_pieces(monkeypatch)
    assert outcome(path) == serial
    assert len(forked) == (0 if expected == "whole" else 2)
    assert_no_child_left()


def test_a_file_with_its_generator_last_loads_whole_into_the_same_schedule(tmp_path, monkeypatch):
    # files saved before the generator came first: their contracts are not the last member, so they load by one
    # json.loads, and saving them again restores the split
    s = exponential_schedule(ExponentialSpec(n=3, m=2, base=1.5, k_max=60))
    path = write(tmp_path, generator_last(saved_text(s)))
    forked = forced_pieces(monkeypatch)
    assert load_schedule(path) == s and forked == []
    save_schedule(load_schedule(path), path)
    assert path.read_text(encoding="utf-8") == saved_text(s)
    assert load_schedule(path) == s and len(forked) == 2
    assert_no_child_left()


# characters that change how JSON reads what follows them
MUTANTS = list('{}[],:"\\ \t\n0123456789.-+eE') + ["NaN", "Infinity", "true", "null", "},{", "]", "\ufeff", "\u00e9"]


@st.composite
def mutated_texts(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    k = draw(st.integers(0, 30))
    lengths = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    contracts = [Contract(draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)), draw(lengths)) for _ in range(k)]
    generator = draw(st.sampled_from([None, {"family": "exponential", "base": 1.5}, {"family": "x", "k": [1, 2]}]))
    text = saved_text(Schedule(n, m, contracts, generator))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace", "duplicate", "truncate"]))
        if kind == "truncate":
            text = text[:at]
        elif kind == "duplicate":
            end = draw(st.integers(at, min(len(text), at + 80)))
            text = text[:end] + text[at:end] + text[end:]
        else:
            cut = at + (kind != "insert")
            text = text[:at] + ("" if kind == "delete" else draw(st.sampled_from(MUTANTS))) + text[cut:]
    return text


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutated_texts())
def test_mutated_files_load_or_fail_as_one_parse(text):
    serial, forced = load_both_ways(text)
    assert forced == serial
    assert_no_child_left()


# top-level members, each "%s" a run of contract rows: the key "contracts" spaced, escaped or inside another
# value, and n and m with other values
MEMBERS = ['"contracts":[%s]', '"contracts" : [%s]', '"a\\"contracts":[%s]', '"\\u0063ontracts":[%s]',
           '"generator":{"family":"x","contracts":[%s]}', '"generator":{"family":"\\"contracts\\":["}',
           '"n":3', '"n":1', '"m":2', '"m":1']


@st.composite
def member_texts(draw):
    members = draw(st.lists(st.sampled_from(MEMBERS), max_size=5))
    layout = draw(st.sampled_from(["any", "first", "last"]))
    if layout == "first":  # n, m and contracts first, so a later "contracts" is a second one
        members = ['"n":3', '"m":2', MEMBERS[0]] + members
    elif layout == "last":  # the contracts last, as save_schedule writes them
        members = members + [MEMBERS[0]]
    return "{%s}" % ",".join(member.replace("%s", rows(draw(st.integers(0, 12)))) for member in members)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(member_texts())
def test_documents_of_any_members_load_or_fail_as_one_parse(text):
    serial, forced = load_both_ways(text)
    assert forced == serial
    assert_no_child_left()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, sys.maxsize), st.integers(1, sys.maxsize), st.integers(10, 30), st.data(),
       st.sampled_from([None, {"family": "exponential", "base": 1.5}, {"family": "x", "k": [1, {"contracts": []}]}]))
def test_every_saved_file_takes_the_pieces_route(n, m, k, data, generator):
    lengths = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    s = Schedule(n, m, [Contract(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1)), data.draw(lengths))
                        for _ in range(k)], generator)
    text = saved_text(s)
    assert route(text) == "pieces"
    with pytest.MonkeyPatch.context() as monkeypatch:
        forked = forced_pieces(monkeypatch)
        doc, parsed = core._parse(text)
    assert parsed is not None and forked
    assert core._schedule_of(doc, parsed) == s
    assert_no_child_left()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 30), st.integers(2, 6), st.data(),
       st.sampled_from([None, {"family": "exponential", "base": 1.5}, {"family": "x},{y", "k": [1, {}]}]))
def test_the_pieces_of_a_saved_file_tile_its_contracts_or_one_raises(n, m, k, count, data, generator):
    lengths = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    s = Schedule(n, m, [Contract(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1)), data.draw(lengths))
                        for _ in range(k)], generator)
    text = saved_text(s)
    a, z = text.index(core._CONTRACTS) + len(core._CONTRACTS), text.rindex("]}")
    cuts = _parts._cuts(len(text), count)
    ranges = list(zip(cuts, cuts[1:]))
    try:
        pieces = [core._piece(text, a, z, lo, hi) for lo, hi in ranges]
    except ValueError:
        # a piece may raise only where some range but the first holds no "},{" of the array: where each holds one,
        # neighbouring ranges meet at distinct row boundaries and every piece holds a row
        boundaries = [b for b in range(a, z) if text.startswith("},{", b)]
        assert not all(a <= lo and any(lo <= b < hi for b in boundaries) for lo, hi in ranges[1:])
        serial, forced = load_both_ways(text, cpus=count)
        assert forced == serial == repr(s)
    else:
        rows = json.loads(text)["contracts"]
        assert [list(chain.from_iterable(column)) for column in zip(*pieces)] == [
            [row[key] for row in rows] for key in ("problem", "processor", "length")]
    assert_no_child_left()


@pytest.mark.parametrize("text", ["good", "bad-late"], ids=["loads", "raises"])
@pytest.mark.parametrize("failure", ["fork-refused", "child-raises", "child-killed", "child-hangs"])
def test_a_failed_child_leaves_the_load_as_one_parse(tmp_path, monkeypatch, failure, text):
    text = exponential_text() if text == "good" else NAMED["bad-problem-late"][1]
    path = write(tmp_path, text)
    serial = serial_outcome(path)
    forked = forced_pieces(monkeypatch)
    monkeypatch.setattr(_parts, "_WAIT_S", 0.2)
    parent, piece = os.getpid(), core._piece

    def refused():
        raise OSError("fork refused")

    def failing(*args):
        if os.getpid() != parent:
            if failure == "child-killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if failure == "child-hangs":
                threading.Event().wait()  # as on a lock a thread of the parent held when it forked
            raise RuntimeError("only a child fails")
        return piece(*args)

    if failure == "fork-refused":
        monkeypatch.setattr(os, "fork", refused)
    else:
        monkeypatch.setattr(core, "_piece", failing)
    assert outcome(path) == serial
    assert len(forked) == 2
    assert_no_child_left()


def test_an_interrupted_first_piece_reaps_every_child(tmp_path, monkeypatch):
    path = write(tmp_path, exponential_text())
    forked = forced_pieces(monkeypatch)
    parent, piece = os.getpid(), core._piece

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return piece(*args)

    monkeypatch.setattr(core, "_piece", interrupted)
    with pytest.raises(KeyboardInterrupt):
        load_schedule(path)
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


def test_nothing_forks_where_pieces_are_not_allowed(tmp_path, monkeypatch):
    text = exponential_text()
    path = write(tmp_path, text)
    expected = serial_outcome(path)
    forked = forced_pieces(monkeypatch)
    # a file shorter than two pieces of _PARSE_MIN
    monkeypatch.setattr(core, "_PARSE_MIN", len(text) // 2 + 1)
    assert outcome(path) == expected and forked == []
    # a second thread running
    monkeypatch.setattr(core, "_PARSE_MIN", 0)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert outcome(path) == expected
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive() and forked == []
    # one usable CPU
    monkeypatch.setattr(core, "_cpus", lambda: 1)
    assert outcome(path) == expected and forked == []
    # and a file of two pieces of _PARSE_MIN characters on two CPUs splits in two
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    monkeypatch.setattr(core, "_PARSE_MIN", len(text) // 2)
    assert outcome(path) == expected and len(forked) == 1
    assert_no_child_left()


def test_a_long_prefix_is_parsed_in_pieces_by_default_on_more_than_one_cpu(tmp_path, monkeypatch):
    # 20,000 contracts take 1.16 MB, above two pieces of _PARSE_MIN: one child per usable CPU after the first
    s = exponential_schedule(ExponentialSpec(n=4, m=2, base=1.004, k_max=20_000))
    path = tmp_path / "s.json"
    save_schedule(s, path)
    text = path.read_text(encoding="utf-8")
    assert len(text) >= 2 * core._PARSE_MIN
    forked = record_forks(monkeypatch)
    doc, parsed = core._parse(text)
    assert (parsed is not None) == (core._cpus() > 1)
    assert len(forked) == core._split_count(len(text), core._PARSE_MIN) - 1
    assert load_schedule(path) == s == core.schedule_from_dict(json.loads(text))
    assert_no_child_left()
