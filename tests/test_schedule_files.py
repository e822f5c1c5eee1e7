"""``core.load_schedule`` on files laid out in every way JSON allows, and on broken ones: one ``json.loads`` reads them."""

import json
import os
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractsched import (Contract, ExponentialSpec, Schedule, exponential_schedule, load_schedule, save_schedule,
                           schedule_from_dict)

from forks import assert_no_child_left, record_forks


def outcome(path):
    """What loading ``path`` gives: the schedule's repr (its generator included), or the error's type and message."""
    try:
        return repr(load_schedule(path))
    except ValueError as exc:
        return type(exc), str(exc)


def reference(text, path):
    """What one ``json.loads`` of ``text`` and ``schedule_from_dict`` give, in the terms of ``outcome``."""
    try:
        doc = json.loads(text)
    except RecursionError:
        return ValueError, f"schedule file {path} nests too deeply to parse"
    except ValueError as exc:
        return type(exc), str(exc)
    try:
        return repr(schedule_from_dict(doc))
    except ValueError as exc:
        return type(exc), str(exc)


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


def load_against_json_loads(text):
    """(the outcome of loading ``text`` from a file, the outcome of one ``json.loads`` and ``schedule_from_dict``)."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "s.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return outcome(path), reference(text, path)


ROW = '{"problem":%d,"processor":%d,"length":%s}'


def rows(k, extra="", n=3, m=2):
    return ",".join(ROW % (i % n, i % m, repr(1.0 + i / 7)) for i in range(k)).replace("}", extra + "}")


def exponential_text(k=60):
    return saved_text(exponential_schedule(ExponentialSpec(n=3, m=2, base=1.5, k_max=k)))


def generator_last(text):
    """A saved text as files were written before the generator came first: the same members, the generator last."""
    doc = json.loads(text)
    generator = doc.pop("generator")
    return json.dumps({**doc, "generator": generator}, separators=(",", ":")) + "\n"


# name: (the text, what loading it gives): (n, m, the number of contracts) for a file that loads, or the start of
# the ValueError's message for one that does not
NAMED = {
    # a string in a row, or the generator, may read "},{"
    "string-with-a-cut": ('{"n":3,"m":2,"contracts":[%s]}' % rows(40, ',"note":"},{"'), (3, 2, 40)),
    "generator-with-a-cut": ('{"n":3,"m":2,"generator":{"family":"x},{y","k":[1,{}]},"contracts":[%s]}' % rows(40),
                             (3, 2, 40)),
    # json keeps the last of a repeated key
    "contracts-before": ('{"contracts":[%s],"n":3,"m":2,"contracts":[%s]}' % (rows(5), rows(40)), (3, 2, 40)),
    "contracts-after": ('{"n":3,"m":2,"contracts":[%s],"contracts":[%s]}' % (rows(40), rows(5)), (3, 2, 5)),
    "contracts-after-not-a-list": ('{"n":3,"m":2,"contracts":[%s],"contracts":5}' % rows(40),
                                   "schedule 'contracts' must be a list, got int"),
    "n-repeated-after": ('{"n":1,"m":2,"contracts":[%s],"n":3}' % rows(40), (3, 2, 40)),
    "n-repeated-in-the-head": ('{"n":1,"m":2,"n":3,"contracts":[%s]}' % rows(40), (3, 2, 40)),
    # "contracts" as a key of the generator, or inside one of its strings, is the generator's own
    "contracts-in-a-nested-object": ('{"n":3,"m":2,"generator":{"family":"x","contracts":[%s]},"contracts":[%s]}'
                                     % (rows(5), rows(40)), (3, 2, 40)),
    "escaped-contracts-in-a-string": ('{"n":3,"m":2,"generator":{"family":"\\"contracts\\":["},"contracts":[%s]}'
                                      % rows(40), (3, 2, 40)),
    "empty-head": ('{,"contracts":[%s]}' % rows(40), "Expecting property name enclosed in double quotes"),
    "blank-head": ('{ \n,"contracts":[%s]}' % rows(40), "Expecting property name enclosed in double quotes"),
    "head-in-another-order": ('{"generator":{"family":"x"},"m":2,"n":3,"contracts":[%s]}' % rows(40), (3, 2, 40)),
    "spaces-in-the-head": (' \r\n{ "n" : 3 ,\t"m":2\n,"contracts":[%s]}' % rows(40), (3, 2, 40)),
    "generator-last": (generator_last(exponential_text()), (3, 2, 60)),
    "indented": (json.dumps(json.loads(exponential_text()), indent=2), (3, 2, 60)),
    "indented-rows": (exponential_text().replace("},{", "},\n  {"), (3, 2, 60)),
    "spaced-key": (exponential_text().replace('"contracts":[', '"contracts": ['), (3, 2, 60)),
    "space-after-the-array": (exponential_text().replace("]}", "] }"), (3, 2, 60)),
    "whitespace-at-the-end": (exponential_text() + "\t\r\n \r\n", (3, 2, 60)),
    # json's whitespace is space, tab, LF and CR; str.rstrip would also strip these three, which json refuses
    "form-feed-at-the-end": (exponential_text().replace("]}\n", "]}\f\n"), "Extra data"),
    "next-line-at-the-end": (exponential_text().replace("]}\n", "]}\x85\n"), "Extra data"),
    "no-break-space-at-the-end": (exponential_text().replace("]}\n", "]}\u00a0\n"), "Extra data"),
    "bom": ("\ufeff" + exponential_text(), "Unexpected UTF-8 BOM"),
    "nan-length": (exponential_text().replace('"length":1.5}', '"length":NaN}', 1),
                   "contract 1: length must be positive and finite, got nan"),
    "infinite-length": (exponential_text()[::-1].replace('}0.1:"htgnel"', '}ytinifnI-:"htgnel"', 1)[::-1],
                        "contract 0: length must be positive and finite, got -inf"),
    "truncated": (exponential_text()[:-40], "Unterminated string"),
    "truncated-in-a-row": (exponential_text()[:len(exponential_text()) // 2], "Unterminated string"),
    "no-end": (exponential_text().rstrip()[:-1], "Expecting ',' delimiter"),
    "extra-data": (exponential_text() + "{}", "Extra data"),
    "comma-before-the-end": (exponential_text().replace("]}", "],}"),
                             "Expecting property name enclosed in double quotes"),
    "double-comma": ('{"n":3,"m":2,"contracts":[%s,,%s]}' % (rows(20), rows(20)), "Expecting value"),
    "empty-contracts": ('{"n":3,"m":2,"contracts":[]}', (3, 2, 0)),
    "one-row": ('{"n":3,"m":2,"contracts":[%s]}' % rows(1), (3, 2, 1)),
    # nested past the recursion limit
    "deeply-nested-row": ('{"n":3,"m":2,"contracts":[%s,{"problem":0,"processor":0,"length":%s1%s},%s]}'
                          % (rows(300), "[" * 5_000, "]" * 5_000, rows(300)), "schedule file "),
    "nested-field": ('{"n":3,"m":2,"contracts":[%s,{"problem":0,"processor":0,"length":1.0,"x":%s1%s},%s]}'
                     % (rows(20), "[" * 500, "]" * 500, rows(20)), (3, 2, 41)),
    "row-not-an-object": ('{"n":3,"m":2,"contracts":[%s,[1,2,3],%s]}' % (rows(20), rows(20)),
                          "contract 20 must be a JSON object, got list"),
    "row-missing-a-field": ('{"n":3,"m":2,"contracts":[%s,{"problem":0,"length":1.0},%s]}' % (rows(20), rows(20)),
                            "schedule document missing key: 'processor'"),
    "bad-problem-late": ('{"n":3,"m":2,"contracts":[%s,{"problem":7,"processor":0,"length":1.0}]}' % rows(40),
                         "contract 40: problem 7 out of range [0, 3)"),
    "missing-m": ('{"n":3,"contracts":[%s]}' % rows(40), "schedule document missing key: 'm'"),
    "not-an-object": ('[{"contracts":[%s]}]' % rows(40), "schedule document must be a JSON object, got list"),
    # a long row among short ones
    "adjacent-cuts": ('{"n":3,"m":2,"contracts":[%s,%s,%s]}'
                      % (rows(1), ROW.replace("}", ',"pad":"%s"}') % (0, 0, "2.0", "x" * 5_000), rows(1)), (3, 2, 3)),
    "two-rows": ('{"n":3,"m":2,"contracts":[%s]}' % rows(2), (3, 2, 2)),
    # the key a\"contracts, whose opening quote is escaped, is not "contracts"
    "escaped-key-after-contracts": ('{"n":1,"m":1,"contracts" : [%s],"a\\"contracts":[%s]}'
                                    % (rows(1, n=1, m=1), rows(40, n=1, m=1)), (1, 1, 1)),
    "escaped-key-only": ('{"n":1,"m":1,"a\\"contracts":[%s]}' % rows(40, n=1, m=1),
                         "schedule document missing key: 'contracts'"),
}


@pytest.mark.parametrize("text, expected", NAMED.values(), ids=NAMED.keys())
def test_every_named_file_loads_or_fails_as_json_loads_reads_it(tmp_path, text, expected):
    path = write(tmp_path, text)
    got = outcome(path)
    assert got == reference(text, path)
    if isinstance(expected, tuple):
        s = load_schedule(path)
        assert (s.n_problems, s.m_processors, len(s.contracts)) == expected
    else:
        assert isinstance(got, tuple) and got[1].startswith(expected)
        if expected == "schedule file ":
            assert got[1] == f"schedule file {path} nests too deeply to parse"


# a file's bytes that are no UTF-8 text json reads: each fails as a ValueError, UnicodeDecodeError included
BYTES = {
    "empty": (b"", json.JSONDecodeError, "Expecting value"),
    "not-utf-8": (b'{"n":1,"m":1,"generator":{"family":"\xff"},"contracts":[]}', UnicodeDecodeError, "'utf-8' codec"),
    "utf-16": ('{"n":1,"m":1,"contracts":[]}'.encode("utf-16"), UnicodeDecodeError, "'utf-8' codec"),
}


@pytest.mark.parametrize("data, error, message", BYTES.values(), ids=BYTES.keys())
def test_a_file_that_is_not_utf8_json_fails_as_a_value_error(tmp_path, data, error, message):
    path = tmp_path / "s.json"
    path.write_bytes(data)
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        load_schedule(path)
    assert issubclass(error, ValueError)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_long_prefix_loads_by_one_parse_and_forks_nothing_on_any_cpu_count(tmp_path, monkeypatch, cpus):
    # 20,000 contracts take 1.16 MB, which the split parse once cut in one piece per usable CPU
    s = exponential_schedule(ExponentialSpec(n=4, m=2, base=1.004, k_max=20_000))
    path = tmp_path / "s.json"
    save_schedule(s, path)
    forked = record_forks(monkeypatch, cpus=cpus)
    loaded = load_schedule(path)
    assert forked == []
    assert repr(loaded) == repr(s) and loaded == schedule_from_dict(json.loads(path.read_text(encoding="utf-8")))
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
def test_mutated_files_load_or_fail_as_json_loads_reads_them(text):
    # any other exception than ValueError escapes ``outcome`` and fails the test
    loaded, parsed = load_against_json_loads(text)
    assert loaded == parsed


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
def test_documents_of_any_members_load_or_fail_as_json_loads_reads_them(text):
    loaded, parsed = load_against_json_loads(text)
    assert loaded == parsed


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, sys.maxsize), st.integers(1, sys.maxsize), st.integers(10, 30), st.data(),
       st.sampled_from([None, {"family": "exponential", "base": 1.5}, {"family": "x", "k": [1, {"contracts": []}]}]))
def test_every_saved_file_loads_as_the_schedule_it_was_saved_from(n, m, k, data, generator):
    lengths = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    s = Schedule(n, m, [Contract(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1)), data.draw(lengths))
                        for _ in range(k)], generator)
    loaded, parsed = load_against_json_loads(saved_text(s))
    assert loaded == parsed == repr(s)
