"""Every hostile input through ``cli.main``, in process, as a property.

Schedule documents are drawn valid and then mutated, and each command's
arguments are drawn from a small grammar of good and bad values.  Whatever
the input, ``main`` must end one of three ways:

* exit 0, and a command that prints JSON prints strict JSON (no ``NaN`` or
  ``Infinity``);
* exit 1, with the error JSON as the last line of stderr;
* exit 2, raised by argparse for a usage error.

Any other exception fails the test.  The profile is fixed (``derandomize``,
no database), so every run draws the same cases.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from contractsched.cli import main


def fixed(examples):
    """The fixed profile: the same ``examples`` cases on every run, with no deadline."""
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


# Values a field or member may be replaced by: bools, an int where a float goes and the other way round, NaN,
# inf, zero, negatives, a subnormal, counts in range but beyond memory, an integer beyond the float range,
# strings and nested values.
ATOMS = [True, False, None, 0, 1, 2, -1, 2.5, 0.0, -0.0, -1.5, 5e-324, math.nan, math.inf, -math.inf,
         10**17, sys.maxsize, 10**400, sys.maxsize + 1, "1", "", [], {}, [0, 0, 1.0], {"problem": 0},
         {"family": "exponential"}, {"family": "exponential", "base": "2"}]

ROW_FIELDS = ("problem", "processor", "length")


@st.composite
def documents(draw):
    """A valid schedule document, then zero to three mutations; some documents are cut short as text."""
    n, m = draw(st.integers(1, 4)), draw(st.sampled_from([1, 1, 2, 3]))
    lengths = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    rows = [{"problem": draw(st.integers(0, n - 1)), "processor": draw(st.integers(0, m - 1)), "length": draw(lengths)}
            for _ in range(draw(st.integers(0, 10)))]
    doc = {"n": n, "m": m, "contracts": rows}
    generator = draw(st.sampled_from([None, None, {"family": "exponential", "base": 1.5}, {"family": "x"}]))
    if generator is not None:
        doc["generator"] = generator
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        kind = draw(st.sampled_from(["field", "member", "drop-member", "drop-field", "stray", "short", "long"]))
        atom = draw(st.sampled_from(ATOMS))
        if kind in ("field", "drop-field") and rows:
            row, field = draw(st.sampled_from(rows)), draw(st.sampled_from(ROW_FIELDS))
            if kind == "field":
                row[field] = atom
            else:
                row.pop(field, None)
        elif kind == "member":
            doc[draw(st.sampled_from(["n", "m", "contracts", "generator"]))] = atom
        elif kind == "drop-member":
            doc.pop(draw(st.sampled_from(["n", "m", "contracts", "generator"])), None)
        elif isinstance(doc.get("contracts"), list):
            # a stray element, or a row short of fields or with one more, appended after the drawn rows, which alone
            # take field mutations
            row = {"problem": 0, "processor": 0, "length": 1.0}
            if kind == "short":
                row = dict(list(row.items())[:draw(st.integers(0, 2))])
            row = atom if kind == "stray" else {**row, "extra": atom} if kind == "long" else row
            doc["contracts"] = [*doc["contracts"], row]
    text = json.dumps(doc)  # json writes NaN and Infinity, which json.loads reads back
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def run(args):
    """(exit code, stdout, stderr, whether argparse raised the exit) of ``main(args)``, in process."""
    out, err = io.StringIO(), io.StringIO()
    raised = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code, raised = exc.code, True
    return code, out.getvalue(), err.getvalue(), raised


def strict(text):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def check(args, prints_json=True):
    code, out, err, raised = run(args)
    if code == 0:
        assert not raised
        if prints_json:
            strict(out)
    elif code == 1:
        assert not raised
        error = strict(err.splitlines()[-1])["error"]
        assert type(error["type"]) is str and type(error["message"]) is str and error["message"]
    else:
        # main returns 0 or 1 itself: only argparse exits 2, after its usage line
        assert code == 2 and raised, (code, err)
        assert err.startswith("usage: contract-sched") and ": error: " in err.splitlines()[-1], err
    return code


# --- schedule files --------------------------------------------------------------------------------------


# every measure and solver, and three usage errors
EVAL_OPTIONS = st.sampled_from([["--measure", "acc"], ["--measure", "perf"], ["--measure", "def"],
                                ["--measure", "def", "--solver", "lpt"], ["--measure", "def", "--solver", "exact"],
                                ["--measure", "acc"], ["--measure", "perf"], ["--measure", "def", "--solver", "lpt"],
                                ["--measure", "bad"], ["--measure", "acc", "--solver", "bad"], []])


@fixed(200)
@given(documents(), EVAL_OPTIONS, st.sampled_from([None, "out.csv", "missing/out.csv"]))
@example('{"n": 0, "m": 1, "contracts": [{"problem": 5, "processor": 0, "length": 1.0}]}', ["--measure", "acc"], None)
@example('{"n": 2.0, "m": 1, "contracts": [[0, 0]]}', ["--measure", "def"], None)
@example('{"n": 2, "m": true, "contracts": [{"problem": 0, "processor": 0, "length": NaN}]}', ["--measure", "perf"],
         None)
@example('{"n": 1, "m": 1, "contracts": [{"problem": 0, "processor": 0, "length": 1e400}]}', ["--measure", "acc"],
         None)
@example('{"n": 1, "m": 1, "contracts": [{"problem": 0, "processor": 0, "length": %d}]}' % 10**400,
         ["--measure", "acc"], "out.csv")
# counts in range but beyond memory, with no contract: the CSV header's n names are refused at once
@example('{"n": %d, "m": 1, "contracts": []}' % 10**17, ["--measure", "acc"], "out.csv")
@example('{"n": %d, "m": 1, "contracts": []}' % sys.maxsize, ["--measure", "def", "--solver", "lpt"], "out.csv")
def test_eval_of_any_document_exits_0_1_or_2(text, options, csv):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "s.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        args = ["eval", "--schedule", path, *options]
        if csv is not None:
            args += ["--csv", os.path.join(work, csv)]
        check(args)


@fixed(100)
@given(documents(), st.sampled_from([[], ["--reduce-pairs"]]), st.sampled_from([[], ["--out"], ["--trace"]]))
# a dominated contract removed where no window is served: both deficiencies are +inf, printed as null
@example('{"n": 1, "m": 1, "contracts": [{"problem": 0, "processor": 0, "length": 1.0}, '
         '{"problem": 0, "processor": 0, "length": 1.0}]}', [], [])
@example('{"n": 2, "m": 1, "contracts": [{"problem": 1, "processor": 0, "length": 1e20}, '
         '{"problem": 0, "processor": 0, "length": 0.5}, {"problem": 0, "processor": 0, "length": 4}]}',
         ["--reduce-pairs"], [])
def test_normalize_of_any_document_exits_0_1_or_2(text, reduce, output):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "s.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        args = ["normalize", "--schedule", path, *reduce]
        if output:
            args += [output[0], os.path.join(work, "out.json")]
        check(args, prints_json=not output)


# --- argument grammars -----------------------------------------------------------------------------------


# good and bad spellings of a count; the in-range counts beyond memory meet the --n and --m of gen and bounds
COUNTS = ["1", "2", "3", "5", "0", "-1", "2.5", "x", "", str(10**17), str(sys.maxsize + 1), str(10**400)]
# bases, good and bad; a base near 1 meets only small counts here, so no prefix is long
BASES = ["auto-def", "auto-acc", "1.5", "2", "10", "1.0000000000000002", "1", "0.5", "-2", "nan", "inf", "1e308",
         "x"]
KS = ["1", "5", "40", "300", "0", "-3", "x", str(sys.maxsize), str(10**30)]
FLOATS = ["1.5", "2", "1", "0.5", "0", "-1", "nan", "inf", "1e308", "5e-324", "x"]


def option(name, values):
    """An option drawn from ``values``, or left out."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda value: [name, value]))


@fixed(100)
@given(option("--n", COUNTS), option("--m", COUNTS), option("--base", BASES), option("--k", KS),
       st.sampled_from([None, "out.json", "missing/out.json"]))
@example(["--n", str(sys.maxsize)], ["--m", "1"], [], [], None)
# the deficiency-optimal base of n = 10**17 is so close to 1 that its 8 * (n + 1) lengths do not overflow
@example(["--n", str(10**17)], ["--m", "1"], [], [], None)
def test_gen_of_any_arguments_exits_0_1_or_2(n, m, base, k, out):
    with tempfile.TemporaryDirectory() as work:
        args = ["gen", *n, *m, *base, *k]
        if out is not None:
            args += ["--out", os.path.join(work, out)]
        check(args, prints_json=out is None)


SIZES = st.lists(st.sampled_from(["1", "2.5", "0", "-1", "nan", "inf", "1e308", "1.7e308", "5e-324", "x", ""]),
                 max_size=8).map(",".join)


@fixed(100)
@given(SIZES, option("--m", COUNTS), option("--solver", ["exact", "greedy", "lpt", "bad"]))
def test_makespan_of_any_arguments_exits_0_1_or_2(sizes, m, solver):
    check(["makespan", "--sizes", sizes, *m, *solver])


NAMES = ["def-upper", "def-upper-beta", "best-exp-def-m1", "def-lower-general", "def-lower-roundrobin",
         "two-problem-lb", "cyclic-acc-lb", "perf-closed-form", "bad"]


@fixed(100)
@given(st.sampled_from(NAMES), option("--n", COUNTS + [str(sys.maxsize)]), option("--m", COUNTS + [str(sys.maxsize)]),
       option("--b", FLOATS))
def test_bounds_of_any_arguments_exits_0_1_or_2(name, n, m, b):
    check(["bounds", "--name", name, *n, *m, *b])


# the three cheapest checks, which together still split where more than one CPU is usable, and unknown ids
CHECK_IDS = ["C01", "C03", "P02"] * 3 + ["X99", "c01", ""]


@fixed(60)
@given(st.lists(st.sampled_from(CHECK_IDS), max_size=3), option("--seed", ["0", "7", "-1", "x"]),
       st.sampled_from([None, "report.json", ".", "missing/report.json"]))
@example(["C01", "C03", "P02"], [], "report.json")
@example(["C01", "C03", "P02"], ["--seed", "7"], ".")
def test_verify_of_any_arguments_exits_0_1_or_2(ids, seed, report):
    with tempfile.TemporaryDirectory() as work:
        args = ["verify", "--only", *ids, *seed]
        if report is not None:
            args += ["--json", os.path.join(work, report)]
        if check(args, prints_json=False) == 0 and report is not None:
            with open(os.path.join(work, report), encoding="utf-8") as fh:
                strict(fh.read())


@fixed(30)
@given(st.sampled_from(["1", "2", "3", "4", "0", "x"]), st.sampled_from([None, "out.csv", ".", "missing/out.csv"]))
def test_sweep_of_any_arguments_exits_0_1_or_2(figure, csv):
    with tempfile.TemporaryDirectory() as work:
        args = ["sweep", "--figure", figure]
        if csv is not None:
            args += ["--csv", os.path.join(work, csv)]
        if check(args, prints_json=False) == 0:
            with open(os.path.join(work, csv), encoding="utf-8") as fh:
                assert fh.readline().startswith(f"# command=sweep figure={figure} ")
