"""save_schedule writes every row in the calling process: the bytes of json.dumps, into a file or a pipe."""

import json
import os
import subprocess
import sys

import pytest

import contractsched
from contractsched import Contract, ExponentialSpec, Schedule, exponential_schedule, save_schedule, schedule_to_dict
from contractsched import core

from forks import assert_no_child_left

GENERATOR = {"family": "exponential", "base": 1.004, "note": "café"}


def dump(s):
    return (json.dumps(schedule_to_dict(s), separators=(",", ":")) + "\n").encode()


def prefix(k):
    return exponential_schedule(ExponentialSpec(n=3, m=2, base=1.01, k_max=k))


@pytest.mark.parametrize("generator", [False, True], ids=["plain", "generator"])
@pytest.mark.parametrize("k", [5, core._BLOCK - 1, core._BLOCK, core._BLOCK + 1, 3 * core._BLOCK + 7, 8000])
def test_a_save_writes_the_compact_json_dump(tmp_path, monkeypatch, k, generator):
    # one block, a block short of a row, a whole block, a row past it, and several blocks with a partial last one
    s = prefix(k) if generator else prefix(k)._replace(generator=None)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert len(s) == k and path.read_bytes() == dump(s) and forks == []
    assert_no_child_left()


def test_a_save_writes_a_generator_of_any_text_as_json_does(tmp_path):
    rows = [Contract(i % 3, i % 2, 1.0 + i / 7) for i in range(700)]
    s = Schedule(3, 2, rows, generator=GENERATOR)
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert path.read_bytes() == dump(s)
    assert b"caf\\u00e9" in path.read_bytes()


def test_an_interrupted_save_leaves_a_partial_file(tmp_path, monkeypatch):
    s = prefix(3 * core._BLOCK)

    class Interrupting(str):
        """The row format, interrupted at the first row of the second block."""

        calls = 0

        def __mod__(self, row):
            Interrupting.calls += 1
            if Interrupting.calls > core._BLOCK:
                raise KeyboardInterrupt
            return str.__mod__(self, row)

    monkeypatch.setattr(core, "_ROW", Interrupting(core._ROW))
    path = tmp_path / "s.json"
    path.write_bytes(dump(s))
    with pytest.raises(KeyboardInterrupt):
        save_schedule(s, path)
    written = path.read_bytes()
    # the head and the first block, as json.dumps writes them, and not the file that was there before
    assert dump(s).startswith(written) and written.endswith(b"}")
    assert written.count(b'"problem"') == core._BLOCK
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_a_save_into_a_named_pipe_forks_nothing(tmp_path, monkeypatch):
    s = prefix(2000)
    fifo, copy = tmp_path / "fifo", tmp_path / "copy.json"
    os.mkfifo(fifo)
    forks = []
    with open(copy, "wb") as out:
        reader = subprocess.Popen(["cat", str(fifo)], stdout=out)
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        try:
            save_schedule(s, fifo)
        finally:
            monkeypatch.undo()
            assert reader.wait(timeout=60) == 0
    assert copy.read_bytes() == dump(s) and forks == []
    assert_no_child_left()


BELOW_EACH_LEAST = """
import os, sys
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
from contractsched import ExponentialSpec, exponential_schedule, load_schedule, save_schedule
from contractsched import metrics
# a save, a load, and the value-only acceleration and performance ratios, fork at no length: the long-prefix-cli
# prefix, whose file is 5.9 MB
long = exponential_schedule(ExponentialSpec(n=4, m=2, base=1.004, k_max=100_000))
save_schedule(long, sys.argv[1])
assert load_schedule(sys.argv[1]) == long
metrics.acceleration_ratio(long, samples=False)
metrics.performance_ratio(long, samples=False)
lpt = exponential_schedule(ExponentialSpec(n=2, m=2, base=1.004, k_max=2 * metrics._PART_MIN - 1))
metrics.deficiency(lpt, solver="lpt", samples=False)
print(len(forks), "contractsched._parts" in sys.modules)
"""


def test_below_each_least_nothing_forks_and_parts_is_not_imported(tmp_path):
    package_root = os.path.dirname(os.path.dirname(contractsched.__file__))
    path = [package_root] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run([sys.executable, "-c", BELOW_EACH_LEAST, str(tmp_path / "s.json")], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
