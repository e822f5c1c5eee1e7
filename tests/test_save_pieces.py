"""save_schedule in ranges side by side: the same bytes as json.dumps, whatever a child does."""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

import contractsched
from contractsched import Contract, ExponentialSpec, Schedule, exponential_schedule, save_schedule, schedule_to_dict
from contractsched import _parts, core

from forks import assert_no_child_left, record_forks

GENERATOR = {"family": "exponential", "base": 1.004, "note": "café"}


def forced_ranges(monkeypatch):
    """Save every schedule of at least 200 rows in up to three ranges, whatever the host: returns the ranges forked."""
    monkeypatch.setattr(core, "_SAVE_MIN", 100)
    return record_forks(monkeypatch, cpus=3, pids=True)


def dump(s):
    return (json.dumps(schedule_to_dict(s), separators=(",", ":")) + "\n").encode()


def prefix(k, generator):
    s = exponential_schedule(ExponentialSpec(n=3, m=2, base=1.01, k_max=k))
    return s if generator else s._replace(generator=None)


@pytest.mark.parametrize("generator", [False, True], ids=["plain", "generator"])
@pytest.mark.parametrize("k", [200, 299, 300, core._BLOCK + 1, 3 * core._BLOCK + 7, 8000])
def test_a_split_save_writes_the_compact_json_dump(tmp_path, monkeypatch, k, generator):
    s = prefix(k, generator)
    forked = forced_ranges(monkeypatch)
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert path.read_bytes() == dump(s)
    assert len(forked) == min(k // 100, 3) - 1
    assert_no_child_left()


def test_a_split_save_writes_a_generator_of_any_text_as_json_does(tmp_path, monkeypatch):
    rows = [Contract(i % 3, i % 2, 1.0 + i / 7) for i in range(700)]
    s = Schedule(3, 2, rows, generator=GENERATOR)
    forked = forced_ranges(monkeypatch)
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert path.read_bytes() == dump(s) and len(forked) == 2
    assert_no_child_left()


@pytest.mark.parametrize("failure", ["fork-refused", "child-raises", "child-killed", "child-hangs",
                                     "killed-mid-copy"])
def test_a_failed_child_leaves_the_save_as_one_write(tmp_path, monkeypatch, failure):
    # 8,000 rows: a child's range is about 200 kB, more than a pipe holds, so a child killed while the
    # saving process copies its bytes has sent only some of them
    s = prefix(8000, True)
    forked = forced_ranges(monkeypatch)
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    monkeypatch.setattr(_parts, "_WAIT_S", 0.2)
    fork, copy = _parts._fork, _parts._copy
    copied = []

    def refused():
        raise OSError("fork refused")

    def failing_fork(run, lo, hi, raw):
        def failing(lo, hi):  # runs in the child only
            if failure == "child-killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if failure == "child-hangs":
                threading.Event().wait()  # as on a lock a thread of the parent held when it forked
            raise RuntimeError("only a child fails")

        return fork(failing, lo, hi, raw)

    class Killing:
        """The file, with the child killed once the first of its bytes are written."""

        def __init__(self, out):
            self.out, self.written = out, 0

        def write(self, chunk):
            if chunk and not self.written:
                os.kill(forked[0][2], signal.SIGKILL)
            self.written += len(chunk)
            return self.out.write(chunk)

    def killing_copy(read, deadline, out):
        killing = Killing(out)
        whole = copy(read, deadline, killing)
        copied.append((whole, killing.written))
        return whole

    if failure == "fork-refused":
        monkeypatch.setattr(os, "fork", refused)
    elif failure == "killed-mid-copy":
        monkeypatch.setattr(_parts, "_copy", killing_copy)
    else:
        monkeypatch.setattr(_parts, "_fork", failing_fork)
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert path.read_bytes() == dump(s)
    if failure == "killed-mid-copy":
        (whole, written), = copied
        assert not whole and written > 0  # some of the child's bytes were written, then cut off
    assert_no_child_left()


def test_an_interrupted_save_leaves_a_partial_file_and_no_child(tmp_path, monkeypatch):
    s = prefix(8000, True)
    forked = forced_ranges(monkeypatch)
    in_parts, parent = _parts._in_parts, os.getpid()

    def interrupted(run, ranges, out=None):
        def first_range_interrupted(lo, hi):
            if os.getpid() == parent and lo == 0:
                raise KeyboardInterrupt
            return run(lo, hi)

        return in_parts(first_range_interrupted, ranges, out)

    monkeypatch.setattr(_parts, "_in_parts", interrupted)
    path = tmp_path / "s.json"
    path.write_bytes(dump(s))
    with pytest.raises(KeyboardInterrupt):
        save_schedule(s, path)
    assert path.read_bytes() == b'{"n":3,"m":2,"generator":{"family":"exponential","base":1.01},"contracts":['
    assert len(forked) == 2
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_a_save_into_a_pipe_runs_in_one_range(tmp_path, monkeypatch):
    # a pipe cannot seek, so a child's failure part way could not be cut off there
    s = prefix(2000, True)
    forked = forced_ranges(monkeypatch)
    fifo, copy = tmp_path / "fifo", tmp_path / "copy.json"
    os.mkfifo(fifo)
    with open(copy, "wb") as out:
        reader = subprocess.Popen(["cat", str(fifo)], stdout=out)
        try:
            save_schedule(s, fifo)
        finally:
            assert reader.wait(timeout=60) == 0
    assert copy.read_bytes() == dump(s) and forked == []
    assert_no_child_left()


BELOW_EACH_LEAST = """
import os, sys
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
from contractsched import ExponentialSpec, exponential_schedule, load_schedule, save_schedule
from contractsched import core, metrics
ratios = 2 * metrics._RATIO_PART_MIN - 1
s = exponential_schedule(ExponentialSpec(n=2, m=2, base=1.004, k_max=ratios))
assert len(metrics.critical_times(s)) == ratios and len(s) < 2 * core._SAVE_MIN
metrics.acceleration_ratio(s, samples=False)
metrics.performance_ratio(s, samples=False)
lpt = exponential_schedule(ExponentialSpec(n=2, m=2, base=1.004, k_max=2 * metrics._PART_MIN - 1))
metrics.deficiency(lpt, solver="lpt", samples=False)
save_schedule(s, sys.argv[1])
save_schedule(lpt, sys.argv[1])
assert os.path.getsize(sys.argv[1]) < 2 * core._PARSE_MIN
assert load_schedule(sys.argv[1]) == lpt
print(len(forks), "contractsched._parts" in sys.modules)
"""


def test_below_each_least_nothing_forks_and_parts_is_not_imported(tmp_path):
    package_root = os.path.dirname(os.path.dirname(contractsched.__file__))
    path = [package_root] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run([sys.executable, "-c", BELOW_EACH_LEAST, str(tmp_path / "s.json")], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_a_long_prefix_is_saved_in_ranges_by_default_on_more_than_one_cpu(tmp_path, monkeypatch):
    s = exponential_schedule(ExponentialSpec(n=4, m=2, base=1.004, k_max=2 * core._SAVE_MIN))
    forked = record_forks(monkeypatch)
    path = tmp_path / "s.json"
    save_schedule(s, path)
    assert path.read_bytes() == dump(s)
    assert (forked == [(10_909, 20_000)]) == (core._cpus() > 1)
    assert_no_child_left()
