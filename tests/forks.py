"""The fork seam the split tests share: a recording ``_parts._fork``, a usable-CPU count, and a reaped-children check.

A test module imports these and keeps only the threshold of the split it
tests: ``metrics._PART_MIN`` for the value-only LPT deficiency's windows;
``verify`` splits from two checks.
"""

import os

import pytest

from contractsched import _parts, core


def record_forks(monkeypatch, cpus=None, pids=False):
    """Record each range ``_parts._fork`` gives a child, with ``cpus`` usable CPUs if given, whatever the host.

    Returns the list of (lo, hi) ranges, or of (lo, hi, pid) with ``pids``,
    the pid None where no child was forked.
    """
    forked = []
    fork = _parts._fork

    def recording(run, lo, hi):
        child = fork(run, lo, hi)
        forked.append((lo, hi, child and child[0]) if pids else (lo, hi))
        return child

    if cpus is not None:
        monkeypatch.setattr(core, "_cpus", lambda: cpus)
    monkeypatch.setattr(_parts, "_fork", recording)
    return forked


def assert_no_child_left():
    # waitpid sees every child, whichever way it was started
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
