"""Contiguous parts of one task run side by side: the first in this process, every other in a forked child.

Two tasks split this way, each through ``core._split``: the windows of
the value-only LPT deficiency (``metrics``) and the checks of
``verification.run_checks``.  ``core._split_count`` alone decides how many
parts a task runs in; this module only cuts and runs the parts.  A task
imports it only once it is long enough to split, so a command that never
splits never compiles it.
"""

from __future__ import annotations

import gc
import marshal
import os
import time
from typing import Callable

# A child that has not reported this many times the caller's own part later, plus _WAIT_S seconds, is
# taken for hung (``_in_parts``); its part is about as long as the caller's (``_cuts``).
_WAIT_FACTOR, _WAIT_S = 10, 1.0


def _cuts(items: int, count: int) -> list[int]:
    """The bounds of ``count`` contiguous ranges of ``range(items)``: 0, where each later range starts, and ``items``.

    The ranges are of equal count, within one item, in either split task:
    windows or checks.
    """
    return [items * j // count for j in range(count + 1)]


def _in_parts(run: Callable[[int, int], object], ranges: list[tuple[int, int]]) -> list:
    """``run(lo, hi)`` for each range, in order: the first in this process, every other in a forked child.

    Each child evaluates its range while this process evaluates the first,
    and sends its part back through a pipe after the part's length
    (``_receive``), ``marshal``-encoded (so a part holds only lists, tuples,
    dicts, strings, numbers and None).  A child writes nothing else and
    always ends with ``os._exit``, so it runs no exit handler and flushes no
    buffer it inherited.  A range whose child was never forked, or sent no
    complete part (it raised, was killed, or had not finished
    ``_WAIT_FACTOR`` times the first range's time plus ``_WAIT_S`` seconds
    after it), is run here instead, in range order, so an exception is
    raised with the type and message a serial run gives, the earliest range
    first.  Every child forked is killed if still running and reaped before
    this returns or raises, a KeyboardInterrupt included.
    """
    import signal  # here, so a caller that never splits never loads it

    children: list[tuple[int, int] | None] = []  # (pid, read end of its pipe) per later range
    try:
        for lo, hi in ranges[1:]:
            children.append(_fork(run, lo, hi))
        start = time.monotonic()
        parts = [run(*ranges[0])]
        now = time.monotonic()
        deadline = now + _WAIT_FACTOR * (now - start) + _WAIT_S
        for child, (lo, hi) in zip(children, ranges[1:]):
            part = None if child is None else _receive(child[1], deadline)
            parts.append(run(lo, hi) if part is None else part)
        return parts
    finally:
        for child in children:
            if child is not None:
                pid, read = child
                os.close(read)
                os.kill(pid, signal.SIGKILL)  # a child not yet reaped keeps its pid, so no other process is hit
                os.waitpid(pid, 0)


def _fork(run: Callable[[int, int], object], lo: int, hi: int) -> tuple[int, int] | None:
    """A child sending ``run(lo, hi)`` through a pipe (``_receive``): (its pid, the read end), or None if not forked."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            # a child's garbage dies with it (one running verify's checks peaks at about 17 MB), and
            # collecting the parent's garbage here would run its finalizers a second time
            gc.disable()
            os.close(read)
            data = marshal.dumps(run(lo, hi))
            with open(write, "wb") as pipe:
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _receive(read: int, deadline: float) -> object | None:
    """The part a child sent through the pipe ``read``, ``marshal``-decoded: None if not all of it came by ``deadline``.

    A child sends the part's length in 8 bytes (little-endian), then the
    part.  The read ends with the part, or at the pipe's end (the child
    raised or was killed), or at ``deadline``, a ``time.monotonic`` time.
    """
    import select

    poll = select.poll()
    poll.register(read, select.POLLIN)
    data, size = bytearray(), None  # size: the length and the part, once the length has come
    while (size is None or len(data) < size) and poll.poll(max(0.0, deadline - time.monotonic()) * 1000):
        chunk = os.read(read, 1 << 16)
        if not chunk:
            break
        data += chunk
        if size is None and len(data) >= 8:
            size = 8 + int.from_bytes(data[:8], "little")
    return marshal.loads(memoryview(data)[8:]) if len(data) == size else None

