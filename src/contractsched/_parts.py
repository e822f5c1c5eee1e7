"""Contiguous parts of one task run side by side: the first in this process, every other in a forked child.

Five tasks split this way, each through ``core._split_count``: the
value-only acceleration and performance ratios and LPT deficiency
(``metrics``) and ``verification.run_checks`` cut their windows and checks
with ``core._split``, ``core.save_schedule`` its contract rows, and
``core._parse`` the contract rows of a long file whose contracts come
last, as ``save_schedule`` writes them (``_parse_in_pieces``).
``core._split_count`` alone decides how many parts a task runs in; this
module only cuts and runs them.  A task imports it only once it is long enough to
split, so a command that never splits never compiles it.
"""

from __future__ import annotations

import gc
import io
import json
import marshal
import os
import time
from functools import partial
from itertools import chain
from typing import BinaryIO, Callable

from .core import _COLUMN_FIELDS, _CONTRACTS

# A child that has not reported this many times the caller's own part later, plus _WAIT_S seconds, is
# taken for hung (``_in_parts``); its part is no longer than the caller's.
_WAIT_FACTOR, _WAIT_S = 10, 1.0

# How many times as many items the caller's own range takes as each child's, where the items are of one
# kind (``_cuts``): windows, contract rows or a file's characters.  A child also forks, finds where its range
# starts and sends its part back, so on two CPUs the caller's range holds 55% of the items.  On the 100k
# ``long-prefix-cli`` prefix, in fresh processes (medians of 15, 2-vCPU Xeon, Python 3.11), a lead of 1.0, 1.1,
# 1.2, 1.3, 1.4 and 1.6 took 131.6, 130.5, 127.4, 124.4, 126.0 and 129.4 ms for gen; 156.0, 155.0, 155.0,
# 155.9, 156.0 and 157.1 ms for the acceleration ratio's eval (its 5.9 MB file loads in pieces too); and
# 235.2, 229.1, 233.1, 236.8, 242.8 and 250.0 ms for the LPT deficiency's: 681, 669, 673, 675, 683 and 695 ms
# with perf's.  Over 21 more rounds 1.1, 1.2 and 1.3 took 671.8, 672.9 and 677.0 ms, so 1.2 stays.
_LEAD = 1.2


def _cuts(items: int, count: int, lead: bool = True) -> list[int]:
    """The bounds of ``count`` contiguous ranges of ``range(items)``: 0, where each later range starts, and ``items``.

    With ``lead`` the first range is ``_LEAD`` times as long as each other;
    without it the ranges are of equal count.
    """
    first = _LEAD if lead else 1.0
    return [0, *(int(items * (first + j - 1) / (first + count - 1)) for j in range(1, count)), items]


def _in_parts(run: Callable[[int, int], object], ranges: list[tuple[int, int]], out: BinaryIO | None = None) -> list:
    """``run(lo, hi)`` for each range, in order: the first in this process, every other in a forked child.

    Each child evaluates its range while this process evaluates the first,
    and sends its part back through a pipe after the part's length
    (``_copy``), ``marshal``-encoded (so a part holds only lists, tuples,
    dicts, strings, numbers and None).  With
    ``out``, a seekable binary file, ``run`` yields its range's bytes in
    blocks instead, and the parts are written to ``out`` in range order, not
    returned: the first range's blocks as they come, then each child's bytes
    as they arrive from its pipe (``_copy``), so no part is held here whole.
    A child writes nothing else and always ends with ``os._exit``, so it
    runs no exit handler and flushes no buffer it inherited.  A range whose
    child was never forked, or sent no complete part (it raised, was killed,
    or had not finished ``_WAIT_FACTOR`` times the first range's time plus
    ``_WAIT_S`` seconds after it), is run here instead, in range order, so
    an exception is raised with the type and message a serial run gives, the
    earliest range first; what such a child wrote to ``out`` is cut off
    first.  Every child forked is killed if still running and reaped before
    this returns or raises, a KeyboardInterrupt included.
    """
    import signal  # here, so a caller that never splits never loads it

    children: list[tuple[int, int] | None] = []  # (pid, read end of its pipe) per later range
    try:
        for lo, hi in ranges[1:]:
            children.append(_fork(run, lo, hi, out is not None))
        start = time.monotonic()
        parts = []
        if out is None:
            parts.append(run(*ranges[0]))
        else:
            out.writelines(run(*ranges[0]))
        now = time.monotonic()
        deadline = now + _WAIT_FACTOR * (now - start) + _WAIT_S
        for child, (lo, hi) in zip(children, ranges[1:]):
            if out is None:
                part = None if child is None else _receive(child[1], deadline)
                parts.append(run(lo, hi) if part is None else part)
                continue
            mark = out.tell()
            if child is None or not _copy(child[1], deadline, out):
                out.seek(mark)
                out.truncate()
                out.writelines(run(lo, hi))
        return parts
    finally:
        for child in children:
            if child is not None:
                pid, read = child
                os.close(read)
                os.kill(pid, signal.SIGKILL)  # a child not yet reaped keeps its pid, so no other process is hit
                os.waitpid(pid, 0)


def _fork(run: Callable[[int, int], object], lo: int, hi: int, raw: bool = False) -> tuple[int, int] | None:
    """A child running ``run(lo, hi)`` into a pipe: (its pid, the pipe's read end), or None if none was forked.

    The child sends its part ``marshal``-encoded or, if ``raw``, as the
    bytes ``run`` yields, after the part's length (``_copy``).
    """
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
            data = b"".join(run(lo, hi)) if raw else marshal.dumps(run(lo, hi))
            with open(write, "wb") as pipe:
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _receive(read: int, deadline: float) -> tuple | None:
    """The part a child sent through the pipe ``read``, ``marshal``-decoded: None if not all of it came by ``deadline``."""
    part = io.BytesIO()
    return marshal.loads(part.getbuffer()) if _copy(read, deadline, part) else None


def _copy(read: int, deadline: float, out: BinaryIO) -> bool:
    """Copy the part a child sends through the pipe ``read`` to ``out`` as it arrives: whether all of it came in time.

    A child sends the part's length in 8 bytes (little-endian), then the
    part.  The copy ends with the part, or at the pipe's end (the child
    raised or was killed), or at ``deadline``, a ``time.monotonic`` time.
    """
    import select

    poll = select.poll()
    poll.register(read, select.POLLIN)
    head, left = b"", -1
    while left and poll.poll(max(0.0, deadline - time.monotonic()) * 1000):
        chunk = os.read(read, 1 << 16)
        if not chunk:
            break
        if left < 0:
            head += chunk
            if len(head) < 8:
                continue
            left, chunk = int.from_bytes(head[:8], "little"), head[8:]
        out.write(chunk)
        left -= len(chunk)
    return left == 0


def _parse_in_pieces(text: str, count: int) -> tuple[dict, list[tuple]] | None:
    """``core._parse`` in ``count`` pieces: (document, contract columns), or None where the contracts do not come last.

    The caller parses the first piece of the ``"contracts"`` array and a
    forked child each other one (``_in_parts``); each child sends its
    piece's columns back by ``marshal`` (``_piece``).  The columns are the
    pieces' problems, processors and lengths, each joined into one tuple,
    and the document has no ``"contracts"``.  The pieces joined are what one ``json.loads(text)``
    gives, because:

    * the head: ``json.loads(text[:i] + "}")``, i where the first
      ``core._CONTRACTS`` starts, is a non-empty object.  The ``}`` that
      ends a JSON text closes its top-level object, so ``text[i]`` is the
      ``,`` after a member, and the ``[`` opens a top-level ``"contracts"``;
    * the cuts: each is the ``},{`` that ``text.find`` gives at or after a
      target, and they strictly increase.  Each piece, the last one up to
      the ``]`` of the ``]}`` that the text ends with but for JSON
      whitespace (space, tab, LF, CR), parses as ``"[" + piece + "]"`` into
      a non-empty list (an empty one would hide a ``,,``).  JSON is read
      left to right, so a piece that starts where a row may start and parses
      whole ends where a row ends, outside every string: the ``,`` after it
      is the array's own, and after the last one ``]}`` closes the array and
      the document.  The contracts are its last member, and json keeps the
      last of a repeated key, so a ``"contracts"`` in the head is dropped.

    A head or piece that does not parse raises here, a piece also when its
    child failed or outlived the bounded wait, since ``_in_parts`` then
    parses it here; ``core._parse`` then falls back to one ``json.loads``.
    """
    end = len(text)
    while end and text[end - 1] in " \t\n\r":  # json's whitespace only, and no copy of the text
        end -= 1
    i = text.find(_CONTRACTS)
    doc = json.loads(text[:i] + "}") if i > 0 and text[end - 2:end] == "]}" else None
    if not doc:  # also "{" alone before the contracts, which json refuses
        return None
    doc.pop("contracts", None)
    a, z = i + len(_CONTRACTS), end - 2  # the array's first character, and its "]"
    cuts: list[int] = []  # index of each cut's "}"
    for target in _cuts(z - a, count)[1:-1]:
        cut = text.find("},{", a + target, z)
        if cut < 0 or (cuts and cut <= cuts[-1]):
            return None
        cuts.append(cut)
    ranges = list(zip([a] + [cut + 2 for cut in cuts], [cut + 1 for cut in cuts] + [z]))
    return doc, [tuple(chain.from_iterable(pieces)) for pieces in zip(*_in_parts(partial(_piece, text), ranges))]


def _piece(text: str, lo: int, hi: int) -> list[list]:
    """The rows of ``text[lo:hi]``, a piece of the contracts array, as columns.

    The columns are the rows' problems, processors and lengths, three flat
    lists that ``marshal`` sends in two thirds of the time of row tuples; a
    row that lacks a field raises KeyError, and one that is not an object
    TypeError, as with ``core._COLUMN_FIELDS``.  Raises ValueError where
    ``core._parse`` must fall back.
    """
    rows = json.loads(f"[{text[lo:hi]}]")
    if not rows:
        raise ValueError("an empty piece of the contracts")
    return [list(map(field, rows)) for field in _COLUMN_FIELDS]
