"""Writing a run of items with every CPU this process may use.

:func:`write_in_parts` splits the items into contiguous parts, one per CPU in
``os.sched_getaffinity(0)``. This process writes part 0 to the stream. A
forked child writes each other part to an anonymous file
(``os.memfd_create``), and this process appends those files in order, a
block at a time, once its own part is written. The writers that use it turn
each item into bytes that depend on that item alone, so the output does not
depend on the split.

The items are written inline, here and in order, when only one CPU is
available, when a part would hold fewer than :data:`MIN_PART_ITEMS` items,
when ``os.fork``, ``os.sched_getaffinity`` or ``os.memfd_create`` is missing,
or when this process runs more than one OS thread (BLAS threads count): a
fork there can deadlock on a lock another thread holds, and from Python 3.12
on it warns.

Errors mean what they mean inline. The first failing item in input order
wins: the output before it is written as the inline run writes it, and its
exception is raised unchanged. Every child is reaped on every path; when
this process's own part raises, the children are killed first.
"""

from __future__ import annotations

import io
import os
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from itertools import islice
from typing import IO

from .util import LazyItems

# Fewer items than this per part, and the items are written inline. Writing
# in parts costs about 3 ms in a 45 MB process: the fork, copy-on-write
# faults, the child's exit and the append. A part this size takes 12 to 25 ms
# of labeled CSV rows and 25 to 60 ms of feature rows (netflow_v2 to cic),
# but only 2 ms of pcap frames, which gain from parts of about 8,000 on.
MIN_PART_ITEMS = 1024
# Bytes of a part's file held at once while it is appended.
_COPY_BLOCK = 1 << 16


def write_in_parts(stream: IO, items: LazyItems | Sequence | Iterable,
                   write: Callable[[IO, Iterable], None], align: int = 1):
    """``write(out, part)`` for each part of ``items``: into ``stream`` here
    for part 0, into an anonymous file in a forked child for the others,
    which are then appended to ``stream`` in order.

    ``items`` is a :class:`~flowlens.util.LazyItems` or a sequence; any
    other iterable is written inline. Parts start at multiples of
    ``align``, so a writer that works in blocks of that many items starts
    each part where its inline run starts a block, and stops at the same
    block when an item fails. A text ``stream`` must have a ``buffer`` (an
    open file), which the parts are appended to.
    """
    if isinstance(items, LazyItems):
        count, between = items.count, items.between
    elif isinstance(items, Sequence):
        count, between = len(items), partial(islice, items)
    else:
        write(stream, items)
        return
    bounds = [*_part_starts(count, align), count]
    if len(bounds) == 2:
        write(stream, between(0, count))
        return
    text = isinstance(stream, io.TextIOBase)
    opener = (partial(open, mode="w", encoding=stream.encoding, errors=stream.errors, newline="")
              if text else partial(open, mode="wb"))
    stream.flush()  # bytes not yet written must not be copied into a child
    children: list[_Child] = []
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            children.append(_fork(opener, write, between, start, stop))
        write(stream, between(0, bounds[1]))
        stream.flush()
        target = stream.buffer if text else stream
        for child in children:
            _, status = os.waitpid(child.pid, 0)
            child.pid = 0
            _append(child.out, target)
            if status:
                raise _failure(child, status)
    finally:
        for child in children:
            if child.pid:
                import signal  # like pickle, imported on error paths only

                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
            os.close(child.out)
            os.close(child.err)


def _part_starts(count: int, align: int) -> list[int]:
    """The first item of each part; ``[0]`` when the items are written inline."""
    parts = count // MIN_PART_ITEMS
    if parts < 2 or not _can_fork():
        return [0]
    parts = min(parts, len(os.sched_getaffinity(0)))
    return sorted({count * k // parts // align * align for k in range(parts)})


def _can_fork() -> bool:
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create")):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc: the threads cannot be counted
        return False


class _Child:
    __slots__ = ("pid", "out", "err", "start", "stop")

    def __init__(self, pid: int, out: int, err: int, start: int, stop: int):
        self.pid = pid  # 0 once reaped
        self.out = out  # the anonymous file of its part
        self.err = err  # the anonymous file of its pickled exception, if it raised
        self.start = start
        self.stop = stop


def _fork(opener, write, between, start: int, stop: int) -> _Child:
    fds: list[int] = []
    try:
        fds.append(os.memfd_create("flowlens-part"))
        fds.append(os.memfd_create("flowlens-part-error"))
        pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        raise
    out, err = fds
    if pid == 0:
        _run_child(opener, write, partial(between, start, stop), out, err)
    return _Child(pid, out, err, start, stop)


def _run_child(opener, write, items: Callable[[], Iterable], out: int, err: int):
    """Write ``items()`` to the file ``out`` and leave the process: status 0,
    or status 1 with the exception pickled into ``err``. Nothing runs after
    this in the child, not even the exit handlers of the process it was
    forked from."""
    code = 1
    try:
        try:
            with opener(out, closefd=False) as fh:
                write(fh, items())
            code = 0
        except BaseException as exc:
            import pickle

            try:
                data = pickle.dumps(exc)
                pickle.loads(data)
            except Exception:  # an exception that does not survive the trip
                data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            os.write(err, data)
    finally:
        os._exit(code)


def _append(fd: int, target: IO):
    offset = 0
    while block := os.pread(fd, _COPY_BLOCK, offset):
        target.write(block)
        offset += len(block)


def _failure(child: _Child, status: int) -> BaseException:
    """The exception of a child that did not end with status 0."""
    code = os.waitstatus_to_exitcode(status)
    data = os.pread(child.err, os.fstat(child.err).st_size, 0)
    if code == 1 and data:
        import pickle

        return pickle.loads(data)  # written by this program's own child
    return RuntimeError(f"the process writing items {child.start} to {child.stop - 1} "
                        f"ended with status {code}")
