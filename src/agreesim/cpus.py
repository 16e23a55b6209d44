"""How many processes a command may fork for work that splits, and the forked children."""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Sequence
from typing import BinaryIO


def worker_count(limit: int) -> int:
    """One worker per CPU in this process's affinity mask, at most ``limit``.

    ``taskset`` limits the mask. Forking a process that runs other threads
    can deadlock the child, so such a process, like one on an OS without
    affinity masks, gets one worker: itself.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), limit))


class Children:
    """Forked children that each write one result into a pipe; none outlives the ``with`` block.

    A plain fork shares this process's memory copy-on-write, so a child
    needs no arguments sent and no import repeated. A child leaves by
    ``os._exit``, so it runs no cleanup of this process and flushes none of
    its streams. A child whose result is not read is killed: nothing it
    holds needs cleaning up.
    """

    def __init__(self) -> None:
        self._live: dict = {}  # key -> (pid, read end of its pipe)

    def __enter__(self) -> Children:
        return self

    def __exit__(self, *_exc) -> None:
        while self._live:
            from signal import SIGKILL  # only a command that fails pays for the import

            _key, (pid, r) = self._live.popitem()
            os.close(r)
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)

    def fork(self, key, work: Callable[[BinaryIO], None]) -> bool:
        """Run ``work`` on the write end of a new pipe in a forked child.

        Returns False, and forks nothing, when no process can be spared.
        """
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return False
        if pid == 0:
            code = 1
            try:
                os.close(r)
                for _pid, other in self._live.values():  # older siblings' read ends
                    os.close(other)
                with open(w, "wb") as out:
                    work(out)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self._live[key] = (pid, r)
        return True

    def result(self, key, read: Callable[[BinaryIO], object]):
        """What ``read`` makes of the pipe of ``key``'s child, or None.

        None means there is no such child, or it died: it exited non-zero,
        was killed, or ``read`` returned None for a stream cut short.
        """
        if key not in self._live:
            return None
        pid, r = self._live.pop(key)
        try:
            with open(r, "rb") as stream:
                value = read(stream)
                stream.read()  # to EOF: the child has finished writing
        finally:
            _pid, status = os.waitpid(pid, 0)
        return value if status == 0 else None


def split_map(work: Callable, parts: Sequence, take: Callable) -> None:
    """``take(work(p))`` for each part p in order: the first part here, each other in a forked child.

    A child pickles its result into its pipe; here one result is held at a
    time. A part whose child cannot be forked, dies or is cut short is
    redone here, so what ``take`` gets does not depend on how many children
    ran. An error that ``work`` or ``take`` raises, here or in a child,
    propagates, and no child outlives the call.
    """
    import pickle  # only a split pays for the import

    def dump(part, out: BinaryIO) -> None:
        pickler = pickle.Pickler(out, pickle.HIGHEST_PROTOCOL)
        pickler.fast = True  # no memo: the results hold no cycles and few shared objects
        pickler.dump(work(part))

    def load(stream: BinaryIO) -> tuple | None:
        # Streamed: a result read whole into bytes first would double its size in memory.
        try:
            return (pickle.load(stream),)  # boxed, so a result of None is not a dead child
        except (EOFError, pickle.UnpicklingError):  # what a stream cut short gives
            return None

    def result(k: int):
        got = children.result(k, load)
        return got[0] if got is not None else work(parts[k])

    with Children() as children:
        for k in range(1, len(parts)):
            if not children.fork(k, lambda out, part=parts[k]: dump(part, out)):
                break  # no process to spare: do the rest here
        for k in range(len(parts)):
            take(result(k))  # no name here holds a result while the next one loads
