"""How many processes a command may fork for work that splits."""

import os
import threading


def worker_count(limit: int) -> int:
    """One worker per CPU in this process's affinity mask, at most ``limit``.

    ``taskset`` limits the mask. Forking a process that runs other threads
    can deadlock the child, so such a process, like one on an OS without
    affinity masks, gets one worker: itself.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), limit))
