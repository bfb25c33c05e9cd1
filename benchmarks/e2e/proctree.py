"""Process-tree accounting through ``/proc``, by session id.

``run.py`` starts each workload process as the leader of a new session,
so "the workload's process tree" is every process of that session:
``multiprocessing`` workers, the resource tracker, and anything they
start.  Zombies are left out: they hold no resources and are reaped by
whoever inherited them.
"""

from __future__ import annotations

import os
import resource

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def session_stats(session: int) -> dict[int, list[str]]:
    """pid -> ``/proc/<pid>/stat`` fields from ``state`` on, for live processes."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:  # exited while we were listing
            continue
        # fields[0] = state, [3] = session, [11] = utime, [12] = stime
        if int(fields[3]) == session and fields[0] != "Z":
            found[int(entry)] = fields
    return found


def tree_cpu_s() -> float:
    """User+system CPU seconds of this session, reaped children included.

    The calling process and its reaped children are read from
    ``getrusage`` (microseconds); live children only show in ``/proc``,
    in clock ticks.
    """
    me = os.getpid()
    live = sum(
        (int(fields[11]) + int(fields[12])) / _CLK_TCK
        for pid, fields in session_stats(os.getsid(0)).items()
        if pid != me
    )
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return live + own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest live child."""
    me = os.getpid()
    children = [_hwm_kb(pid) for pid in session_stats(os.getsid(0)) if pid != me]
    return (_hwm_kb(me) + max(children, default=0)) / 1024.0
