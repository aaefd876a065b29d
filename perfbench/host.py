"""Host readings taken around each run, so a noisy-neighbour window shows:
the CPUs the process may use, steal time, load average and the resident
memory of the benchmark's process tree (this process plus every Ray process
it started)."""

from __future__ import annotations

import os


def cpus() -> int:
    """CPUs in this process's affinity set (``nproc`` can print less when
    ``OMP_NUM_THREADS`` is exported)."""
    return len(os.sched_getaffinity(0))


def steal_jiffies() -> int:
    """CPU time the host gave to other guests, summed over all CPUs."""
    with open("/proc/stat") as f:
        # cpu user nice system idle iowait irq softirq steal ...
        fields = f.readline().split(maxsplit=9)
    return int(fields[8]) if len(fields) > 8 else 0


def loadavg() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:  # the process ended while we looked
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def tree_pids(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all its descendants."""
    kids = _children()
    out, todo = [], [root or os.getpid()]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def tree_rss_mb(root: int | None = None) -> float:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in tree_pids(root):
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except OSError:
            continue
    return total / 2**20
