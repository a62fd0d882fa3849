"""CPU and peak memory of a process tree, read from ``/proc``.

The tree is the root pid plus every live descendant, found by scanning
``/proc/<pid>/stat`` parent links (``/proc/<pid>/task/<tid>/children``
is not compiled into every kernel).  Processes and threads may exit
between listing and reading; a pid that vanished is skipped for that
sample.

* CPU: the root's user+sys time including its reaped children
  (``cutime``/``cstime``), plus user+sys of every live descendant.  A
  worker that dies and is reaped moves from the second term into the
  first, and a respawned worker is a new descendant, so the total only
  grows and no worker's time is lost or counted twice.
* Memory: the largest ``VmHWM`` seen per pid, summed over every pid the
  sampler ever saw in the tree (respawned workers included).
"""

from __future__ import annotations

import os
import threading

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except (FileNotFoundError, ProcessLookupError):
        return None
    # comm (field 2) may hold spaces and parentheses: split after the
    # last ')'; the remainder starts at field 3 (state)
    return raw[raw.rindex(")") + 2:].split()


def _hwm_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        return None
    return None  # a zombie has no memory lines


def host_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine so far: the share
    of its time the hypervisor gave to other guests."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def descendants(root: int) -> list[int]:
    """Live descendants of ``root`` (not ``root`` itself)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


class ProcTree:
    """Sampler of one process tree's CPU seconds and summed peak RSS.

    ``with ProcTree(pid, interval_s=0.25) as tree: ...`` samples on a
    background thread so short-lived workers are seen; :meth:`cpu_s`
    reads the current total on demand.
    """

    def __init__(self, root: int, interval_s: float = 0.25):
        self.root = root
        self.interval_s = interval_s
        self._hwm: dict[int, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def cpu_s(self) -> float:
        """User+sys seconds of the tree so far (see module docstring)."""
        fields = _stat_fields(self.root)
        if fields is None:
            raise ProcessLookupError(f"pid {self.root} is gone")
        # fields[11:15] = utime, stime, cutime, cstime (stat 14-17)
        ticks = sum(int(v) for v in fields[11:15])
        for pid in descendants(self.root):
            child = _stat_fields(pid)
            if child is not None:
                ticks += int(child[11]) + int(child[12])
        self.sample_memory()
        return ticks / _TICK

    def sample_memory(self) -> None:
        for pid in [self.root] + descendants(self.root):
            kb = _hwm_kb(pid)
            if kb is not None:
                with self._lock:
                    self._hwm[pid] = max(self._hwm.get(pid, 0), kb)

    def peak_rss_mb(self) -> float:
        with self._lock:
            return sum(self._hwm.values()) / 1024.0

    def pids_seen(self) -> int:
        with self._lock:
            return len(self._hwm)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_memory()

    def __enter__(self) -> "ProcTree":
        self.sample_memory()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-proctree")
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sample_memory()
