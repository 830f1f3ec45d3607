"""Op clock net of hypervisor steal.

On a shared virtual machine the host now and then keeps a vCPU from running
("steal"), for stretches that last from milliseconds to minutes, and wall
time then measures the neighbours as much as the program.  So a benchmark
run pins itself, with every thread it starts, to one CPU and times ops as
wall time minus the steal time the kernel reports for that CPU in
``/proc/stat`` (in clock ticks).  Where there is no such counter, or before
``pin()``, the clock is plain wall time.
"""

from __future__ import annotations

import os
import time

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_label: str | None = None  # "cpuN " once pinned


def pin() -> None:
    """Pin this process, and the threads it starts later, to one CPU."""
    global _label
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return
    _label = f"cpu{cpu} "


def steal_s() -> float:
    """Seconds the pinned CPU has been stolen since boot (0.0 if unknown)."""
    if _label is None:
        return 0.0
    try:
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith(_label):
                    fields = line.split()
                    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


def now() -> float:
    """Wall seconds minus steal; only differences of two readings mean anything."""
    return time.perf_counter() - steal_s()
