"""Process-level measurements read from ``/proc`` and small statistics.

Everything here observes the benchmark's own process (and its live
children, for the worker pool) from the outside; nothing touches the
system under test.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics §1), e.g. p95 needs >= 200 samples.
MIN_SAMPLES_BEYOND = 10


def status_kib(field: str, pid: int | str = "self") -> int:
    """One ``kB`` field (``VmRSS``, ``VmHWM``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def _stat_fields(pid: int | str) -> list[str]:
    with open(f"/proc/{pid}/stat") as handle:
        # The command name (field 2) may contain spaces; split after it.
        return handle.read().rsplit(")", 1)[1].split()


def process_age_s() -> float:
    """Seconds since this process was started (interpreter boot included)."""
    start_ticks = int(_stat_fields("self")[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / _CLK_TCK


def children_pids() -> list[int]:
    """Live direct children of this process (the pool workers)."""
    pids: list[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def children_cpu_s() -> float:
    """CPU seconds used so far by live children plus reaped ones."""
    total = sum(os.times()[2:4])
    for pid in children_pids():
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def cpu_s() -> float:
    """CPU seconds of this process and its children so far."""
    return time.process_time() + children_cpu_s()


def children_peak_rss_kib() -> int:
    """Largest ``VmHWM`` among live children (0 without children)."""
    peak = 0
    for pid in children_pids():
        try:
            peak = max(peak, status_kib("VmHWM", pid))
        except OSError:
            continue
    return peak


def dir_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                continue
    return total


def median(samples) -> float:
    return float(statistics.median(samples))


def percentile(samples, q: float) -> float | None:
    """The ``q`` quantile, or ``None`` with too few samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) * (1.0 - q) < MIN_SAMPLES_BEYOND:
        return None
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def slope(ys) -> float:
    """Least-squares slope of ``ys`` against their index."""
    if len(ys) < 2:
        return 0.0
    return float(np.polyfit(np.arange(len(ys)), ys, 1)[0])


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
