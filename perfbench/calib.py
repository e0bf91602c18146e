"""Host-speed calibration: the clock and the fixed loop behind every time.

The benchmark runs on shared VMs.  Raw host seconds of the same code
spread by 20–80% between runs there, for two reasons, and each has its
own remedy.

* The VM loses the CPU to other guests, or the process to other
  processes.  Every time is therefore taken on :func:`clock`, the CPU
  seconds of the process and its reaped children: the kernel leaves steal
  time out of them (``CONFIG_PARAVIRT_TIME_ACCOUNTING``), and time spent
  waiting to run never enters them.  The simulator is serial and
  CPU-bound, so on an idle host these equal its wall seconds.
* The CPU runs slower while the host is busy (shared cores and caches,
  lower clock), by up to 2x.  A pass therefore times a fixed loop between
  its points, in proportion to the time they take (``runs_after``), and
  around its set-up, and times are reported at a fixed reference speed::

      reference seconds = seconds * (REFERENCE_S / loop seconds) ** SENSITIVITY

  where the loop seconds are, for a point, the mean of every loop timing
  of its pass (one timing follows the host's speed within a few
  milliseconds and is much noisier than a point that lasts seconds), and
  for set-up the mean of the medians of three timings before and after
  it.

The loop mixes what the simulator's host time is made of: interpreted
integer arithmetic, dict updates, list appends, a random walk through a
2 MiB table and a sort in C.  It is part of the benchmark, never of the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import resource
import statistics
import time

#: Seconds the loop takes at the reference speed: a round figure near
#: its median between points on the 2-core Xeon VM the benchmark was
#: tuned on, so reference seconds read close to host seconds there.
REFERENCE_S = 0.005
#: The share of the loop's slowdown that the simulator's time follows.
#: Over runs on a host that alternated between quiet and busy spells, the
#: log-log slope of pass time over loop time was 0.69
#: (multicore-scheduler-zoo), 0.76 (rowclone-writes) and 0.82
#: (paper-single-core): the tight loop loses more to a busy host than the
#: simulator's larger, cache-missing code does.
SENSITIVITY = 0.75
#: A pass times the loop once after each point and once more for every
#: this many seconds the point took, so its timings sample the host's
#: speed evenly over the pass.
SAMPLE_EVERY_S = 0.2

_SIZE = 1 << 18
# A full-period linear congruential map over the table: ``j = TABLE[j]``
# visits every slot in a scattered order.
_TABLE = [(1103515245 * i + 12345) & (_SIZE - 1) for i in range(_SIZE)]


def _loop() -> int:
    counts: dict[int, int] = {}
    items = []
    j = 0
    table = _TABLE
    for i in range(8000):
        j = table[j]
        k = (i * 2654435761 + j) & 1023
        counts[k] = counts.get(k, 0) + i
        items.append(k ^ i)
    items.sort()
    return len(counts) + items[-1] + j


def clock() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def measure() -> float:
    """CPU seconds of one run of the calibration loop.

    An untimed run first brings the loop's data back into the CPU caches,
    so the timing does not depend on how much of them the program's last
    point evicted.
    """
    _loop()
    start = time.process_time()
    _loop()
    return time.process_time() - start


def runs_after(seconds: float) -> int:
    """How many loop timings follow a point that took ``seconds``."""
    return 1 + int(seconds / SAMPLE_EVERY_S)


def sample(runs: int = 3) -> float:
    """Median CPU seconds of ``runs`` runs of the loop."""
    return statistics.median(measure() for _ in range(runs))


def warm() -> None:
    """Run the loop until its first-call costs are paid."""
    for _ in range(3):
        _loop()


def scaled(seconds: float, loop_seconds: float) -> float:
    """``seconds`` measured when the loop took ``loop_seconds``, at the
    reference speed."""
    return seconds * (REFERENCE_S / loop_seconds) ** SENSITIVITY
