"""The host's pace: how fast this machine runs a fixed reference kernel
right now.

On a small shared VM the same inputs run up to about 2x slower for
minutes at a time, with no steal time to show for it, and the slowdown
hits interpreter work, numpy, pickling and imports alike.  The
benchmark reads the pace of the kernel below, which uses no part of
``repro``, on the CPU the timed work runs on, as close in time to the
work as it can: a ``reading()`` just before and just after a stretch
it times from outside (a process, a worker's set-up), a ``Sampler``
inside a worker's timed pass.  Each stretch is divided by the host's
slowdown while it ran, the reading over ``NOMINAL_S``: the reported
seconds are seconds at a fixed host speed, so a program that gets
slower shows and a host that gets slower does not.

Run it alone to calibrate ``NOMINAL_S`` on a quiet machine::

    python3 perfbench/pace.py
"""

from __future__ import annotations

import gc
import marshal
import pickle
import signal
import statistics
import time

import numpy as np

#: Seconds of one ``kernel()`` call on the 2-vCPU KVM guest (Xeon,
#: 2.0 GHz) the benchmark was built on, on a typical reading.  It only
#: fixes the scale of the reported seconds.
NOMINAL_S = 0.0050
#: Kernel calls per reading (about 0.5 s); the reading is their mean,
#: so it counts the stalls the timed work would also suffer.
REPS = 100
#: Seconds between two samples a ``Sampler`` takes (one kernel call,
#: about 2.5% of the time).
SAMPLE_EVERY_S = 0.2

_SOURCE = compile(
    "\n".join(f"def f{i}(x):\n    return [x * {i} for _ in range(3)]"
              for i in range(40)),
    "<pace>", "exec",
)
_CODE = marshal.dumps(_SOURCE)


class _Slot:
    __slots__ = ("key", "cores", "memory")

    def __init__(self, key, cores, memory):
        self.key = key
        self.cores = cores
        self.memory = memory


def kernel() -> int:
    """A fixed mix of the work the workloads do: interpreter loops over
    small objects and dicts, numpy calls on short and long arrays,
    pickling and unmarshalling code."""
    table: dict[int, int] = {}
    slots = [_Slot(i, i % 8, 4.0 * (i % 8)) for i in range(1500)]
    for slot in slots:
        table[slot.key % 97] = table.get(slot.key % 97, 0) + slot.cores
    slots.sort(key=lambda s: (s.memory, -s.key))
    short = np.arange(64, dtype=float)
    acc = 0.0
    for i in range(150):
        acc += float(np.minimum(short, i).sum())
    long = np.linspace(0.0, 1.0, 100_000)
    acc += float(np.cumsum(long)[-1]) + float(np.sort(long[::-1])[0])
    blob = pickle.dumps({"slots": [(s.key, s.cores) for s in slots],
                         "table": table}, protocol=5)
    for _ in range(3):
        marshal.loads(_CODE)
    return len(pickle.loads(blob)["slots"]) + int(acc) % 7


def reading(reps: int = REPS) -> float:
    """The mean seconds of ``reps`` kernel calls."""
    start = time.perf_counter()
    for _ in range(reps):
        kernel()
    return (time.perf_counter() - start) / reps


class Sampler:
    """Pace samples taken while the timed work runs: a timer signal
    every ``SAMPLE_EVERY_S`` runs one ``kernel()`` call in the main
    thread, between two bytecodes of the work, so the samples see what
    the work sees.  ``spent`` is the time they took, which the work's
    timer must not count.  A sample runs with the cyclic garbage
    collector off, and the reading is the samples' median, so neither
    a collection of the work's heap nor another stall the work causes
    counts as host speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent += self.samples[-1]
        if collecting:
            gc.enable()

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reading(self) -> float:
        return statistics.median(self.samples)


def slowdown(readings: list[float]) -> float:
    """The host's slowdown while a stretch ran: the mean of the
    readings taken for it over ``NOMINAL_S``."""
    return statistics.fmean(readings) / NOMINAL_S


if __name__ == "__main__":
    kernel()
    readings = [reading() for _ in range(10)]
    print(
        "pace readings (s): median"
        f" {statistics.median(readings):.5f},"
        f" min {min(readings):.5f}, max {max(readings):.5f}"
    )
