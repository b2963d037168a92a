"""Host-speed probe: a fixed reference kernel timed all through a pass.

The host this benchmark runs on is shared, and its speed drifts: the same
work can take up to twice as long in a slow phase, and the host switches
between fast and slow phases within a second as well as over minutes, so a
run of passes cannot average the drift out. `SpeedProbe` times a small fixed
piece of pure-Python work, independent of the package, once every PERIOD_S
of a pass (on SIGALRM, in the pass's own thread), so the pass and its probes
share the host's phases. The mean probe time over REFERENCE_NS is the
slowdown of a stretch (the set-up, the workload); `one_pass.py` takes the
probes' own time off the stretch and divides the rest by the slowdown, which
gives the stretch at the reference speed. The mean, not the median: a
stretch's time is the sum over its parts of their slowdowns, and the probes
sample those parts evenly.

Each probe is timed in thread CPU time, so time it spends waiting for the
CPU or for a lock does not count as a slow host. The probe starts no
collection of the pass's heap and does not recurse, so its cost does not
depend on the state of the program it interrupts.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PERIOD_S = 0.1
# Thread CPU time of one kernel call at the reference speed: about its time
# in the fast phase of a shared 2-CPU x86-64 host with Python 3.11.7 (it
# takes about 9.5 ms there in the slow phase). It only sets the scale of the
# scaled times.
REFERENCE_NS = 5_000_000


def kernel() -> int:
    """Count the independent sets of a 20-cycle by depth-first search.

    The search keeps its own stack: a recursive kernel would push Python
    frames from wherever the signal interrupted the pass, and its cost would
    then depend on the pass's stack depth.
    """
    n = 20
    nb = [(1 << ((v - 1) % n)) | (1 << ((v + 1) % n)) for v in range(n)]
    total = 0
    stack = [(0, 0)]
    while stack:
        v, chosen = stack.pop()
        if v == n:
            total += 1
            continue
        stack.append((v + 1, chosen))
        if nb[v] & chosen == 0:
            stack.append((v + 1, chosen | (1 << v)))
    return total


KERNEL_RESULT = 15127  # Lucas number L(20): independent sets of the 20-cycle


class SpeedProbe:
    """Samples `kernel()` at start, every PERIOD_S while running, at each split and at stop.

    The samples at start and on the timer fall inside the stretch being
    timed, so their wall time is kept to be taken off it; the samples at a
    split and at stop fall between stretches.
    """

    def __init__(self):
        self.cpu_ns: list[int] = []  # thread CPU time of each probe in this stretch
        self.wall_ns = 0  # wall time of the probes inside this stretch
        self.wrong = 0  # probes whose kernel result was wrong
        self._running = False

    def _sample(self) -> None:
        # the kernel's few allocations must not start a collection of the
        # pass's heap, or the probe would time the program's memory instead
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            c0 = time.thread_time_ns()
            result = kernel()
            self.cpu_ns.append(time.thread_time_ns() - c0)
        finally:
            if gc_was_enabled:
                gc.enable()
        self.wrong += result != KERNEL_RESULT

    def _tick(self, _signum=None, _frame=None) -> None:
        w0 = time.perf_counter_ns()
        self._sample()
        self.wall_ns += time.perf_counter_ns() - w0

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def split(self) -> tuple[float, float]:
        """End the stretch timed so far: its slowdown and the wall time of its probes.

        The probe taken here closes this stretch and opens the next.
        """
        self._sample()
        stretch = (statistics.fmean(self.cpu_ns) / REFERENCE_NS, self.wall_ns / 1e9)
        self.cpu_ns = self.cpu_ns[-1:]
        self.wall_ns = 0
        return stretch

    def stop(self) -> tuple[float, float]:
        """Stop the timer and end the last stretch, as `split` does."""
        if self._running:
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            # an alarm already on its way finds a no-op, not the default (exit)
            signal.signal(signal.SIGALRM, lambda *_: None)
        return self.split()
