"""Host-speed calibration for the serial workloads.

The benchmark runs on shared hosts whose speed drifts by up to a factor
of two and a half over hours, as other tenants come and go: the same
pass over the same inputs, measured in two runs half an hour apart, can
differ by that much in wall time and in CPU time alike.  A run cannot
tell such drift from a change to the program, so the serial workloads
measure the host alongside the program: every :data:`INTERVAL_S` of a
run, and after every set-up, they time a fixed pure-Python kernel (a
*slice*) that does the kind of work the solver does (hash-consing small
objects through a dict, frozensets, sorting), and multiply each query's
and each set-up's times by ``REFERENCE_S / slice``, with the mean of
the slices just before and just after it.

A scaled time reads as the time on a host where one slice takes
:data:`REFERENCE_S`.  The kernel is the benchmark's own code and never
changes with the program, so a change to the program moves scaled times
exactly as it moves raw ones, while drift of the host moves the slices
with them and cancels out.

Each query gets the factor of its own stretch of the run because the
host's speed flips between modes about 1.7 times apart every few
seconds, and the share of time spent in each mode changes from run to
run: a single factor per run (say, from the median slice) jumps between
the modes, while a fixed bundle of suite queries and its neighbouring
slices track each other with a correlation of 0.9 (the bundle's CPU
time stays 17 +- 1 slices across both modes).

A slice is timed in process CPU time with the cyclic collector off: the
scheduler's interruptions and the collections that the program's
leftover objects provoke are not the host's speed.

serve_closed's program runs in the daemon's threads and worker
processes, where a slice between two queries would stall the serving
path; a :class:`Sampler` child process takes its slices instead, and
only its CPU per query is scaled (its latencies are set by the daemon's
poll sleeps, not by the host's speed).
"""

import gc
import os
import statistics
import subprocess
import sys
import time

clock = time.perf_counter

#: Time a slice takes on the reference host; scaled times are as there.
REFERENCE_S = 0.005
#: Kernel rounds per slice (about 5 ms on a 2 GHz Xeon core).
ROUNDS = 10
#: Seconds of a run between two slices (a slice costs about 5% of them).
INTERVAL_S = 0.1


class _Node:
    __slots__ = ("key", "left", "right", "hash")

    def __init__(self, key, left, right):
        self.key = key
        self.left = left
        self.right = right
        self.hash = hash((key, id(left), id(right)))


def kernel(rounds):
    """Fixed interpreter work: build a hash-consed tree over 64 leaves,
    then 400 small frozensets, per round."""
    total = 0
    for r in range(rounds):
        table = {}
        layer = [_Node(i, None, None) for i in range(64)]
        while len(layer) > 1:
            parents = []
            for a, b in zip(layer[::2], layer[1::2]):
                key = (a.key, b.key) if a.key <= b.key else (b.key, a.key)
                node = table.get(key)
                if node is None:
                    node = table[key] = _Node(key, a, b)
                parents.append(node)
            layer = parents
        sets = set()
        for i in range(400):
            sets.add(frozenset((i % 7, i % 11, (i * r) % 13)))
        total += len(table) + len(sorted(sets, key=len))
    return total


class Calibrator:
    """The slices of one run, and the scale they give."""

    def __init__(self):
        #: CPU seconds per slice
        self.slices = []
        kernel(ROUNDS)  # the first call pays for warming the allocator
        self.tick()

    def tick(self):
        """Take one slice."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu = time.process_time()
            kernel(ROUNDS)
            self.slices.append(time.process_time() - cpu)
        finally:
            if collecting:
                gc.enable()
        self._last = clock()

    def maybe_tick(self):
        """Take a slice when :data:`INTERVAL_S` has gone by since the last."""
        if clock() - self._last >= INTERVAL_S:
            self.tick()

    def segment(self):
        """The stretch of the run from the last slice to the next one."""
        return len(self.slices)

    def factor(self, segment):
        """The factor that turns raw seconds of ``segment`` into seconds
        on the reference host."""
        around = self.slices[max(segment - 1, 0):segment + 1]
        return REFERENCE_S / statistics.fmean(around)


def sample_forever(path):
    """The :class:`Sampler` child: append ``monotonic slice_cpu_s`` to
    ``path`` every :data:`INTERVAL_S` until terminated."""
    gc.disable()
    kernel(ROUNDS)
    with open(path, "a", encoding="ascii") as out:
        while True:
            cpu = time.process_time()
            kernel(ROUNDS)
            out.write("%r %r\n" % (time.monotonic(), time.process_time() - cpu))
            out.flush()
            time.sleep(INTERVAL_S)


class Sampler:
    """Slices taken by a child process while the program runs elsewhere."""

    def __init__(self, directory):
        self._path = os.path.join(directory, "slices.txt")
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self._proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, %r); from solverbench.calibrate "
             "import sample_forever; sample_forever(%r)" % (here, self._path)],
            stdin=subprocess.DEVNULL,
        )
        #: (monotonic time, CPU seconds) per slice, filled by :meth:`stop`
        self.slices = []

    def stop(self):
        """End the child, wait for it, and read its slices."""
        if self._proc is None:
            return
        self._proc.terminate()
        self._proc.wait()
        self._proc = None
        try:
            with open(self._path, "r", encoding="ascii") as handle:
                text = handle.read()
            os.remove(self._path)
        except FileNotFoundError:
            text = ""
        # the text after the last newline is empty or a line cut short
        for line in text.split("\n")[:-1]:
            at, cpu = line.split()
            self.slices.append((float(at), float(cpu)))

    def factor(self, start, end):
        """The factor for raw seconds spent between monotonic ``start``
        and ``end``: from the slices taken then, else from all of them,
        else 1."""
        inside = [cpu for at, cpu in self.slices if start <= at <= end]
        inside = inside or [cpu for _at, cpu in self.slices]
        return REFERENCE_S / statistics.fmean(inside) if inside else 1.0
