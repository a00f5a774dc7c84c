"""Host speed, measured by a fixed calibration kernel between items.

On a shared host the whole process can run 1.5 times slower for seconds
or minutes at a time, whatever it runs.  A timing taken in such a stretch
says more about the neighbours than about the program.  So the benchmark
runs a short, fixed, pure-Python kernel every ``PERIOD_S`` seconds between
items and scales each item time by how fast the kernel ran around it:

    reference time = measured time * REFERENCE_NS / (kernel time nearby)

The kernel imports nothing from priodpa, so a change to the program never
moves it; only the host does.  ``REFERENCE_NS`` is a fixed constant, so a
reference time reads as the time the item would take on a host where the
kernel takes exactly that long.
"""

import time
from array import array
from fractions import Fraction

# about the kernel's time on the 2-vCPU VM the benchmark was written on
# (Intel Xeon, 2.0 GHz nominal, Python 3.11.7), which ranged 1.9-3 ms
REFERENCE_NS = 2_500_000
PERIOD_S = 0.05
# kernel samples on each side of an item that its scale is taken over,
# about half a second each way at PERIOD_S
HALF_WINDOW = 10


_MASKS = tuple((0b1011 << i) | (1 << (i * 3 % 17)) for i in range(11))


def kernel():
    """Bitmask subset enumeration, as in the oracle's inner loop, then
    Fraction arithmetic, as in the games' ratio bookkeeping.  Each half
    tracks the host's speed best for the workloads made of it, so the
    kernel runs both."""
    best = 0
    for sub in range(1 << len(_MASKS)):
        used = count = 0
        for j, m in enumerate(_MASKS):
            if sub >> j & 1:
                if used & m:
                    break
                used |= m
                count += 1
        else:
            best = max(best, count)
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 7 + 1, i)
    return best, total


class HostSpeed:
    """Kernel samples taken during a phase, and the scale they give."""

    def __init__(self):
        self.samples_ns = array("q")
        self._next = 0.0

    def sample(self):
        clock = time.perf_counter_ns
        start = clock()
        kernel()
        self.samples_ns.append(clock() - start)
        self._next = time.perf_counter() + PERIOD_S

    def due(self):
        """Take a sample if ``PERIOD_S`` has passed since the last one."""
        if time.perf_counter() >= self._next:
            self.sample()

    @property
    def index(self):
        """The number of samples so far: an item tagged with it ran after
        the sample at ``index - 1`` and before the one at ``index``."""
        return len(self.samples_ns)

    def scales(self, half_window=HALF_WINDOW):
        """For each tag 0..len(samples), REFERENCE_NS divided by the mean
        kernel time over the ``half_window`` samples each side of it."""
        s = self.samples_ns
        if not s:
            raise ValueError("no kernel samples")
        prefix = [0]
        for v in s:
            prefix.append(prefix[-1] + v)
        out = []
        for tag in range(len(s) + 1):
            lo = max(0, tag - half_window)
            hi = min(len(s), tag + half_window)
            out.append(REFERENCE_NS * (hi - lo) / (prefix[hi] - prefix[lo]))
        return out

    def mean_scale(self):
        return REFERENCE_NS * len(self.samples_ns) / sum(self.samples_ns)
