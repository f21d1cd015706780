"""Host calibration: a fixed pure-Python loop timed between cases.

The simulator is interpreter-bound, so its speed follows the host's
speed for interpreted code.  On a shared machine that speed drifts by
tens of percent between processes and, on a shorter scale, flips
between a fast and a slow state every few tens of milliseconds.  The
benchmark times this fixed loop right before each case, for a share of
the case's own duration; the mean repetition time over a run estimates
the host's speed during that run, and dividing host seconds by
``calib_s / CALIB_REF_S`` turns them into seconds on the reference host.

The loop walks a heap of a few megabytes the way the simulator walks
its structures: slot-attribute reads and writes on objects visited in
a scattered order, dict lookups over tens of thousands of keys, small
method calls and integer arithmetic.  A loop that stays in the first-
level cache reacts to a busy sibling core about twice as strongly as
the simulator does and over-corrects.
"""

import gc
import random
import time

#: Calibration time of the reference host (the one the bounds were set
#: on); normalized seconds are host seconds scaled by ref / measured.
CALIB_REF_S = 0.0106

#: Loop iterations per timed repetition (about 10 ms on the reference
#: host), and the size of the heap the loop walks.
_ITERATIONS = 6000
_HEAP_OBJECTS = 30000


class _Node:
    __slots__ = ("value", "weight", "count", "link")

    def __init__(self, value):
        self.value = value
        self.weight = value * 7
        self.count = 0
        self.link = None

    def touch(self, delta):
        self.count = (self.count + delta) & 0xFFFF
        return self.count


class Calibrator:
    """The loop's working set, built once per run (untimed)."""

    def __init__(self):
        rng = random.Random(1)
        self.nodes = [_Node(i) for i in range(_HEAP_OBJECTS)]
        self.order = list(range(_HEAP_OBJECTS))
        rng.shuffle(self.order)
        self.table = {(i * 2654435761) & 0xFFFFFFFF: i
                      for i in range(_HEAP_OBJECTS)}
        self.keys = list(self.table)

    def _loop(self):
        nodes, order, table, keys = (self.nodes, self.order, self.table,
                                     self.keys)
        size = len(nodes)
        total = 0
        for i in range(_ITERATIONS):
            node = nodes[order[i % size]]
            count = node.touch(node.value & 3)
            total ^= table.get(keys[(i * 7919) % size], 0) + node.weight
            if count & 1:
                node.link = nodes[order[(i * 31) % size]]
        return total

    def sample(self, seconds):
        """Repeat the loop for about *seconds*; ``(mean_s, repetitions)``.

        The loop flips between fast and slow spells with the host, so a
        sample must be long enough to see a fair mix of both; callers
        calibrate for a fixed share of the time they go on to measure.

        The cyclic garbage collector is paused while the loop runs, as
        the simulator pauses it during a run: otherwise a collection
        over the heap the previous case left behind lands inside the
        timing.
        """
        total = 0.0
        repetitions = 0
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while total < seconds:
                start = time.perf_counter()
                self._loop()
                total += time.perf_counter() - start
                repetitions += 1
        finally:
            if gc_was_enabled:
                gc.enable()
        return total / repetitions, repetitions
