"""The host's current speed, measured with a fixed reference loop.

This host's CPU changes speed all the time: by tens of percent from one
tenth of a second to the next, and between a fast and a slow state
(about 1.75x slower) that lasts tens of seconds, often longer than a
whole run.  No repetition inside a run removes the slow state.  So the
benchmark times a fixed pure-Python loop next to every piece of timed
work (before each simulated job, and between units) and reports times
converted to the loop's quiet-host speed:

    scaled time = measured time * REFERENCE_S / mean reference loop time

The loop samples the same moments as the work it sits between, so both
take the same share of the host's slowdowns.  The loop is part of the
benchmark's definition, not of the program: a change to it, or to
``REFERENCE_S``, changes every reported time and needs a new baseline.
"""

import time
from typing import List, Sequence

#: the reference loop's time on the host the baseline was recorded on
#: (x86_64, 2 vCPUs, Python 3.11.7), when that host was quiet; scaled
#: times are seconds at that speed
REFERENCE_S = 0.0125


class _Stage:
    __slots__ = ("queue", "occupancy", "seen")

    def __init__(self) -> None:
        self.queue: List[int] = []
        self.occupancy = 0
        self.seen: dict = {}


def reference_loop(cycles: int = 9000) -> int:
    """A toy six-stage pipeline: object attributes, list queues and dict
    counters, the operations the simulator spends its time on."""
    stages = [_Stage() for _ in range(6)]
    for cycle in range(cycles):
        for i, stage in enumerate(stages):
            if stage.queue and (cycle + i) % 3:
                value = stage.queue.pop(0) & 255
                stage.seen[value] = stage.seen.get(value, 0) + 1
            else:
                stage.queue.append(cycle * 7 + i)
            stage.occupancy += len(stage.queue)
    return sum(stage.occupancy for stage in stages)


def reference_time() -> float:
    """Seconds of one reference loop, now."""
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def scale(samples: Sequence[float]) -> float:
    """The factor that converts a time measured among the reference
    ``samples`` to seconds at the reference speed."""
    return REFERENCE_S * len(samples) / sum(samples)
