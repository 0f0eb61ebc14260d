"""Reference-speed scaling of measured times.

The benchmark runs on small shared hosts whose speed changes by up to 1.7
times, in spells that can outlast a whole run.  A per-job median or minimum
over one run's passes cannot remove such a spell, so every timed job (and
every set-up probe) is bracketed by two probes of a fixed pure-Python
reference loop, and its time is reported in *reference seconds*:

    scaled = measured * REFERENCE_S / mean(probe before, probe after)

A change of host speed slows the probes and the job alike and cancels out;
a change in ramseykit moves only the job.  The loop is benchmark code and
calls nothing in ramseykit, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import time

# The probe's best time on the 2-vCPU 2.1 GHz Xeon VM that the baselines in
# README.md come from; with it, scaled times read as seconds on that VM at
# its fastest.
REFERENCE_S = 0.00055


def _loop() -> float:
    acc, x = 0, (1 << 200) - 12345
    t0 = time.perf_counter()
    for i in range(4000):
        acc ^= (x >> (i % 150)) & 0xFFFFFFFF
        acc += i & 7
    return time.perf_counter() - t0


def probe() -> float:
    """Best of two runs of the reference loop, in seconds.

    The collector is off during the probe so that a collection of the
    program's heap is not charged to the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_loop(), _loop())
    finally:
        if enabled:
            gc.enable()


def scale(measured: float, before: float, after: float) -> float:
    """`measured` seconds in reference seconds, given the probes around it."""
    return measured * REFERENCE_S * 2.0 / (before + after)
