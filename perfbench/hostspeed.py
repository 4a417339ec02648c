"""Host speed: a fixed reference kernel timed alongside the program.

On a shared host the speed of a core changes by half or more for minutes at
a time as other tenants come and go, so raw times of the same code spread
more between runs than any useful bound.  Each session therefore runs this
kernel after every timed call, and `run.py` scales the session's times by
NOMINAL_NS over the kernel's mean time in that session: a change of host
speed slows the kernel and the program alike and cancels, while a change of
the program leaves the kernel as it was.

The kernel is the benchmark's own code and does the kinds of work exactsamp
does: dictionary counting, random bits, and exact rational arithmetic on big
integers.  Once warm it allocates no object that the cyclic garbage
collector tracks, so it neither triggers a collection nor moves the
program's collections to other calls, and the program's heap does not
change its cost.
"""

import _random
import time
from math import gcd

# Mean time of one run inside a session on an unloaded 2-vCPU x86-64 host
# (CPython 3.11); it sets the host that the reported times refer to.
NOMINAL_NS = 1_000_000

# The C generator behind random.Random: random.Random.seed() goes through
# super(), which allocates an object the collector tracks.
_rng = _random.Random()
_counts = {}


def reference():
    """One run of the kernel; returns a checksum so that no work is skipped."""
    rng = _rng
    rng.seed(20210827)
    counts = _counts
    counts.clear()
    num, den = 0, 1
    accepted = 0
    for i in range(1, 2501):
        k = rng.getrandbits(10)
        c = counts.get(k, 0) + 1
        counts[k] = c
        if i % 16 == 0:
            # num/den += c/i, reduced, then an exact Bernoulli(num/den mod 1) trial.
            num, den = num * i + c * den, den * i
            g = gcd(num, den)
            num //= g
            den //= g
            if (rng.getrandbits(64) * den) >> 64 < num % den:
                accepted += 1
    return accepted ^ (num & 0xFFFF)


def sample_ns():
    """Time one run of the kernel."""
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0
