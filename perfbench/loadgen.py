"""Seeded stream generator, independent of the program under test.

Streams are plain tuples of ints built with the standard library only, so
they can be generated before `exactsamp` is imported and before anything is
timed.  The same (seed, purpose) always gives the same stream.
"""

import bisect
import itertools
import random


def rng_for(seed, *purpose):
    """A random.Random determined by the workload seed and a purpose label.

    String seeds are hashed with SHA-512 by `random`, independent of
    PYTHONHASHSEED.
    """
    return random.Random(":".join(str(x) for x in (seed,) + purpose))


def derived_seed(seed, *purpose):
    """A 64-bit sampler seed derived from the workload seed."""
    return rng_for(seed, "sampler", *purpose).getrandbits(64)


def zipf(rng, n, m, alpha):
    """m draws from Zipf(alpha) over 1..n: cumulative weights, then bisection."""
    cum = list(itertools.accumulate(1.0 / (i ** alpha) for i in range(1, n + 1)))
    total = cum[-1]
    rand = rng.random
    # min(): rand() * total can round up to total itself.
    return [min(bisect.bisect_right(cum, rand() * total), n - 1) + 1 for _ in range(m)]


def uniform(rng, n, m):
    return [rng.randrange(n) + 1 for _ in range(m)]


def shuffled_multiset(rng, n, m):
    """Each of 1..n about m/n times, in uniformly random order."""
    pool = [(i % n) + 1 for i in range(m)]
    rng.shuffle(pool)
    return pool


def matrix_entries(rng, n, d, m, alpha):
    """(row, col) pairs: rows Zipf(alpha) over 1..n, columns uniform over 1..d."""
    rows = zipf(rng, n, m, alpha)
    cols = uniform(rng, d, m)
    return list(zip(rows, cols))
