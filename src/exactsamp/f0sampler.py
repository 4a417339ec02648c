"""Truly perfect support (F0) sampling, plus the Tukey sampler built on it.

One instance fixes a random subset S of [n] of size 2*ceil(sqrt(n)) before
the stream, tracks T = the first ceil(sqrt(n)) distinct coordinates and U =
the S-members that actually appear.  If fewer than ceil(sqrt(n)) distinct
coordinates showed up, T is the whole support and the draw is uniform over
it; otherwise the draw is uniform over U, failing when U is empty.  Either
branch is exactly uniform over the support, and the sampled frequency f_i is
reported with the index.  In sliding-window mode the window's counts, which
the state keeps exactly from a ring of the last W updates, give the support
and its size directly, so no T is kept there.

T, the window ring and the counts depend on the stream alone, so the R
instances of a sampler share one F0State, updated once per update.  The
state draws every instance's S at construction and keeps it only as an index
from each coordinate to the U sets of the instances whose S holds it: a
coordinate that joins or leaves the support updates those sets, so a draw
reads its U as it is.  In insertion-only mode only the coordinates of T and
of the subsets are counted, since a draw returns no other.

The Tukey sampler accepts an F0 draw (i, f_i) with probability G(f_i)/G(tau),
turning uniform-over-support into G(f_i)/F_G exactly.
"""

import math
from collections import deque
from fractions import Fraction

from .core import INDEX, SampleResult, UnitUpdates, check_window
from .exactrand import bernoulli_ratio, subseed, substream, uniform_subset
from .gsampler import DrawState, accept_and_pick, repetitions_for


class F0State:
    """The stream state of the F0 instances seeded by seeds: T or the window
    ring, the counts, and U[k] = S_k & support for instance k, whose subset
    S_k is uniform_subset(n, size, substream(seeds[k], "subset")) shifted
    to [1, n]."""

    def __init__(self, n, seeds, window=None):
        if window is not None:
            check_window(window)
        self.n = n
        self.window = window
        self.cap = math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1)
        self.size = min(2 * self.cap, n)  # |S|
        self.U = [set() for _ in seeds]
        holders = {}  # coord -> the U sets of the instances whose S holds it
        for seed, members in zip(seeds, self.U):
            for c in uniform_subset(n, self.size, substream(seed, "subset")):
                holders[c + 1] = holders.get(c + 1, ()) + (members,)
        self._holders = holders
        self.T = set()  # the first cap distinct coordinates (insertion-only mode)
        self.t = 0
        self._ring = deque() if window is not None else None
        # The window's counts, or in insertion-only mode those of T and the subsets.
        self._freq = {}

    # Kept for perfbench's layer tracer, which wraps this method by name.
    def update(self, coord):
        self.extend((coord,))

    def extend(self, coords):
        """Feed a batch of coordinates in order."""
        freq, holders = self._freq, self._holders
        t = self.t
        if self.window is None:
            T = self.T
            room = self.cap - len(T)
            for coord in coords:
                t += 1
                if coord in freq:
                    freq[coord] += 1
                elif room or coord in holders:
                    freq[coord] = 1  # joins the support
                    if room:
                        T.add(coord)
                        room -= 1
                    for members in holders.get(coord, ()):
                        members.add(coord)
            self.t = t
            return
        ring, window = self._ring, self.window
        for coord in coords:
            t += 1
            if coord in freq:
                freq[coord] += 1
            else:
                freq[coord] = 1  # joins the support
                for members in holders.get(coord, ()):
                    members.add(coord)
            ring.append(coord)
            if len(ring) > window:
                old = ring.popleft()
                left = freq[old] - 1
                if left:
                    freq[old] = left
                else:
                    del freq[old]  # leaves the support
                    for members in holders.get(old, ()):
                        members.discard(old)
        self.t = t

    def draw(self, k, rng):
        """One draw of instance k."""
        if not self.t:
            return SampleResult.bottom()
        # Small support: uniform over all of it, which T holds in
        # insertion-only mode while it has room.
        support = self.T if self.window is None else self._freq
        pool = sorted(support if len(support) < self.cap else self.U[k])
        if not pool:
            return SampleResult.fail()
        i = pool[rng.randrange(len(pool))]
        return SampleResult.of(i, frequency=self._freq[i])


class F0Sampler(UnitUpdates):
    """delta-boosted F0 sampler over R independent instances.  A draw returns
    the first instance that hits: each hit is uniform over the support
    whatever the other instances do, so the first one is too."""

    def __init__(self, n, delta=0.1, seed=0, window=None, repetitions=None):
        if repetitions is None:
            repetitions = repetitions_for(Fraction(1, 2), delta)  # ceil(2 ln(1/delta))
        self.R = repetitions
        self.seed = seed
        self.n = n
        self.state = F0State(n, [subseed(seed, "rep", i) for i in range(self.R)], window)
        self.draw_state = DrawState(substream(seed, "draws"), repetitions)

    def ingest(self, coords):
        self.state.extend(coords)

    def keep(self):
        """keep(hit), whether a draw keeps an instance's hit: always, for
        uniform support sampling."""
        return lambda hit: True

    def draw(self):
        # The instances share one stream state: all are empty or none is.
        if not self.state.t:
            return SampleResult.bottom()
        rng, draw = self.draw_state.rng, self.state.draw

        def state(k):
            res = draw(k, rng)
            return res if res.outcome == INDEX else None

        hit = accept_and_pick(self.R, state, self.keep())
        return SampleResult.fail() if hit is None else hit[1]


class TukeySampler(F0Sampler):
    """F0 draws filtered through the Tukey acceptance G(f_i)/G(tau)."""

    def __init__(self, measure, n, delta=0.1, seed=0, window=None, repetitions=None):
        self.measure = measure
        if repetitions is None:
            g1 = measure.g_exact(1)
            gtau = measure.tau * measure.tau / 6  # the saturation value G(tau)
            repetitions = repetitions_for(gtau / g1, delta)
        super().__init__(n, delta, seed, window, repetitions)

    def keep(self):
        """keep(hit): a hit of frequency f is kept with probability
        G(f)/G(tau), an integer pair (TukeyMeasure.cap_ratio) decided by
        bernoulli_ratio on the draw generator."""
        cap_ratio, rng = self.measure.cap_ratio, self.draw_state.rng

        def keep(hit):
            num, den = cap_ratio(hit.frequency)
            return bernoulli_ratio(num, den, rng)

        return keep
