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

T, the window ring and the active frequencies depend on the stream alone, so
the R instances of a sampler share one F0State, updated once per update, and
each instance is only its subset S, passed to F0State.draw.  The state keeps
U for every subset it hands out, between draws, from a log of the
coordinates that joined or left the support, so a draw does not rescan S.

The Tukey sampler accepts an F0 draw (i, f_i) with probability G(f_i)/G(tau),
turning uniform-over-support into G(f_i)/F_G exactly.
"""

import math
from collections import deque
from fractions import Fraction
from itertools import islice

from .core import INDEX, SampleResult, UnitUpdates
from .exactrand import bernoulli_fraction, subseed, substream
from .gsampler import DrawState, first_accepted, repetitions_for


class F0State:
    """The stream state of an F0 instance: T or the window ring, and the
    active frequencies.  The instance's subset S comes from subset(seed).

    The state also keeps U = S & support for every subset it registered.  An
    update appends to a log only when a coordinate joins or leaves the
    support.  A draw folds the changes since S's last draw into its U when
    there are fewer of them than |S|, and otherwise rescans S & support,
    scanning the smaller of the two; so the log keeps only the last |S|
    changes.
    """

    def __init__(self, n, window=None):
        self.n = n
        self.window = window
        self.cap = math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1)
        self.size = min(2 * self.cap, n)  # |S|
        self.T = {}  # coord -> time first seen (insertion-only mode)
        self.t = 0
        # Window bookkeeping: ring of recent updates + active frequency map.
        self._ring = deque() if window is not None else None
        self._freq = {}
        self._log = deque(maxlen=self.size)  # latest coordinates to join or leave the support
        self._leaves = 0  # times a coordinate left the support (window mode)
        self._members = {}  # S -> [S & support, self._changes() when it was current]

    # Kept for perfbench's layer tracer, which wraps this method by name.
    def update(self, coord):
        self.extend((coord,))

    def extend(self, coords):
        """Feed a batch of coordinates in order."""
        freq, log = self._freq, self._log
        t = self.t
        if self.window is None:
            T, cap = self.T, self.cap
            for coord in coords:
                t += 1
                if coord in freq:
                    freq[coord] += 1
                else:
                    freq[coord] = 1
                    log.append(coord)  # joins the support
                    if len(T) < cap:
                        T[coord] = t
            self.t = t
            return
        ring, window = self._ring, self.window
        for coord in coords:
            t += 1
            if coord in freq:
                freq[coord] += 1
            else:
                freq[coord] = 1
                log.append(coord)  # joins the support
            ring.append(coord)
            if len(ring) > window:
                old = ring.popleft()
                left = freq[old] - 1
                if left:
                    freq[old] = left
                else:
                    del freq[old]
                    log.append(old)  # leaves the support
                    self._leaves += 1
        self.t = t

    def _changes(self):
        """The number of support changes so far: each coordinate in the
        support joined once more than it left."""
        return len(self._freq) + 2 * self._leaves

    def active_frequencies(self):
        return dict(self._freq)

    def subset(self, seed):
        """An instance's random subset S of [n], of size min(2 cap, n),
        registered so that the state keeps S & support."""
        rng = substream(seed, "subset")
        S = frozenset(rng.sample(range(1, self.n + 1), self.size))
        self._record(S)
        return S

    def _record(self, S):
        """[S & support, self._changes() when it was current], registering S
        if it is new: empty and current while the support is empty, and due
        for a rescan otherwise."""
        rec = self._members.get(S)
        if rec is None:
            rec = self._members[S] = [set(), self._changes() if not self._freq else -1]
        return rec

    def _current_members(self, S):
        """S & support, brought up to date from the log or by a rescan."""
        rec = self._record(S)
        members, pos = rec
        changes = self._changes()
        pending = changes - pos
        freq = self._freq
        if pending >= len(S) or pending > len(self._log):
            # Scan the smaller of S and the support.
            if len(S) < len(freq):
                members = rec[0] = freq.keys() & S
            else:
                members = rec[0] = {c for c in freq if c in S}
        else:
            # The pending changes are the log's last ones; a coordinate's
            # membership is read from the current support, so their order
            # does not matter.
            for c in islice(reversed(self._log), pending):
                if c in S:
                    if c in freq:
                        members.add(c)
                    else:
                        members.discard(c)
        rec[1] = changes
        return members

    def draw(self, S, rng):
        """One draw of the instance with subset S."""
        freq = self._freq
        if not freq:
            return SampleResult.bottom()
        if self.window is not None:
            small = len(freq) < self.cap
        else:
            small = len(self.T) < self.cap  # then T is the whole support
        if small:
            # Small support: uniform over the (active) support.
            support = sorted(freq)
            i = support[rng.randrange(len(support))]
            return SampleResult.of(i, frequency=freq[i])
        members = sorted(self._current_members(S))
        if not members:
            return SampleResult.fail()
        i = members[rng.randrange(len(members))]
        return SampleResult.of(i, frequency=freq[i])


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
        self.state = F0State(n, window)
        self.subsets = [self.state.subset(subseed(seed, "rep", i))
                        for i in range(self.R)]
        self.draw_state = DrawState(seed, repetitions)

    def ingest(self, coords):
        self.state.extend(coords)

    def keep(self):
        """keep(f), whether a draw keeps a hit of frequency f: always, for
        uniform support sampling."""
        return lambda f: True

    def draw(self):
        # The instances share one stream state: all are empty or none is.
        if not self.state._freq:
            return SampleResult.bottom()
        rng = self.draw_state.rng
        hits = (self.state.draw(S, rng) for S in self.subsets)
        return first_accepted(((res, res.frequency) for res in hits if res.outcome == INDEX),
                              self.keep()) or SampleResult.fail()


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
        """keep(f): a hit of frequency f is kept with probability
        G(f)/G(tau), from a table of these per distinct f that draws share."""
        g, g_cap = self.measure.g_exact, self.measure.tau * self.measure.tau / 6
        table = self.draw_state.table_at(g_cap, lambda f: Fraction(g(f)) / g_cap)
        rng = self.draw_state.rng
        return lambda f: bernoulli_fraction(table[f], rng)
