"""Reservoir sample plus strictly-after counter, and the shared-counter bank.

A unit keeps one uniformly random occurrence s of the stream seen so far and
counts how many times the same coordinate appears strictly after the sampled
occurrence.  The pseudocode convention that also counts the sampled occurrence
itself breaks the telescoping identity, so the counter here is strictly-after
(c ranges over 0 .. f_s - 1).

Resampling uses geometric skip-sampling: after holding position r the next
replacement position J satisfies Pr[J > t] = r/t, so J = floor(r/u) + 1 for a
uniform u (exactrand.skip).  One uniform per replacement instead of one per
update.

A SamplerBank runs R such units over the same stream in O(1) amortized time
per update: a shared per-coordinate counter counts occurrences since the
coordinate was first sampled by any unit, and each unit stores the counter
value at its own sampling time as an offset.
"""

import heapq

from .exactrand import skip, substream


class ReservoirUnit:
    """One reservoir instance. Feed insertion-only occurrences via update()."""

    __slots__ = ("rng", "s", "t_s", "c", "r_seen", "next_accept")

    def __init__(self, rng):
        self.rng = rng
        self.s = None
        self.t_s = 0
        self.c = 0
        self.r_seen = 0
        self.next_accept = 1

    def update(self, coord, time=None):
        r = self.r_seen + 1
        self.r_seen = r
        if r == self.next_accept:
            self.s = coord
            self.t_s = time if time is not None else r
            self.c = 0
            self.next_accept = skip(r, self.rng)
        elif coord == self.s:
            self.c += 1


class SamplerBank:
    """R reservoir units sharing per-coordinate counters via offsets.

    Unit i draws its randomness from substream(seed, "unit", i), so a bank is
    distributionally identical to R independent ReservoirUnits built from the
    same substreams (and exactly identical given the same draws).
    """

    def __init__(self, R, seed, start_time=1):
        self.R = R
        self.seed = seed
        self.start_time = start_time  # stream time of this bank's first update
        self.r_seen = 0
        self.counters = {}  # coord -> occurrences since first tracked
        self.refs = {}  # coord -> number of units holding it
        self.unit_s = [None] * R
        self.unit_t = [0] * R
        self.unit_offset = [0] * R
        self.unit_rng = [substream(seed, "unit", i) for i in range(R)]
        # all units accept position 1 first
        self.heap = [(1, i) for i in range(R)]

    def update(self, coord, time=None):
        """Feed one occurrence; returns the units that sampled it, or an
        empty tuple when none did."""
        r = self.r_seen + 1
        self.r_seen = r
        counters = self.counters
        if coord in counters:
            counters[coord] += 1
        heap = self.heap
        picked = ()
        if heap and heap[0][0] == r:
            picked = []
            when = time if time is not None else self.start_time + r - 1
            while heap and heap[0][0] == r:
                _, i = heapq.heappop(heap)
                old = self.unit_s[i]
                if old is not None:
                    self.refs[old] -= 1
                    if self.refs[old] == 0:
                        del self.refs[old]
                        del counters[old]
                if coord not in counters:
                    counters[coord] = 1  # the sampled occurrence itself
                    self.refs[coord] = 1
                else:
                    self.refs[coord] = self.refs.get(coord, 0) + 1
                self.unit_s[i] = coord
                self.unit_t[i] = when
                self.unit_offset[i] = counters[coord]
                heapq.heappush(heap, (skip(r, self.unit_rng[i]), i))
                picked.append(i)
        return picked

    def effective(self, i):
        """(sampled coordinate, its timestamp, strictly-after count) of unit i."""
        s = self.unit_s[i]
        if s is None:
            return None, 0, 0
        return s, self.unit_t[i], self.counters[s] - self.unit_offset[i]

    def snapshot(self):
        return [self.effective(i) for i in range(self.R)]
