"""Reservoir sample plus strictly-after counter, and the shared-counter bank.

A unit keeps one uniformly random occurrence s of the stream seen so far and
counts how many times the same coordinate appears strictly after the sampled
occurrence.  The pseudocode convention that also counts the sampled occurrence
itself breaks the telescoping identity, so the counter here is strictly-after
(c ranges over 0 .. f_s - 1).

Resampling uses geometric skip-sampling: after holding position r the next
replacement position J satisfies Pr[J > t] = r/t, so J = floor(r/u) + 1 for a
uniform u, which exactrand.skip draws as 64-bit words until J is decided, so
the law holds exactly.  One uniform per replacement instead of one per
update.

A SamplerBank runs R such units over the same stream in O(1) amortized time
per update: a shared per-coordinate counter counts occurrences since the
coordinate was first sampled by any unit, and each unit stores the counter
value at its own sampling time as an offset.  The units share one generator:
at each position the units due there draw their skips from it in ascending
unit order.  Each skip takes fresh uniforms whichever unit draws them, so the
units stay i.i.d.  The units due at one position form a chain in flat int
storage (position -> first unit, unit -> next unit), so the bank keeps no
generator, tuple or container per unit.
"""

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

    All units draw from one generator, substream(seed, "bank"), the units due
    at a position in ascending order, so a bank is exactly R ReservoirUnits
    that share that generator and are updated in unit order.
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
        self.rng = substream(seed, "bank")
        # head[j]: first unit due at position j; nxt[i]: the unit after i on
        # its chain, -1 at the end.  All units accept position 1 first.
        self.head = {1: 0} if R else {}
        self.nxt = [*range(1, R), -1]

    def update(self, coord, time=None):
        """Feed one occurrence; returns the units that sampled it in
        ascending order, or an empty tuple when none did."""
        r = self.r_seen + 1
        self.r_seen = r
        counters = self.counters
        if coord in counters:
            counters[coord] += 1
        head = self.head
        i = head.pop(r, -1)
        if i < 0:
            return ()
        nxt = self.nxt
        picked = []
        while i >= 0:
            picked.append(i)
            i = nxt[i]
        picked.sort()
        when = time if time is not None else self.start_time + r - 1
        refs, rng = self.refs, self.rng
        for i in picked:
            old = self.unit_s[i]
            if old is not None:
                refs[old] -= 1
                if refs[old] == 0:
                    del refs[old]
                    del counters[old]
            if coord not in counters:
                counters[coord] = 1  # the sampled occurrence itself
                refs[coord] = 1
            else:
                refs[coord] = refs.get(coord, 0) + 1
            self.unit_s[i] = coord
            self.unit_t[i] = when
            self.unit_offset[i] = counters[coord]
            j = skip(r, rng)
            nxt[i] = head.get(j, -1)
            head[j] = i
        return picked

    def effective(self, i):
        """(sampled coordinate, its timestamp, strictly-after count) of unit i."""
        s = self.unit_s[i]
        if s is None:
            return None, 0, 0
        return s, self.unit_t[i], self.counters[s] - self.unit_offset[i]

    def snapshot(self):
        return [self.effective(i) for i in range(self.R)]
