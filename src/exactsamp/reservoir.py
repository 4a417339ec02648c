"""Reservoir sample plus strictly-after counter, in a shared-counter bank.

A unit keeps one uniformly random occurrence s of the stream seen so far and
counts how many times the same coordinate appears strictly after the sampled
occurrence.  The pseudocode convention that also counts the sampled occurrence
itself breaks the telescoping identity, so the counter here is strictly-after
(c ranges over 0 .. f_s - 1).

Resampling uses geometric skip-sampling (Vitter, "Random sampling with a
reservoir", ACM TOMS 1985): after holding position r the next replacement
position J satisfies Pr[J > t] = r/t, so J = floor(r/u) + 1 for a uniform u,
which exactrand.skip draws as 64-bit words until J is decided, so the law
holds exactly.  One uniform per replacement instead of one per update.

A SamplerBank runs R such units over the same stream in O(1) amortized time
per update: a shared per-coordinate counter counts occurrences from the one
at which some unit sampled the coordinate while it had no counter, and each
unit stores the counter value at its own sampling time as an offset, so
c = counter - offset.  The units share one generator: at each position the
units due there draw their skips from it in ascending unit order.  Each skip
takes fresh uniforms whichever unit draws them, so the units stay i.i.d.
The units due at one position form a chain in flat int storage (position ->
first unit, unit -> next unit), so the bank keeps no generator, tuple or
container per unit.

A counter outlives the units that held its coordinate: c is read only for
held coordinates, so a stale counter is never read, and one that is sampled
again keeps counting from where it is, which the new offset absorbs.  The
counters are rebuilt from the held coordinates once they exceed 2R, at O(1)
amortized cost (a rebuild costs O(R) and follows at least R new counters).

extend(coords) is the bank's one update loop: it takes a whole batch, binds
the bank's state once, and costs a dict lookup per update plus the work of
each replacement; update(coord) is a batch of one.
"""

from .exactrand import skip, substream


class SamplerBank:
    """R reservoir units sharing per-coordinate counters via offsets.

    All units draw from one generator, substream(seed, "bank"), the units due
    at a position in ascending order, so a bank is exactly R one-unit
    reservoirs that share that generator and are updated in unit order (the
    tests keep such a unit as the bank's reference).
    """

    def __init__(self, R, seed, start_time=1):
        self.R = R
        self.seed = seed
        self.start_time = start_time  # stream time of this bank's first update
        self.r_seen = 0
        self.counters = {}  # coord -> occurrences since its counter was made
        self.unit_s = [None] * R
        self.unit_t = [0] * R
        self.unit_offset = [0] * R
        self.rng = substream(seed, "bank")
        # head[j]: first unit due at position j; nxt[i]: the unit after i on
        # its chain, -1 at the end.  All units accept position 1 first.
        self.head = {1: 0} if R else {}
        self.nxt = [*range(1, R), -1]

    def update(self, coord):
        """Feed one occurrence; the units that sampled it in ascending order,
        or an empty tuple when none did."""
        picks = self.extend((coord,))
        return picks[0][1] if picks else ()

    def extend(self, coords):
        """Feed a batch of occurrences in order.  Returns (k, units) for each
        batch index k whose occurrence some units sampled, the units in
        ascending order."""
        r = r0 = self.r_seen
        counters, head, nxt = self.counters, self.head, self.nxt
        unit_s, unit_t, unit_offset = self.unit_s, self.unit_t, self.unit_offset
        rng, cap = self.rng, 2 * self.R
        shift = self.start_time - 1  # position r is stream time shift + r
        picks = []
        for coord in coords:
            r += 1
            if coord in counters:
                counters[coord] += 1
            if r not in head:
                continue
            i = head.pop(r)
            picked = []
            while i >= 0:
                picked.append(i)
                i = nxt[i]
            picked.sort()
            offset = counters.get(coord)
            if offset is None:
                offset = counters[coord] = 1  # the sampled occurrence itself
            when = shift + r
            for i in picked:
                unit_s[i] = coord
                unit_t[i] = when
                unit_offset[i] = offset
                j = skip(r, rng)
                nxt[i] = head.get(j, -1)
                head[j] = i
            if len(counters) > cap:
                counters = self.counters = {s: counters[s] for s in unit_s if s is not None}
            picks.append((r - r0 - 1, picked))
        self.r_seen = r
        return picks

    def effective(self, i):
        """(sampled coordinate, its timestamp, strictly-after count) of unit i."""
        s = self.unit_s[i]
        if s is None:
            return None, 0, 0
        return s, self.unit_t[i], self.counters[s] - self.unit_offset[i]

    def snapshot(self):
        return [self.effective(i) for i in range(self.R)]
