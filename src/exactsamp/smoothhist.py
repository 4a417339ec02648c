"""Exact frequencies of a sliding window, and their largest value.

WindowCounter keeps the last W coordinates in a ring, each coordinate's
count among them, and how many coordinates hold each count (tally[f]).  Its
max_f is the window's largest frequency, kept in O(1) per update: an arrival
raises at most its own count, by one, and an expiry lowers one count by one,
so max_f drops by at most 1, and only when tally[max_f] falls to 0.  The
ring, counts and tallies hold at most 3W + 1 entries.

This is the exact (epsilon = 0) case of a sliding-window frequency summary.
sliding.SlidingLpSampler reads Z = max_f at each draw for its zeta =
p Z^{p-1}; max_f is a function of the stream alone, and bounds every live
repetition's c + 1 <= f(window).  A W/k-error summary (Lee-Ting, PODS 2006)
would give sublinear space, at a Z up to max_f + W/k.
"""


class WindowCounter:
    def __init__(self, W):
        self.W = W
        self.ring = []  # the last W coordinates, the oldest at t % W once full
        self.counts = {}  # coordinate -> count in the window, 0s deleted
        self.tally = [0]  # tally[f] = number of coordinates with count f >= 1
        self.max_f = 0
        self.t = 0

    # Kept for perfbench's layer tracer (SmoothHistogram below).
    def update(self, coord):
        self.ingest((coord,))

    def ingest(self, coords):
        W, ring, counts, tally = self.W, self.ring, self.counts, self.tally
        t, max_f = self.t, self.max_f
        for coord in coords:
            if t < W:
                ring.append(coord)
            else:
                pos = t % W
                old = ring[pos]
                if old == coord:  # one occurrence leaves and one arrives
                    t += 1
                    continue
                ring[pos] = coord
                f = counts[old]
                tally[f] -= 1
                if f == 1:
                    del counts[old]
                else:
                    counts[old] = f - 1
                    tally[f - 1] += 1
                if f == max_f and not tally[f]:
                    max_f = f - 1
            t += 1
            f = counts.get(coord, 0) + 1
            counts[coord] = f
            if f > 1:
                tally[f - 1] -= 1
            if f > max_f:
                max_f = f
                if f == len(tally):
                    tally.append(0)
            tally[f] += 1
        self.t, self.max_f = t, max_f


# perfbench's layer tracer wraps smoothhist.SmoothHistogram.update by name.
SmoothHistogram = WindowCounter
