"""Deterministic Misra-Gries summary and the L_p normalizer bound Z.

The summary keeps at most k counters.  Instead of decrementing every counter
when a new item arrives at a full table, a global offset is incremented;
entries whose stored count falls to the offset are dead and are evicted
lazily via a min-heap, keeping updates O(log k) amortized even for weighted
updates.  The heap keeps stale entries until they surface, and is rebuilt
from the counters whenever it holds more than HEAP_SLACK entries per counter,
so it stays O(k).  Estimates satisfy f_i - m/k <= estimate(i) <= f_i with
probability 1.

The summary also keeps top, the largest value it has stored, so z_bound is
O(1): while top > offset the counter that stored it is still there (it was
neither raised past top nor, since eviction needs its value <= offset,
evicted), and once top <= offset every counter is dead.
"""

import heapq
from fractions import Fraction

from .core import exponent
from .exactrand import integer_nthroot

HEAP_SLACK = 4  # the heap holds at most this many entries per counter


class MGSummary:
    __slots__ = ("k", "counts", "offset", "m_seen", "top", "_heap")

    def __init__(self, k):
        if k < 1:
            raise ValueError("counter budget must be >= 1")
        self.k = k
        self.counts = {}  # coord -> offset-shifted count
        self.offset = 0
        self.m_seen = 0
        self.top = 0  # the largest stored value
        self._heap = []  # (stored value, coord); may contain stale entries

    def _evict_dead(self):
        counts, heap, off = self.counts, self._heap, self.offset
        while heap:
            v, c = heap[0]
            cur = counts.get(c)
            if cur is None or cur != v:
                heapq.heappop(heap)  # stale
            elif v <= off:
                heapq.heappop(heap)
                del counts[c]
            else:
                break

    def _min_effective(self):
        counts, heap = self.counts, self._heap
        while heap:
            v, c = heap[0]
            if counts.get(c) != v:
                heapq.heappop(heap)
            else:
                return v - self.offset
        return 0

    def update(self, coord, weight=1):
        if weight < 1:
            raise ValueError("weights must be positive integers")
        self.m_seen += weight
        counts = self.counts
        if coord in counts:
            v = counts[coord] + weight
            counts[coord] = v
            heapq.heappush(self._heap, (v, coord))
            if v > self.top:
                self.top = v
        elif len(counts) < self.k:
            v = self.offset + weight
            counts[coord] = v
            heapq.heappush(self._heap, (v, coord))
            if v > self.top:
                self.top = v
        else:
            # Table full: play the new weight against the global decrement.
            low = self._min_effective()
            if weight <= low:
                self.offset += weight
            else:
                self.offset += low
                v = self.offset + (weight - low)
                counts[coord] = v
                heapq.heappush(self._heap, (v, coord))
                if v > self.top:
                    self.top = v
            self._evict_dead()
        if len(self._heap) > HEAP_SLACK * len(counts):
            # Mostly stale: rebuild from the live entries.  Each rebuild drops
            # over (HEAP_SLACK - 1) stale entries per live one, so its cost is
            # amortized over the pushes that made them.
            self._heap = [(v, c) for c, v in counts.items()]
            heapq.heapify(self._heap)

    def estimate(self, coord):
        v = self.counts.get(coord)
        if v is None:
            return 0
        return max(v - self.offset, 0)

    def items(self):
        off = self.offset
        return {c: v - off for c, v in self.counts.items() if v > off}


def z_bound(summary, p, n):
    """Z with max_i f_i <= Z <= max_i f_i + m/n^{1-1/p}, from a summary built
    with k = ceil(n^{1-1/p}) counters, in O(1): the largest estimate is
    top - offset, or 0 when every counter is dead."""
    return max(summary.top - summary.offset, 0) + Fraction(summary.m_seen, summary.k)


def mg_budget(p, n):
    """Counter budget k = ceil(n^{1-1/p}) for the Z bound, exactly, for a
    rational p >= 1 (one integer root of n^a, (p-1)/p = a/b)."""
    p = exponent(p)
    if p < 1:
        raise ValueError("Z bound applies for p >= 1")
    e = 1 - 1 / p
    r, exact = integer_nthroot(n ** e.numerator, e.denominator)
    return max(r if exact else r + 1, 1)
