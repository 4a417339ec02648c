"""Deterministic Misra-Gries summary and the L_p normalizer bound Z.

The summary keeps at most k counters.  Instead of decrementing every counter
when a new item arrives at a full table, a global offset is incremented;
counts are stored shifted by it, and entries whose stored count falls to the
offset are dead and are evicted lazily via a min-heap, keeping updates
O(log k) amortized even for weighted updates.  The heap keeps stale entries
until they surface, and is rebuilt from the counters whenever it holds more
than HEAP_SLACK entries per counter, so it stays O(k).  Estimates satisfy
f_i - m/k <= estimate(i) <= f_i with probability 1.

extend(items) is the summary's one update loop, and update(key, weight) is a
batch of one.  Between items every live count exceeds the offset, so while
the table is full the loop keeps low, the smallest live count above the
offset.  A new key of weight w < low is absorbed whole by the global
decrement: the offset rises by w, every counter stays above it, so none dies
and the new key keeps nothing.  Such an item only adds w to the offset and
takes it from low; it touches neither the heap nor the counters.  Every
other item (a hit, an insert, or a new key with w >= low, which kills the
counters at the minimum and stores the rest of w) changes the counters, and
low is read again from the heap top afterwards.

The summary also keeps top, the largest value it has stored, so z_bound
(and z_ratio, its integer pair, which the draws read) is O(1): while top > offset the counter that stored it is still there (it was
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

    # Kept for perfbench's layer tracer, which wraps this method by name.
    def update(self, coord, weight=1):
        self.extend(((coord, weight),))

    def extend(self, items):
        """Feed (key, weight) pairs in order; weights are positive integers.
        A bad weight raises with the pairs before it fed."""
        counts, heap, k = self.counts, self._heap, self.k
        off, m_seen, top = self.offset, self.m_seen, self.top
        push, pop = heapq.heappush, heapq.heappop
        # While the table is full, its smallest live count above off; else 0.
        low = _smallest_live(counts, heap) - off if len(counts) == k else 0
        try:
            for key, w in items:
                if 0 < w < low and key not in counts:
                    m_seen += w
                    off += w
                    low -= w
                    continue
                if w < 1:
                    raise ValueError("weights must be positive integers")
                m_seen += w
                v = counts.get(key)
                if v is not None:
                    v += w
                elif len(counts) < k:
                    v = off + w
                else:
                    # Full table, w >= low: the decrement by low kills the
                    # counters at the minimum, and the rest of w is stored.
                    off += low
                    v = off + w - low if w > low else None
                    while heap:
                        hv, hc = heap[0]
                        if counts.get(hc) != hv:
                            pop(heap)  # stale
                        elif hv <= off:
                            pop(heap)
                            del counts[hc]
                        else:
                            break
                if v is not None:
                    counts[key] = v
                    push(heap, (v, key))
                    if v > top:
                        top = v
                if len(heap) > HEAP_SLACK * len(counts):
                    # Mostly stale: rebuild from the live entries.  Each
                    # rebuild drops over (HEAP_SLACK - 1) stale entries per
                    # live one, so its cost is amortized over the pushes that
                    # made them.
                    heap = [(v, c) for c, v in counts.items()]
                    heapq.heapify(heap)
                low = _smallest_live(counts, heap) - off if len(counts) == k else 0
        finally:
            self.offset, self.m_seen, self.top, self._heap = off, m_seen, top, heap

    def estimate(self, coord):
        v = self.counts.get(coord)
        if v is None:
            return 0
        return max(v - self.offset, 0)

    def items(self):
        off = self.offset
        return {c: v - off for c, v in self.counts.items() if v > off}


def _smallest_live(counts, heap):
    """The smallest stored value of a nonempty table, read from the heap top
    once the stale entries above it are popped."""
    while counts.get(heap[0][1]) != heap[0][0]:
        heapq.heappop(heap)
    return heap[0][0]


def z_ratio(summary):
    """z_bound as integers (num, den): Z = E + m/k = (E k + m)/k, with E the
    largest estimate, in O(1)."""
    k = summary.k
    return max(summary.top - summary.offset, 0) * k + summary.m_seen, k


def z_bound(summary, p, n):
    """Z with max_i f_i <= Z <= max_i f_i + m/n^{1-1/p}, from a summary built
    with k = ceil(n^{1-1/p}) counters, in O(1): the largest estimate is
    top - offset, or 0 when every counter is dead."""
    return Fraction(*z_ratio(summary))


def mg_budget(p, n):
    """Counter budget k = ceil(n^{1-1/p}) for the Z bound, exactly, for a
    rational p = a/b >= 1: one integer root, n^{1-1/p} = (n^{a-b})^{1/a}."""
    p = exponent(p)
    if p < 1:
        raise ValueError("Z bound applies for p >= 1")
    a, b = p.numerator, p.denominator
    r, exact = integer_nthroot(n ** (a - b), a)
    return max(r if exact else r + 1, 1)
