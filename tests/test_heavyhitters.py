import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactsamp.exactrand import substream
from exactsamp.heavyhitters import HEAP_SLACK, MGSummary, mg_budget, z_bound


def test_hand_example_k2():
    s = MGSummary(2)
    for c in [1, 1, 2, 3]:
        s.update(c)
    assert s.estimate(1) == 1
    # f1 - m/k = 2 - 2 = 0 <= estimate <= f1
    assert 0 <= s.estimate(1) <= 2


def test_single_item_exact():
    s = MGSummary(1)
    for _ in range(3):
        s.update(1)
    assert s.estimate(1) == 3


def test_z_bound_hand_example():
    s = MGSummary(2)
    for c in [1, 1, 2, 3]:
        s.update(c)
    z = z_bound(s, 2, 4)
    assert z == 1 + Fraction(4, 2) == 3
    assert 2 <= z <= 2 + 2


def test_mg_budget():
    assert mg_budget(1, 100) == 1
    assert mg_budget(2, 100) == 10
    assert mg_budget(Fraction(3, 2), 64) == 4
    with pytest.raises(ValueError):
        mg_budget(Fraction(1, 2), 10)


def test_mg_budget_exact_where_floats_round():
    # sqrt(10^18 + 1) is 10^9 in floating point, so a float ceiling gives 10^9
    # counters, one short of ceil(n^{1/2}).
    assert mg_budget(2, 10 ** 18 + 1) == 10 ** 9 + 1
    assert mg_budget(2, 10 ** 18) == 10 ** 9
    assert mg_budget(Fraction(3, 2), 10 ** 18) == 10 ** 6
    assert mg_budget(Fraction(3, 2), 10 ** 18 + 1) == 10 ** 6 + 1
    assert mg_budget(Fraction(5, 4), 2 ** 100 + 1) == 2 ** 20 + 1


def test_rejects_bad_args():
    with pytest.raises(ValueError):
        MGSummary(0)
    with pytest.raises(ValueError):
        MGSummary(2).update(1, 0)


@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 9)),
                min_size=1, max_size=120),
       st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_mg_error_bound(weighted, k):
    s = MGSummary(k)
    freq = Counter()
    for coord, w in weighted:
        s.update(coord, w)
        freq[coord] += w
    m = sum(freq.values())
    for coord, f in freq.items():
        est = s.estimate(coord)
        assert est <= f
        assert est >= f - Fraction(m, k)
    assert len(s.items()) <= k


@given(st.lists(st.integers(1, 8), min_size=1, max_size=100),
       st.integers(2, 8))
@settings(max_examples=100, deadline=None)
def test_z_bound_brackets_max(coords, n):
    coords = [((c - 1) % n) + 1 for c in coords]
    k = mg_budget(2, n)
    s = MGSummary(k)
    freq = Counter()
    for c in coords:
        s.update(c)
        freq[c] += 1
    z = z_bound(s, 2, n)
    fmax = max(freq.values())
    assert fmax <= z <= fmax + Fraction(len(coords), k)


def test_weighted_matches_unit_updates():
    rng = substream(0, "w")
    a, b = MGSummary(3), MGSummary(3)
    for _ in range(300):
        c = rng.randrange(6) + 1
        w = rng.randrange(4) + 1
        a.update(c, w)
        for _ in range(w):
            b.update(c)
    # Weighted and unit-by-unit runs need not agree exactly, but both must
    # satisfy the error bound against the same frequencies; compare totals.
    assert a.m_seen == b.m_seen


class HeapFreeMG:
    """Misra-Gries with the global offset and no heap: the minimum and the
    dead entries are found by scanning every counter."""

    def __init__(self, k):
        self.k, self.counts, self.offset, self.m_seen = k, {}, 0, 0

    def update(self, coord, weight=1):
        self.m_seen += weight
        counts = self.counts
        if coord in counts:
            counts[coord] += weight
        elif len(counts) < self.k:
            counts[coord] = self.offset + weight
        else:
            low = min(counts.values()) - self.offset
            self.offset += min(weight, low)
            if weight > low:
                counts[coord] = self.offset + weight - low
            self.counts = {c: v for c, v in counts.items() if v > self.offset}


def test_mg_matches_heap_free_reference_and_heap_stays_small():
    rng = substream(0, "mg-fuzz")
    rebuilds = 0
    for _ in range(300):
        k = rng.randrange(1, 7)
        n = rng.randrange(k, 2 * k + 3)
        s, ref = MGSummary(k), HeapFreeMG(k)
        for _ in range(rng.randrange(1, 400)):
            coord, w = rng.randrange(n) + 1, rng.randrange(1, 5)
            before = len(s._heap)
            s.update(coord, w)
            ref.update(coord, w)
            rebuilds += len(s._heap) < before
            assert len(s._heap) <= HEAP_SLACK * len(s.counts)
            assert set(s._heap) >= {(v, c) for c, v in s.counts.items()}
            assert s.items() == {c: v - ref.offset for c, v in ref.counts.items()}
        for coord in range(1, n + 1):
            assert s.estimate(coord) == max(ref.counts.get(coord, 0) - ref.offset, 0)
        assert z_bound(s, 2, n) == _scanned_z(ref)
    assert rebuilds > 1000


def _scanned_z(ref):
    """z_bound as a scan over every counter of the reference: its largest
    estimate, or 0, plus m/k."""
    best = max([0] + [v - ref.offset for v in ref.counts.values()])
    return best + Fraction(ref.m_seen, ref.k)


def test_z_bound_matches_scan_when_every_counter_dies():
    # k = 2: coordinate 1 stores the top value 5, the offset climbs to it
    # through evictions, and (6, 2) kills both counters, the top one
    # included; then new keys arrive and the largest live estimate is
    # theirs.  z_bound reads the summary's running top in O(1) and must
    # equal the scan after every update.
    s, ref = MGSummary(2), HeapFreeMG(2)
    steps = [(1, 5), (2, 2), (3, 2), (4, 1), (5, 3), (6, 2), (7, 1), (8, 1), (7, 2)]
    dead_seen = False
    for coord, w in steps:
        s.update(coord, w)
        ref.update(coord, w)
        assert z_bound(s, 2, 9) == _scanned_z(ref), (coord, w)
        dead_seen |= not s.items()
    assert dead_seen and s.items()
    assert s.top - s.offset == max(s.items().values())



def test_z_bound_flat_in_counters():
    # Full summaries of k = 10 and k = 10^4 counters: z_bound reads the
    # running top instead of scanning the counters.
    def best_z_time(k):
        s = MGSummary(k)
        for c in range(1, 3 * k + 1):
            s.update(c, 1 + c % 7)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(2000):
                z_bound(s, 2, k * k)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = best_z_time(10), best_z_time(10 ** 4)
    print("z_bound: k=10 %.2e s, k=1e4 %.2e s (ratio %.2f)" % (small, large, large / small))
    assert large <= 3.0 * small, (small, large)
