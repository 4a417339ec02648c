import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactsamp.exactrand import substream
from exactsamp.gsampler import lp_sampler
from exactsamp.heavyhitters import HEAP_SLACK, MGSummary, mg_budget, z_bound
from exactsamp.smallp import DuplicatedExpState


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


def _feed_reference(ref, items, top):
    """Feed HeapFreeMG one item at a time; returns the summary's top, the
    largest value stored so far."""
    for coord, w in items:
        ref.update(coord, w)
        top = max([top] + list(ref.counts.values()))
    return top


def _assert_same_state(s, ref, top):
    assert list(s.counts.items()) == list(ref.counts.items())  # dict order too
    assert (s.offset, s.m_seen, s.top) == (ref.offset, ref.m_seen, top)


def _batches(items, cuts):
    out, i = [], 0
    for cut in cuts:
        out.append(items[i:i + cut])
        i += cut
    return out + [items[i:]]


# w < low absorbed (k = 2: both counters at 3, a new key of 1); w == low
# killing one counter, and both; w > low storing the rest.
@example(2, [(1, 3), (2, 3), (3, 1), (4, 2)], [4])
@example(2, [(1, 2), (2, 2), (3, 2), (4, 1)], [1, 2])
@example(3, [(1, 1), (2, 2), (3, 3), (4, 1), (5, 4)], [])
@example(1, [(1, 2), (2, 5), (3, 1), (3, 1)], [0, 2])
@given(st.integers(1, 6),
       st.lists(st.tuples(st.integers(1, 9), st.integers(1, 6)), max_size=80),
       st.lists(st.integers(0, 12), max_size=10))
@settings(max_examples=150, deadline=None)
def test_extend_in_any_split_matches_per_item_reference(k, items, cuts):
    # extend() over a batch must leave the state that one update per item
    # leaves: the counters in their dict order, the offset, m and top.
    s, ref, top = MGSummary(k), HeapFreeMG(k), 0
    for batch in _batches(items, cuts):
        s.extend(batch)
        top = _feed_reference(ref, batch, top)
        _assert_same_state(s, ref, top)
        assert len(s._heap) <= HEAP_SLACK * len(s.counts)
        assert set(s._heap) >= {(v, c) for c, v in s.counts.items()}


@given(st.integers(1, 4),
       st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), max_size=15),
       st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), max_size=30),
       st.integers(0, 30), st.sampled_from([0, -2]))
@settings(max_examples=60, deadline=None)
def test_extend_stops_at_a_bad_weight_with_the_items_before_it_fed(k, before, batch, at, bad):
    at = min(at, len(batch))
    s, ref = MGSummary(k), HeapFreeMG(k)
    s.extend(before)
    top = _feed_reference(ref, before, 0)
    with pytest.raises(ValueError):
        s.extend(batch[:at] + [(7, bad)] + batch[at:])
    top = _feed_reference(ref, batch[:at], top)
    _assert_same_state(s, ref, top)
    with pytest.raises(ValueError):
        s.update(7, bad)
    _assert_same_state(s, ref, top)


def _zipf_stream(n, m, seed):
    rng = substream(seed, "zipf")
    return rng.choices(range(1, n + 1), weights=[1 / i ** 1.1 for i in range(1, n + 1)], k=m)


@pytest.mark.parametrize("name", ["smallp", "lp2"])
def test_sampler_summaries_match_per_item_reference(name):
    # The samplers feed their summaries one extend() per batch of 250; the
    # summaries must equal HeapFreeMG fed the same derived items one at a
    # time, dict order included, which keeps every seeded draw the same.
    stream = _zipf_stream(1000, 1500, 1)
    if name == "smallp":
        s = DuplicatedExpState(0.5, 32, seed=1)

        def derived(coord):
            return [((coord, j), w) for j, w in enumerate(s._dup_weights(coord)) if w > 0]
    else:
        s = lp_sampler(2, 1000, len(stream), seed=1)

        def derived(coord):
            return [(coord, 1)]
    ref, top = HeapFreeMG(s.mg.k), 0
    for i in range(0, len(stream), 250):
        batch = stream[i:i + 250]
        s.process(batch)
        top = _feed_reference(ref, [item for c in batch for item in derived(c)], top)
        _assert_same_state(s.mg, ref, top)


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
