import math
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from exactsamp.exactrand import skip, substream
from exactsamp.reservoir import ReservoirUnit, SamplerBank


def test_single_element():
    u = ReservoirUnit(random.Random(0))
    u.update("a")
    assert u.s == "a" and u.c == 0 and u.t_s == 1


def test_counter_strictly_after():
    # Force the sample to stay at position 1: next_accept far away.
    u = ReservoirUnit(random.Random(0))
    u.update("a")
    u.next_accept = 10 ** 9
    u.update("a")
    assert u.c == 1  # one occurrence strictly after the sampled one
    u.update("b")
    assert u.c == 1


def test_next_jump_distribution():
    # Pr[J > t | held r] = r/t for t >= r.
    rng = random.Random(5)
    r = 3
    n = 200000
    jumps = [skip(r, rng) for _ in range(n)]
    for t in (4, 6, 10, 30):
        frac = sum(j > t for j in jumps) / n
        expect = r / t
        sigma = math.sqrt(expect * (1 - expect) / n)
        assert abs(frac - expect) < 4.5 * sigma


def test_reservoir_uniformity():
    m = 7
    n = 100000
    hits = Counter()
    for trial in range(n):
        u = ReservoirUnit(substream(trial, "unit"))
        for pos in range(1, m + 1):
            u.update(pos)  # coordinate == position, so s identifies position
        hits[u.s] += 1
    expect = n / m
    sigma = math.sqrt(n * (1 / m) * (1 - 1 / m))
    for pos in range(1, m + 1):
        assert abs(hits[pos] - expect) < 4.5 * sigma


def _naive_units(R, seed, coords):
    units = [ReservoirUnit(substream(seed, "unit", i)) for i in range(R)]
    for t, c in enumerate(coords, start=1):
        for u in units:
            u.update(c, t)
    return [(u.s, u.t_s, u.c) for u in units]


@given(st.lists(st.integers(1, 4), min_size=1, max_size=50),
       st.integers(1, 8), st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_bank_matches_naive_units(coords, R, seed):
    bank = SamplerBank(R, seed)
    for c in coords:
        bank.update(c)
    assert bank.snapshot() == _naive_units(R, seed, coords)


def test_bank_effective_counts_bounded():
    bank = SamplerBank(4, 99)
    coords = [random.Random(1).randrange(3) + 1 for _ in range(200)]
    freq = Counter(coords)
    for c in coords:
        bank.update(c)
    for i in range(4):
        s, t_s, c = bank.effective(i)
        assert 0 <= c <= freq[s] - 1
