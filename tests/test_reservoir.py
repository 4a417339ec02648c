import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from statcheck import gof_test

from exactsamp.core import SampleResult
from exactsamp.exactrand import skip, substream
from exactsamp.oracle import enumerate_law
from exactsamp.reservoir import SamplerBank


class ReservoirUnit:
    """One reservoir unit on its own, the reference the bank is checked
    against: it holds the sampled occurrence s, its time t_s and the count c
    of later occurrences of s.  With horizon H > 1 it first accepts a
    uniform position of 1 .. H, drawn when it is built, and skips from
    max(r, H)."""

    __slots__ = ("rng", "horizon", "s", "t_s", "c", "r_seen", "next_accept")

    def __init__(self, rng, horizon=1):
        self.rng = rng
        self.horizon = horizon
        self.s = None
        self.t_s = 0
        self.c = 0
        self.r_seen = 0
        self.next_accept = 1 if horizon == 1 else rng.randrange(horizon) + 1

    def update(self, coord, time=None):
        r = self.r_seen + 1
        self.r_seen = r
        if r == self.next_accept:
            self.s = coord
            self.t_s = time if time is not None else r
            self.c = 0
            self.next_accept = skip(max(r, self.horizon), self.rng)
        elif coord == self.s:
            self.c += 1


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


def _naive_units(R, seed, coords, start_time=1, horizon=1):
    # The bank's reference: R units sharing the bank's one generator, which
    # draw their positions at the horizon in unit order when built and are
    # updated in unit order at every position.
    rng = substream(seed, "bank")
    units = [ReservoirUnit(rng, horizon) for _ in range(R)]
    for t, c in enumerate(coords, start=start_time):
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


@given(st.lists(st.integers(1, 4), min_size=1, max_size=50),
       st.integers(1, 8), st.integers(0, 10 ** 6), st.integers(2, 12))
@settings(max_examples=120, deadline=None)
def test_horizon_bank_matches_naive_units(coords, R, seed, horizon):
    bank = SamplerBank(R, seed, horizon=horizon)
    for k, c in enumerate(coords, 1):
        bank.update(c)
        assert bank.snapshot() == _naive_units(R, seed, coords[:k], horizon=horizon), k


@pytest.mark.parametrize("R", [1, 2])
def test_horizon_bank_has_the_plain_law_from_its_horizon(R):
    # The joint law of the R units' (coordinate, time, count), enumerated
    # over every branch: a bank with horizon 3 read at position r >= 3 has
    # the plain bank's law.  The stream's coordinates repeat, so the counts
    # are read too.
    coords = [1, 2, 1, 1, 2, 1]

    def snapshot_law(horizon, r):
        def run():
            bank = SamplerBank(R, 0, horizon=horizon)
            bank.extend(coords[:r])
            return SampleResult.of(tuple(bank.snapshot()))

        return enumerate_law(run, r)

    for r in (3, 4, 6):
        plain = snapshot_law(1, r)
        assert snapshot_law(3, r) == plain, r
        assert len(plain.probs) > 1


def test_bank_counters_rebuilt_from_the_held_coordinates():
    # Counters of coordinates no unit holds stay until there are more than
    # 2R, then only the held ones are kept; the units' counts are unchanged.
    R, coords = 2, list(range(1, 3001))
    bank = SamplerBank(R, 8)
    for k in range(0, len(coords), 7):
        bank.extend(coords[k:k + 7])
        assert len(bank.counters) <= 2 * R
        held = {s for s in bank.unit_s if s is not None}
        assert held <= set(bank.counters)
    assert bank.snapshot() == _naive_units(R, 8, coords)


def test_bank_effective_counts_bounded():
    bank = SamplerBank(4, 99)
    coords = [random.Random(1).randrange(3) + 1 for _ in range(200)]
    freq = Counter(coords)
    for c in coords:
        bank.update(c)
    for i in range(4):
        s, t_s, c = bank.effective(i)
        assert 0 <= c <= freq[s] - 1


@pytest.mark.parametrize("R", [2, 3])
def test_bank_units_jointly_uniform(R):
    # The units share one generator, so independence between them is a joint
    # property: over m distinct positions the tuple of sampled positions is
    # uniform over all m^R cells.  (The exact-law sweeps run at R = 1.)
    m, trials = 4, 3000 * R
    hist = Counter()
    for seed in range(trials):
        bank = SamplerBank(R, seed)
        for pos in range(1, m + 1):
            bank.update(pos)
        hist[tuple(s for s, _, _ in bank.snapshot())] += 1
    cells = list(itertools.product(range(1, m + 1), repeat=R))
    rep = gof_test(hist, {cell: Fraction(1, m ** R) for cell in cells})
    assert rep.pvalue > 1e-4, rep


def test_bank_memory_per_unit():
    # One generator per bank, not one per unit (a Mersenne Twister state is
    # about 2.5 kB), and no per-unit tuple.
    R = 4096
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bank = SamplerBank(R, 5)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert bank.R == R
    assert used / R < 200, used / R
