import math
import random
import time
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from statcheck import gof_test

from exactsamp.core import SampleResult, tukey_measure
from exactsamp.exactrand import bernoulli_fraction, substream, uniform_subset
from exactsamp.f0sampler import F0Sampler, F0State, TukeySampler
from exactsamp import oracle


def test_bottom_on_empty():
    assert F0Sampler(9, seed=0).draw().outcome == "bottom"


def test_small_support_uniform():
    # n=9, support {1,3}: small branch, exactly uniform.
    hist = Counter()
    for t in range(4000):
        s = F0Sampler(9, seed=t)
        s.process([1, 1, 1, 3])
        res = s.draw()
        assert res.outcome == "index"
        hist[res.index] += 1
    frac = hist[1] / 4000
    assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / 4000)


def test_reports_frequency():
    s = F0Sampler(9, seed=5)
    s.process([2, 2, 7])
    res = s.draw()
    assert res.frequency == {2: 2, 7: 1}[res.index]


def test_large_support_uniform():
    n = 36  # cap = 6, support size 12 > cap: large branch exercised
    support = list(range(1, 13))
    hist = Counter()
    fails = 0
    for t in range(3000):
        s = F0Sampler(n, seed=t)
        s.process(support)
        res = s.draw()
        if res.outcome == "fail":
            fails += 1
        else:
            hist[res.index] += 1
    rep = gof_test(dict(hist), {i: 1 / 12 for i in support})
    assert rep.pvalue > 1e-4
    assert fails < 3000 * 0.05


def test_sliding_window_never_expired():
    W = 4
    stream = [1, 2, 3, 4, 5, 6, 7, 8]
    for t in range(200):
        st = F0State(16, [t], window=W)
        for c in stream:
            st.update(c)
        res = st.draw(0, __import__("random").Random(t))
        if res.outcome == "index":
            assert res.index in stream[-W:]


def _subset(n, seed):
    """Instance seed's subset S, as F0State draws it."""
    return {c + 1 for c in uniform_subset(n, F0State(n, ()).size, substream(seed, "subset"))}


def _draw_scanning_support(freq, cap, S, rng, k):
    """F0State.draw(k, rng) as it was written with S & support taken by
    scanning the whole support, whose counts are freq."""
    if not freq:
        return SampleResult.bottom()
    members = sorted(freq if len(freq) < cap else (c for c in freq if c in S))
    if not members:
        return SampleResult.fail()
    i = members[rng.randrange(len(members))]
    return SampleResult.of(i, frequency=freq[i], repetition=k)


def test_draw_matches_support_scan_fuzzed():
    # The state keeps S & support as coordinates join and leave it.  Draws
    # after every few updates, and after bursts longer than |S|, must equal
    # a scan of the whole (window) support, counted here, for two instances,
    # through expiries in window mode.
    rng = substream(0, "f0-fuzz")
    seen = Counter()
    for t in range(300):
        n = rng.randrange(4, 120)
        window = rng.choice([None, rng.randrange(1, 3 * n)])
        mode = "window" if window else "insertion-only"
        seeds = [t, t + 10 ** 6]
        st = F0State(n, seeds, window=window)
        subsets = [_subset(n, seed) for seed in seeds]
        coords = []
        number = 0
        for _ in range(rng.randrange(1, 12)):
            burst = rng.choice([rng.randrange(0, 5), rng.randrange(0, 4 * n)])
            for _ in range(burst):
                coords.append(rng.randrange(n) + 1)
                st.update(coords[-1])
            freq = Counter(coords[-window:] if window else coords)
            for k, S in enumerate(subsets):
                number += 1
                got = st.draw(k, substream(t, "d", number))
                assert got == _draw_scanning_support(freq, st.cap, S, substream(t, "d", number), k)
                if freq:
                    branch = "small" if len(freq) < st.cap else "large"
                    seen[mode, branch, len(S) < len(freq)] += 1
    assert len(seen) == 6 and min(seen.values()) > 20, seen


def test_draw_flat_in_universe():
    # Equal support of 2000 coordinates, n = 10^4 (|S| = 200) and n = 10^6
    # (|S| = 2000): with S & support kept between draws, a draw after a few
    # repeated updates does not scan S.
    def best_draw_time(n):
        st = F0State(n, [3])
        st_rng = substream(n, "f0-flat")
        support = st_rng.sample(range(1, n + 1), 2000)
        for c in support:
            st.update(c)
        rng = substream(n, "d")
        st.draw(0, rng)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for i in range(200):
                st.update(support[i])
                st.draw(0, rng)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = best_draw_time(10 ** 4), best_draw_time(10 ** 6)
    print("F0 draw: n=1e4 %.2e s, n=1e6 %.2e s (ratio %.2f)" % (small, large, large / small))
    assert large <= 3.0 * small, (small, large)


def test_insertion_only_state_counts_only_tracked_coordinates():
    # A draw returns a coordinate of T or of an instance's subset, so only
    # those are counted: after 4n uniform updates over n = 10^5, which reach
    # about 98% of [n], at most cap + R |S| = 317 + 8 * 634 coordinates.
    n, seeds = 10 ** 5, range(8)
    st = F0State(n, seeds)
    rng = substream(5, "f0-space")
    st.extend(rng.randrange(n) + 1 for _ in range(4 * n))
    assert set(st._freq) <= set(st.T).union(*(_subset(n, seed) for seed in seeds))
    assert len(st._freq) <= st.cap + len(seeds) * st.size == 5389, len(st._freq)


def test_sliding_window_frequencies_active_only():
    st = F0State(9, [0], window=2)
    for c in [1, 1, 2]:
        st.update(c)
    assert st._freq == {1: 1, 2: 1}


def test_tukey_frozen_example():
    # f=(1,2), tau=2: conditional (37/101, 64/101).
    meas = tukey_measure(2)
    target = oracle.target_distribution({1: 1, 2: 2}, meas)
    assert target.probs == {1: Fraction(37, 101), 2: Fraction(64, 101)}
    hist = Counter()
    for t in range(3000):
        s = TukeySampler(meas, 9, seed=t)
        s.process([1, 2, 2])
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    rep = gof_test(dict(hist), {i: float(v) for i, v in target.probs.items()})
    assert rep.pvalue > 1e-4


def test_tukey_saturated_uniform():
    # all frequencies >= tau: G saturates, uniform over support.
    meas = tukey_measure(2)
    hist = Counter()
    for t in range(2000):
        s = TukeySampler(meas, 9, seed=t)
        s.process([1, 1, 5, 5, 5])
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    frac = hist[1] / (hist[1] + hist[5])
    assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / (hist[1] + hist[5]))


def test_tukey_single_support():
    meas = tukey_measure(2)
    s = TukeySampler(meas, 4, seed=0)
    s.process([3, 3])
    res = s.draw()
    assert res.outcome in ("index", "fail")
    if res.outcome == "index":
        assert res.index == 3


def _independent_draw(states, rng, keep):
    """A draw over R separately built and separately fed instances, on rng, a
    clone of the sampler's draw generator taken before its draw: the first
    instance that hits and passes keep(f, rng), named as the repetition."""
    if not states[0].t:
        return SampleResult.bottom()
    for i, state in enumerate(states):
        res = state.draw(0, rng)
        if res.outcome == "index" and keep(res.frequency, rng):
            return SampleResult.of(res.index, frequency=res.frequency, repetition=i)
    return SampleResult.fail()


@given(st.integers(1, 200), st.lists(st.integers(1, 200), max_size=80),
       st.one_of(st.none(), st.integers(1, 30)), st.integers(1, 8),
       st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_shared_state_draws_equal_independent_instances(n, coords, window, R, seed, tukey):
    # One shared stream state plus R subsets returns, draw for draw, what R
    # independently built single instances return.
    coords = [(c - 1) % n + 1 for c in coords]
    meas = tukey_measure(2)
    if tukey:
        s = TukeySampler(meas, n, seed=seed, window=window, repetitions=R)
        keep = lambda f, rng: bernoulli_fraction(meas.g_exact(f) / Fraction(4, 6), rng)
    else:
        s = F0Sampler(n, seed=seed, window=window, repetitions=R)
        keep = lambda f, rng: True
    states = [F0State(n, [substream(seed, "rep", i).getrandbits(64)], window)
              for i in range(R)]
    for k in range(0, len(coords) + 1, 20):
        chunk = coords[k:k + 20]
        s.process(chunk)
        for state in states:
            for c in chunk:
                state.update(c)
        rng = random.Random()
        rng.setstate(s.draw_state.rng.getstate())
        assert s.draw() == _independent_draw(states, rng, keep)
