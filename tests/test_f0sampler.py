import math
import random
import time
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from statcheck import gof_test

from exactsamp.core import SampleResult, tukey_measure
from exactsamp.exactrand import bernoulli_fraction, substream
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
        st = F0State(16, window=W)
        for c in stream:
            st.update(c)
        res = st.draw(st.subset(t), __import__("random").Random(t))
        if res.outcome == "index":
            assert res.index in stream[-W:]


def _draw_scanning_support(st, S, rng):
    """F0State.draw as it was written with S & support taken by scanning the
    whole support."""
    freq = st.active_frequencies()
    if not freq:
        return SampleResult.bottom()
    small = len(freq) < st.cap if st.window is not None else len(st.T) < st.cap
    if small:
        support = sorted(freq)
        i = support[rng.randrange(len(support))]
        return SampleResult.of(i, frequency=freq[i])
    members = sorted(c for c in freq if c in S)
    if not members:
        return SampleResult.fail()
    i = members[rng.randrange(len(members))]
    return SampleResult.of(i, frequency=freq[i])


def _branch(st, S):
    """Whether a draw with S now folds the support log or rescans S & support."""
    pending = st._changes() - st._members[S][1]
    return "rescan" if pending >= len(S) or pending > len(st._log) else "fold"


def test_draw_matches_support_scan_fuzzed():
    # The state keeps S & support between draws.  Draws after every few
    # updates, and after bursts longer than |S|, must equal a scan of the
    # whole support, for subsets registered before and after the updates,
    # through expiries in window mode.
    rng = substream(0, "f0-fuzz")
    seen = Counter()
    for t in range(300):
        n = rng.randrange(4, 120)
        window = rng.choice([None, rng.randrange(1, 3 * n)])
        mode = "window" if window else "insertion-only"
        st = F0State(n, window=window)
        subsets = {"before": st.subset(t)}
        number = 0
        for _ in range(rng.randrange(1, 12)):
            burst = rng.choice([rng.randrange(0, 5), rng.randrange(0, 4 * n)])
            for _ in range(burst):
                st.update(rng.randrange(n) + 1)
            if "after" not in subsets and rng.randrange(3) == 0:
                subsets["after"] = st.subset(t + 10 ** 6)
            for when, S in subsets.items():
                number += 1
                large = st.active_frequencies() and not (
                    len(st.active_frequencies()) < st.cap if window else len(st.T) < st.cap)
                if large:
                    seen[mode, when, _branch(st, S)] += 1
                    seen[mode, len(S) < len(st.active_frequencies())] += 1
                got = st.draw(S, substream(t, "d", number))
                assert got == _draw_scanning_support(st, S, substream(t, "d", number))
    assert len(seen) == 12 and min(seen.values()) > 20, seen


def test_draw_flat_in_universe():
    # Equal support of 2000 coordinates, n = 10^4 (|S| = 200) and n = 10^6
    # (|S| = 2000): with S & support kept between draws, a draw after a few
    # repeated updates does not scan S.
    def best_draw_time(n):
        st = F0State(n)
        S = st.subset(3)
        st_rng = substream(n, "f0-flat")
        support = st_rng.sample(range(1, n + 1), 2000)
        for c in support:
            st.update(c)
        rng = substream(n, "d")
        st.draw(S, rng)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for i in range(200):
                st.update(support[i])
                st.draw(S, rng)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = best_draw_time(10 ** 4), best_draw_time(10 ** 6)
    print("F0 draw: n=1e4 %.2e s, n=1e6 %.2e s (ratio %.2f)" % (small, large, large / small))
    assert large <= 3.0 * small, (small, large)


def test_sliding_window_frequencies_active_only():
    st = F0State(9, window=2)
    for c in [1, 1, 2]:
        st.update(c)
    assert st.active_frequencies() == {1: 1, 2: 1}


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


def _independent_draw(states, subsets, rng, keep):
    """A draw over R separately built and separately fed instances, on rng, a
    clone of the sampler's draw generator taken before its draw: the first
    instance that hits and passes keep(f, rng)."""
    if not states[0].active_frequencies():
        return SampleResult.bottom()
    for state, S in zip(states, subsets):
        res = state.draw(S, rng)
        if res.outcome == "index" and keep(res.frequency, rng):
            return res
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
    states = [F0State(n, window) for _ in range(R)]
    subsets = [state.subset(substream(seed, "rep", i).getrandbits(64))
               for i, state in enumerate(states)]
    for k in range(0, len(coords) + 1, 20):
        chunk = coords[k:k + 20]
        s.process(chunk)
        for state in states:
            for c in chunk:
                state.update(c)
        rng = random.Random()
        rng.setstate(s.draw_state.rng.getstate())
        assert s.draw() == _independent_draw(states, subsets, rng, keep)
