import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from exactsamp.core import huber_measure, lp_measure
from exactsamp.exactrand import substream
from exactsamp.sliding import CheckpointedSampler, SlidingLpSampler, active_bank_start
from exactsamp.smoothhist import DegradedEstimate, ExactSuffixFp, SmoothHistogram
from exactsamp import oracle


def test_active_bank_start():
    # Banks start at 1, W+1, 2W+1, ...; the draw uses the newest bank whose
    # start is at or before the window start.
    assert active_bank_start(3, 3) == 1
    assert active_bank_start(4, 3) == 1
    assert active_bank_start(6, 3) == 4
    assert active_bank_start(7, 3) == 4
    assert active_bank_start(10, 3) == 7


def _active_bank_start_by_scan(t, W):
    # Reference: scan every bank start 1, W+1, ... <= t.
    best = 1
    for s in range(1, t + 1, W):
        if s <= t - W + 1:
            best = s
    return best


def test_active_bank_start_matches_scan():
    for W in range(1, 16):
        for t in range(0, 401):
            assert active_bank_start(t, W) == _active_bank_start_by_scan(t, W), (t, W)


def test_active_bank_start_flat_in_t():
    # Closed form: a call at t = 10^7 costs about what one at t = 10^3 does
    # (a scan over the bank starts made it O(t/W)).
    def best(t):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(2000):
                active_bank_start(t, 10)
            times.append(time.perf_counter() - t0)
        return min(times)

    small, large = best(10 ** 3), best(10 ** 7)
    assert large <= 3 * small, (large, small)


def test_bottom_on_empty():
    s = CheckpointedSampler(lp_measure(1), W=3)
    assert s.draw().outcome == "bottom"


def test_single_active_support():
    s = CheckpointedSampler(lp_measure(1), W=3, seed=2)
    s.process([1, 1, 1, 2, 2, 2])
    res = s.draw()
    if res.outcome == "index":
        assert res.index == 2


def test_expiry_safety_fuzz():
    W = 3
    for t in range(300):
        s = CheckpointedSampler(huber_measure(2), W=W, seed=t)
        stream = [substream(t, "f").randrange(3) + 1 for _ in range(7)]
        s.process(stream)
        res = s.draw()
        if res.outcome == "index":
            assert res.index in stream[-W:]


def test_window_covers_stream_matches_gsampler_law():
    # W >= stream length: conditional law equals the insertion-only target.
    coords = [1, 1, 2, 3]
    hist = Counter()
    for t in range(3000):
        s = CheckpointedSampler(lp_measure(1), W=8, seed=t, repetitions=8)
        s.process(coords)
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    rep = oracle.gof_test(dict(hist), {1: 0.5, 2: 0.25, 3: 0.25})
    assert rep.pvalue > 1e-4


def test_conditional_law_matches_window_target():
    coords = [1, 1, 2, 3, 3, 1]
    W = 4  # active window [3..6]: f = {2:1, 3:2, 1:1}
    hist = Counter()
    for t in range(3000):
        s = CheckpointedSampler(huber_measure(2), W=W, seed=t, repetitions=8)
        s.process(coords)
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    meas = huber_measure(2)
    g = {i: float(meas.g_exact(f)) for i, f in {2: 1, 3: 2, 1: 1}.items()}
    tot = sum(g.values())
    rep = oracle.gof_test(dict(hist), {i: v / tot for i, v in g.items()})
    assert rep.pvalue > 1e-4


def test_sliding_lp_conditional_law():
    coords = [2, 1, 1, 3, 1, 2]
    W = 3  # active f = {3:1, 1:1, 2:1}... last three: [3, 1, 2]
    hist = Counter()
    fails = 0
    for t in range(1500):
        s = SlidingLpSampler(2, W=W, seed=t, repetitions=8)
        s.process(coords)
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
        else:
            fails += 1
    rep = oracle.gof_test(dict(hist), {1: 1 / 3, 2: 1 / 3, 3: 1 / 3})
    assert rep.pvalue > 1e-4


def test_sliding_lp_skewed_window():
    coords = [1, 1, 2]
    W = 3  # f = (2,1), p=2: conditional (4/5, 1/5)
    hist = Counter()
    for t in range(2000):
        s = SlidingLpSampler(2, W=W, seed=t, repetitions=8)
        s.process(coords)
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    rep = oracle.gof_test(dict(hist), {1: 0.8, 2: 0.2})
    assert rep.pvalue > 1e-4


def test_sliding_lp_expiry_safety():
    W = 4
    for t in range(150):
        s = SlidingLpSampler(2, W=W, seed=t, repetitions=8)
        stream = [substream(t, "g").randrange(3) + 1 for _ in range(9)]
        s.process(stream)
        res = s.draw()
        if res.outcome == "index":
            assert res.index in stream[-W:]


def test_sliding_lp_p1_always_accepts():
    s = SlidingLpSampler(1, W=4, seed=0, repetitions=8)
    s.process([1, 2, 3, 4])
    assert s.draw().outcome == "index"


class UncertifiedF2(ExactSuffixFp):
    """Stands in for a randomized suffix sketch: no exact value, and a point
    estimate that either collapses (odd seed) or falls below F_2 (even seed)."""

    def __init__(self, p, seed=0):
        super().__init__(p, seed)
        self.seed = seed

    def fp_exact(self):
        return None

    def fp_bounds(self, prec):
        if self.seed % 2:
            raise DegradedEstimate("estimate collapsed")
        v = super().fp_bounds(prec)[0] / 4
        return v, v


def test_degraded_estimator_fails_cleanly():
    seeds = Counter()
    outcomes = Counter()
    for t in range(200):
        s = SlidingLpSampler(2, W=4, seed=t, estimator_factory=UncertifiedF2)
        s.process([1, 1, 2, 1])
        seeds[s.hist.bracket().est.seed % 2] += 1
        outcomes[s.draw().outcome] += 1
    # Degraded estimates must fold into Fail, never crash; both kinds occur.
    assert outcomes == {"fail": 200}
    assert seeds[0] and seeds[1]


# ---------------------------------------------------------------------------
# The shared suffix-minimum structure, enumerated on the real class


class ScriptedBits:
    """Stands in for the priority generator: random_raw(R) hands out the
    next position's priorities, one per unit, and random_raw() the next
    tie-extension word."""

    def __init__(self, priorities, words=()):
        self.priorities = iter(priorities)
        self.words = iter(words)

    def random_raw(self, size=None):
        if size is None:
            return next(self.words)
        row = np.array(next(self.priorities), dtype=np.uint64)
        assert row.shape == (size,)
        return row


def strictly_after(coords):
    """Recount: occurrences of coords[q] after position q (1-based keys)."""
    return {q: coords[q:].count(c) for q, c in enumerate(coords, 1)}


def suffix_tallies(sampler, coords, tally):
    """Add, for every lookup start t_j from the front to now, each unit's
    sampled position to tally[t_j]; check every strictly-after count."""
    minima = sampler.minima
    assert sampler.hist.rows[0].t_start >= minima.front
    after = strictly_after(coords)
    for q in range(minima.front, len(coords) + 1):
        assert minima.entry(q) == (coords[q - 1], after[q]), (coords, q)
    for t_j in range(minima.front, len(coords) + 1):
        tally[t_j] += Counter(minima.first_at(t_j).tolist())


def assert_uniform_suffixes(tally, t_end, orderings, context):
    for t_j, seen in tally.items():
        L = t_end - t_j + 1
        assert seen == {q: orderings // L for q in range(t_j, t_end + 1)}, (context, t_j)


def test_suffix_minima_exact_over_all_priority_orders():
    # One unit per ordering of the priorities, so a single run covers every
    # ordering of every stream of length <= 6 over 3 coordinates.
    for m in range(1, 7):
        perms = list(itertools.permutations(range(1, m + 1)))
        table = [[perm[t] << 40 for perm in perms] for t in range(m)]
        for coords in itertools.product(range(1, 4), repeat=m):
            coords = list(coords)
            for W in (1, 3, 6):
                s = SlidingLpSampler(2, W=W, repetitions=len(perms))
                s.minima.rng = ScriptedBits(table)
                s.process(coords)
                tally = {t_j: Counter() for t_j in range(s.minima.front, m + 1)}
                suffix_tallies(s, coords, tally)
                assert_uniform_suffixes(tally, m, len(perms), (coords, W))


def test_suffix_minima_tie_extension_exact():
    # Every 64-bit priority equal: each order is decided by extension words,
    # handed out in request order from every ordering of distinct words.
    for m in range(1, 5):
        for coords in itertools.product(range(1, 4), repeat=m):
            coords = list(coords)
            tally = {t_j: Counter() for t_j in range(1, m + 1)}
            for words in itertools.permutations(range(m)):
                s = SlidingLpSampler(2, W=m, repetitions=1)
                s.minima.rng = ScriptedBits([[2 ** 64 - 1]] * m, words)
                s.process(coords)
                suffix_tallies(s, coords, tally)
            assert_uniform_suffixes(tally, m, math.factorial(m), coords)


def test_suffix_minima_tie_needs_second_word():
    # Equal 64 bits and equal first extension words: the second words decide.
    for words, want in (((9, 9, 3, 4), [1, 2]), ((9, 9, 4, 3), [2, 2])):
        s = SlidingLpSampler(2, W=2, repetitions=1)
        s.minima.rng = ScriptedBits([[5], [5]], words)
        s.process([1, 1])
        assert [int(s.minima.first_at(t_j)[0]) for t_j in (1, 2)] == want
        assert s.minima.entry(1) == (1, 1)


def test_sliding_lp_ingest_within_ratio_of_bare_histogram():
    # Scaling guard as a ratio on one stream: all R units share one
    # structure, so ingest stays within a constant factor of the histogram
    # alone (per-row banks made it ~350x at R=512).
    coords = [c % 100 + 1 for c in range(400)]
    substream(21, "ratio").shuffle(coords)

    def best(make):
        times = []
        for _ in range(3):
            x = make()
            t0 = time.perf_counter()
            for c in coords:
                x.update(c)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_hist = best(lambda: SmoothHistogram(2, 50))
    t_lp = best(lambda: SlidingLpSampler(2, W=50, repetitions=512))
    print("sliding L2 ingest / bare histogram: %.2f" % (t_lp / t_hist))
    assert t_lp <= 10 * t_hist, (t_lp, t_hist)
