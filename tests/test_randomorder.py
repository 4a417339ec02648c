import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from statcheck import gof_test

from exactsamp.core import SampleResult
from exactsamp.exactrand import substream
from exactsamp.randomorder import (
    BlockLpSampler,
    PairL2Sampler,
    alpha_coeffs,
    check_cap_config,
    falling,
    stirling2,
)
from exactsamp import oracle


def test_stirling_identity():
    # x^p = sum_k S(p,k) (x)_k for all small x, p.
    for p in range(1, 7):
        row = stirling2(p)
        for x in range(0, 20):
            assert x ** p == sum(row[k] * falling(x, k) for k in range(p + 1))


def test_stirling_row_p3():
    assert stirling2(3) == [0, 1, 3, 1]


def test_alpha_example():
    # p=3, W=4: alpha_3 = 1 * (4*3*2) / 4^3 = 3/8.
    assert alpha_coeffs(3, 4)[2] == Fraction(3, 8)


def test_alpha_sums_to_fp_over_wp():
    # Per-tuple harvest mass, on the shipped coefficients: under a uniformly
    # random order, a tuple of p distinct positions has its first q entries
    # all equal to coordinate i with probability (f)_q/(W)_q, and inserts i
    # with probability alpha_q for each such q, so its mass on i is
    # sum_q alpha_q (f)_q/(W)_q, which must be f^p/W^p for every f <= W.
    for p in range(3, 7):
        for W in range(p, 13):
            alphas = alpha_coeffs(p, W)
            for f in range(W + 1):
                mass = sum(a * Fraction(falling(f, q), falling(W, q))
                           for q, a in enumerate(alphas, 1))
                assert mass == Fraction(f ** p, W ** p), (p, W, f)


def test_cap_config():
    with pytest.raises(ValueError):
        check_cap_config(1, 10)
    check_cap_config(2, 10)


def _shuffled(freqs, seed):
    pool = []
    for i, f in freqs.items():
        pool.extend([i] * f)
    rng = substream(seed, "order")
    rng.shuffle(pool)
    return pool


def test_pair_all_one_coordinate():
    s = PairL2Sampler(3, 4, seed=1)
    s.process([1, 1, 1, 1])
    res = s.draw()
    assert res.outcome == "index" and res.index == 1


def test_merged_pair_law_is_biased():
    # The real class over every order of the window, W=4, f=(2,1,1): the
    # merged conditional (a uniform pick among all harvested pairs) is 7/10
    # on the heavy coordinate, not f^2/F2 = 4/6; only the designated single
    # pair obeys f^2/W^2.
    law = oracle.order_law(lambda: PairL2Sampler(3, 4), {1: 2, 2: 1, 3: 1}).conditional()
    assert law == {1: Fraction(7, 10), 2: Fraction(3, 20), 3: Fraction(3, 20)}
    assert law[1] != Fraction(4, 6)


def test_pair_conditional_law():
    freqs = {1: 2, 2: 1, 3: 1}
    W = 4
    hist = Counter()
    for t in range(6000):
        s = PairL2Sampler(3, W, seed=2 * t + 1)
        s.process(_shuffled(freqs, t))
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    law = oracle.order_law(lambda: PairL2Sampler(3, W), freqs)  # every order, real class
    target = {i: float(v) for i, v in law.conditional().items()}
    rep = gof_test(dict(hist), target)
    assert rep.pvalue > 1e-4, rep


def test_pair_expiry():
    s = PairL2Sampler(3, W=4, seed=0)
    s.process([1, 1, 1, 1, 2, 2, 2, 2])
    s.expire()
    for c, t in s.S:
        assert t > s.t - s.W


@pytest.mark.parametrize("W", [4, 5, 6])
def test_pair_outright_harvests_are_independent_coins(W):
    # Zero tolerance, on the real class: with no collisions a pair is
    # harvested only outright, and the pairs harvested over 2G + 1 pairs
    # (two group boundaries, the last group cut short) have the law of one
    # independent 1/W coin per pair.
    pairs = 2 * max(1, W // 2) + 1

    def run():
        s = PairL2Sampler(3, W, seed=1)
        s.process([1, 2] * pairs)
        return SampleResult.of(tuple(t // 2 + 1 for _, t in s.S))

    law = oracle.enumerate_law(run)
    q = Fraction(1, W)
    want = {}
    for r in range(pairs + 1):
        for harvested in itertools.combinations(range(1, pairs + 1), r):
            want[harvested] = q ** r * (1 - q) ** (pairs - r)
    assert law.mass_fail == law.mass_bottom == 0
    assert law.probs == want


def test_pair_ingest_draws_once_per_group():
    # The outright coins cost a few generator calls per group of W/2 pairs,
    # not one exact coin per pair: 10^4 collision-free pairs at W = 10^3
    # make at most one call per 50 pairs.
    class Counting:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def call(*args):
                self.calls += 1
                return method(*args)
            return call

    s = PairL2Sampler(3, 10 ** 3, seed=1)
    s.rng = counting = Counting(s.rng)
    s.process([1, 2] * 10 ** 4)
    assert s.t == 2 * 10 ** 4 and s._pending is None
    assert counting.calls <= 10 ** 4 // 50, counting.calls


def test_block_rejects_bad_p():
    with pytest.raises(ValueError):
        BlockLpSampler(3, 8, 2)
    with pytest.raises(ValueError):
        BlockLpSampler(3, 8, 2.5)


def test_block_all_one_coordinate():
    s = BlockLpSampler(3, 8, 3, seed=1)
    s.process([1] * 8)
    res = s.draw()
    assert res.outcome == "index" and res.index == 1


def test_block_conditional_law_symmetric():
    # Symmetric frequencies: the multi-tuple merge bias cancels and the
    # conditional law must be exactly 1/2 each.
    freqs = {1: 3, 2: 3}
    W, p = 6, 3
    hist = Counter()
    for t in range(5000):
        s = BlockLpSampler(2, W, p, seed=2 * t + 1)
        s.process(_shuffled(freqs, t))
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    n_idx = hist[1] + hist[2]
    assert abs(hist[1] / n_idx - 0.5) < 4 * math.sqrt(0.25 / n_idx)


def test_downsample_keeps_harvest_uniformity():
    # Drive _harvest directly past the cap: surviving entries must be a
    # uniform subsample, so a balanced input stays balanced.
    kept = Counter()
    fed = Counter()
    for t in range(2000):
        s = PairL2Sampler(4, 10, seed=t)
        s.t = 10 ** 9  # keep everything active
        feed = substream(t, "feed")
        for _ in range(3 * s.cap):
            s._harvest(feed.getrandbits(1), s.t)
        assert len(s.S) <= s.cap
        for c, _ in s.S:
            kept[c] += 1
    total = kept[0] + kept[1]
    assert abs(kept[0] / total - 0.5) < 4 * math.sqrt(0.25 / total)


def _convolve(law, coord, pmf):
    """law (a dict from sorted (coord, count) tuples to probabilities) with
    an independent count of pmf added to coord."""
    out = Counter()
    for vec, pr in law.items():
        for j, pj in enumerate(pmf):
            counts = dict(vec)
            counts[coord] = counts.get(coord, 0) + j
            out[tuple(sorted((c, v) for c, v in counts.items() if v))] += pr * pj
    return out


def _binomial_pmf(M, q):
    return [math.comb(M, j) * q ** j * (1 - q) ** (M - j) for j in range(M + 1)]


def _independent_binomials(block, alphas, B):
    """The product law of Bin(falling(g, q) falling(B - q, p - q), alpha_q)
    over the block's coordinates and q = 1..p, in Fractions."""
    p = len(alphas)
    law = {(): Fraction(1)}
    for coord, g in Counter(block).items():
        for q, alpha in enumerate(alphas, 1):
            law = _convolve(law, coord, _binomial_pmf(falling(g, q) * falling(B - q, p - q), alpha))
    return law


@pytest.mark.parametrize("W,block,q1,cap", [
    # the real alpha_1 = 1/81: the draws placed on the coordinates' tuples
    (9, [1, 2, 3], None, None),
    # q = 1 and q = 2, above the cap of 6 (lifted, so not downsampled)
    (5, [1, 1, 2], None, 10 ** 9),
    # Bin(T_1, 1/81) failures at alpha_1 = 80/81, and Bin(T_1, 1/3) at 2/3
    (9, [1, 2, 3], (Fraction(1, 81), True), None),
    (9, [1, 2, 3], (Fraction(1, 3), True), None),
], ids=["placed", "pair-above-cap", "failures", "failures-at-2/3"])
def test_block_harvest_counts_are_independent_binomials(W, block, q1, cap):
    # Zero tolerance, on the real class: one binomial over the block's T_q
    # tuples, its draws placed on a uniform subset of them, gives the joint
    # law of one Bin(w_i, alpha_q) per (coordinate, q); counting failures,
    # the form taken for alpha_q > 1/2, does too.  q1 = (prob, failures)
    # replaces q = 1's draw to reach both forms at T_1 = 6.
    def run():
        s = BlockLpSampler(3, W, 3, seed=1)
        if q1:
            s._tuples[0] = q1 + s._tuples[0][2:]
        s.cap = cap or s.cap
        s.process(block)
        return SampleResult.of(tuple(sorted((coord, v) for (_, coord), v in s.S.items())))

    law = oracle.enumerate_law(run)
    alphas = alpha_coeffs(3, W)
    if q1:
        alphas[0] = 1 - q1[0] if q1[1] else q1[0]
    want = _independent_binomials(block, alphas, math.ceil(math.sqrt(W)))
    assert law.mass_fail == law.mass_bottom == 0
    assert law.probs == {vec: pr for vec, pr in want.items() if pr}
    assert len(law.probs) > 1


def _hypergeometric_drop(held, drop):
    """The law of held (key -> count) after drop of its items leave, chosen
    uniformly without replacement: Pr[d] = prod C(h_i, d_i) / C(total, drop)."""
    keys, total = sorted(held), sum(held.values())
    out = Counter()
    for d in itertools.product(*(range(held[k] + 1) for k in keys)):
        if sum(d) == drop:
            left = tuple((k, held[k] - dk) for k, dk in zip(keys, d) if held[k] > dk)
            out[left] += Fraction(math.prod(math.comb(held[k], dk) for k, dk in zip(keys, d)),
                                  math.comb(total, drop))
    return out


def test_block_close_thins_the_harvest_to_the_cap():
    # Zero tolerance, on the real class: a block's Bin(6, 1/3) insertions
    # join 2 held items above a cap of 3, and B = 3 items at a time leave
    # until the harvest is within it -- the independent binomials, then a
    # multivariate hypergeometric drop of old and new items alike.  The
    # totals 4 to 8 reach both forms of the drop: picking the items that
    # leave (total 6) and picking the items that stay (totals 4, 5, 7, 8).
    held = {(-8, 7): 2}

    def run():
        s = BlockLpSampler(3, 9, 3, seed=1)
        s._tuples[0] = (Fraction(1, 3), False) + s._tuples[0][2:]
        s.S, s.cap = dict(held), 3
        s.process([1, 2, 3])
        return SampleResult.of(tuple(sorted(s.S.items())))

    law = oracle.enumerate_law(run)
    alphas = alpha_coeffs(3, 9)
    alphas[0] = Fraction(1, 3)
    want = Counter()
    for vec, pr in _independent_binomials([1, 2, 3], alphas, 3).items():
        harvest = dict(held)
        harvest.update({(1, coord): v for coord, v in vec})
        total = sum(harvest.values())
        drop = 3 * -(-(total - 3) // 3) if total > 3 else 0
        for left, pl in _hypergeometric_drop(harvest, drop).items():
            want[left] += pr * pl
    assert law.mass_fail == law.mass_bottom == 0
    assert law.probs == {vec: pr for vec, pr in want.items() if pr}


@pytest.mark.parametrize("p,values", [(4, 100), (5, 10000)])
def test_block_closes_at_a_window_of_a_million(p, values):
    # At W = 10^6 the block's tuple counts pass 2^63 (p = 5: B = 31623,
    # T_1 about 3e22) and p = 4's hundred values insert about 10^10 items
    # a block; the block still closes, with the harvest within its cap.
    s = BlockLpSampler(10 ** 4, 10 ** 6, p, seed=3)
    s.process([t % values + 1 for t in range(s.B)])
    assert s._block_len == 0 and s._block_start == s.B + 1
    assert 0 < sum(s.S.values()) <= s.cap
    assert all(start == 1 and 1 <= coord <= values for start, coord in s.S)
