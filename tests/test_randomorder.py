import math
from collections import Counter
from fractions import Fraction

import pytest

from exactsamp.exactrand import substream
from exactsamp.randomorder import (
    BlockLpSampler,
    PairL2Sampler,
    alpha_coeffs,
    check_cap_config,
    falling,
    stirling2,
)
from exactsamp import montecarlo, oracle


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
    # Per-tuple harvest mass: sum over q with constant prefixes gives f^p/W^p
    # when applied over random orders (checked via the oracle law).
    for W, p in [(4, 3), (6, 3), (5, 4)]:
        freqs = {1: W - 1, 2: 1}
        law = oracle.block_lp_law(freqs, W, p)
        for i, f in freqs.items():
            assert law.probs[i] == Fraction(f ** p, W ** p)


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


def merged_pair_law(freqs, W):
    """Exact conditional law of the full pair sampler (uniform merge over all
    harvested pairs).  The merge conditions on the whole harvest set, which
    skews the per-pair f^2/W^2 law by O(1/W); this enumeration reproduces the
    implementation's actual law."""
    import itertools

    pool = []
    for i in sorted(freqs):
        pool.extend([i] * freqs[i])
    arrs = set(itertools.permutations(pool))
    weight = Fraction(1, len(arrs))
    law = Counter()
    inv_w = Fraction(1, W)
    for arr in arrs:
        pairs = [(arr[k], arr[k + 1]) for k in range(0, W - 1, 2)]
        qs = [Fraction(1) if x == y else inv_w for x, y in pairs]
        for mask in range(1, 1 << len(pairs)):
            prob = Fraction(1)
            picked = []
            for j, q in enumerate(qs):
                if mask >> j & 1:
                    prob *= q
                    picked.append(pairs[j][0])
                else:
                    prob *= 1 - q
            for x in picked:
                law[x] += weight * prob / len(picked)
    total = sum(law.values())
    return {i: v / total for i, v in law.items()}


def test_merged_pair_law_is_biased():
    # W=4, f=(2,1,1): the merged conditional is 7/10 on the heavy coordinate,
    # not f^2/F2 = 4/6; only the designated single pair obeys f^2/W^2.
    law = merged_pair_law({1: 2, 2: 1, 3: 1}, 4)
    assert law[1] == Fraction(7, 10)
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
    target = {i: float(v) for i, v in merged_pair_law(freqs, W).items()}
    rep = oracle.gof_test(dict(hist), target)
    assert rep.pvalue > 1e-4, rep


def test_pair_mc_twin_matches_oracle():
    freqs = {1: 2, 2: 1, 3: 1}
    law = oracle.pair_l2_law(freqs, 4)
    hist, _ = montecarlo.mc_pair_l2(freqs, 4, 200000, seed=5)
    rep = oracle.gof_test(hist, {k: float(v) for k, v in law.conditional().items()})
    assert rep.pvalue > 1e-4


def test_pair_expiry():
    s = PairL2Sampler(3, W=4, seed=0)
    s.process([1, 1, 1, 1, 2, 2, 2, 2])
    s.expire()
    for c, t in s.S:
        assert t > s.t - s.W


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


def test_block_mc_twin_matches_oracle():
    freqs = {1: 3, 2: 2, 3: 1}
    law = oracle.block_lp_law(freqs, 6, 3)
    hist, _ = montecarlo.mc_block_lp(freqs, 6, 3, 200000, seed=6)
    rep = oracle.gof_test(hist, {k: float(v) for k, v in law.conditional().items()})
    assert rep.pvalue > 1e-4


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


def _close_block_by_falling(s):
    """BlockLpSampler._close_block as first written: falling() per
    coordinate and q, and alpha_q converted to float at each binomial."""
    B, p = s.B, s.p
    start = s._block_start
    for coord, g in s._block.items():
        total = 0
        for q in range(1, p + 1):
            trials = falling(g, q) * falling(B - q, p - q)
            if trials <= 0:
                continue
            total += int(s.np_rng.binomial(trials, float(s.alphas[q - 1])))
        if total:
            s.S[(start, coord)] = s.S.get((start, coord), 0) + total
    s._block = {}
    s._block_len = 0
    s._block_start = s.t + 1
    s._downsample()


@pytest.mark.parametrize("n,W,p", [(100, 10 ** 4, 3), (100, 10 ** 4, 4), (5, 12, 3), (3, 8, 5)])
def test_close_block_draws_the_binomials_of_the_falling_loop(monkeypatch, n, W, p):
    # The same np_rng.binomial calls, in the same order with the same
    # arguments, so the harvest S and the generator state are identical.
    rng = substream(n * W * p, "close-block")
    coords = [rng.randrange(n) + 1 for _ in range(2 * W)]
    s = BlockLpSampler(n, W, p, seed=3)
    ref = BlockLpSampler(n, W, p, seed=3)
    monkeypatch.setattr(ref, "_close_block", lambda: _close_block_by_falling(ref))
    for k in range(0, len(coords), 997):
        s.process(coords[k:k + 997])
        ref.process(coords[k:k + 997])
        assert s.S == ref.S
    assert s.S
    assert s.np_rng.integers(1 << 62) == ref.np_rng.integers(1 << 62)
