import math
from collections import Counter

import pytest

from exactsamp.exactrand import substream
from exactsamp.smallp import PRECISION, DuplicatedExpState


def test_rejects_bad_p():
    with pytest.raises(ValueError):
        DuplicatedExpState(1)
    with pytest.raises(ValueError):
        DuplicatedExpState(0)
    with pytest.raises(ValueError):
        DuplicatedExpState(1.5)


def test_rejects_small_duplication():
    with pytest.raises(ValueError):
        DuplicatedExpState(0.5, D=8)


def test_empty_bottom():
    st = DuplicatedExpState(0.5, D=16, seed=0)
    assert st.draw().outcome == "bottom"


def test_weights_fixed_per_run():
    st = DuplicatedExpState(0.5, D=16, seed=3)
    w1 = list(st._dup_weights(7))
    w2 = list(st._dup_weights(7))
    assert w1 == w2
    assert any(w > 0 for w in w1)


@pytest.mark.parametrize("p", [0.001, 0.5, 0.999])
def test_weights_are_capped_ints_at_every_p(p):
    # At p = 0.001 a direct e ** (1/p) overflows for every e > 2.03; the log
    # space weights raise nothing and stay within [0, round(1e300)].
    st = DuplicatedExpState(p, D=16, seed=11)
    for coord in range(1, 201):
        w = st._dup_weights(coord)
        assert len(w) == 16
        assert all(type(x) is int and 0 <= x <= round(1e300) for x in w), (coord, w)


def test_weights_match_the_direct_formula_at_p_half():
    # round(P / e^2), capped at 1e300, on the same substream's exponentials,
    # wherever that float expression is finite.
    st = DuplicatedExpState(0.5, D=16, seed=11)
    compared = 0
    for coord in range(1, 201):
        rng = substream(11, "exp", coord)
        for got in st._dup_weights(coord):
            e = rng.expovariate(1.0)
            try:
                direct = PRECISION / e ** 2
            except (OverflowError, ZeroDivisionError):
                continue
            if math.isfinite(direct):
                assert got == round(min(direct, 1e300)), (coord, e, got)
                compared += 1
    assert compared > 3000, compared


def test_single_coordinate_always_reported():
    hits = 0
    for t in range(50):
        st = DuplicatedExpState(0.5, D=32, seed=t)
        st.process([4, 4, 4])
        res = st.draw()
        assert res.outcome in ("index", "fail")
        if res.outcome == "index":
            assert res.index == 4
            hits += 1
    # Success needs one duplicate key to dominate the other D-1, which
    # happens with constant (not certain) probability.
    assert hits >= 20


def test_two_coordinate_law_moderate():
    # f = (1, 1), p = 1/2: conditional on success the law is uniform.
    hist = Counter()
    fails = 0
    trials = 400
    for t in range(trials):
        st = DuplicatedExpState(0.5, D=64, seed=t)
        st.process([1, 2])
        res = st.draw()
        if res.outcome == "index":
            hist[res.index] += 1
        else:
            fails += 1
    n_idx = hist[1] + hist[2]
    assert n_idx > trials // 2  # constant success probability, not vanishing
    assert abs(hist[1] / n_idx - 0.5) < 4 * math.sqrt(0.25 / n_idx)


def test_skewed_law_prefers_heavy():
    # f = (4, 1), p = 1/2: target 2/3 vs 1/3; check the heavy side wins
    # within a loose band (the sampler is perfect, not truly perfect).
    hist = Counter()
    trials = 400
    for t in range(trials):
        st = DuplicatedExpState(0.5, D=64, seed=1000 + t)
        st.process([1, 1, 1, 1, 2])
        res = st.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    n_idx = hist[1] + hist[2]
    assert abs(hist[1] / n_idx - 2 / 3) < 0.1
