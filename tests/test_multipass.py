import math
from collections import Counter
from fractions import Fraction

import pytest

from exactsamp.core import Update
from exactsamp.multipass import (
    ReplayableStream,
    chunk_count,
    multipass_l1_draw,
    multipass_lp_draw,
    narrow_z,
    passes_for,
)
from exactsamp import oracle


def ups(freqs):
    out = []
    for i in sorted(freqs):
        out.extend(Update(i) for _ in range(freqs[i]))
    return out


def test_passes_for():
    assert passes_for(1) == 1
    assert passes_for(Fraction(1, 2)) == 2
    assert passes_for(Fraction(1, 3)) == 3
    assert passes_for(0.5) == 2


def test_chunk_count():
    assert chunk_count(4, 0.5) == 2
    assert chunk_count(9, Fraction(1, 2)) == 3
    assert chunk_count(5, 1) == 5


def test_exact_pass_count_l1():
    for gamma, expected in [(1, 1), (Fraction(1, 2), 2), (Fraction(1, 3), 3)]:
        stream = ReplayableStream(ups({1: 1, 2: 2, 3: 3, 4: 4}))
        multipass_l1_draw(stream, gamma, 4, seed=0)
        assert stream.passes == expected


def test_l1_draw_reports_frequency():
    # n=4, gamma=1/2: first pass splits {1,2} vs {3,4} with sums 3 and 7.
    freqs = {1: 1, 2: 2, 3: 3, 4: 4}
    stream = ReplayableStream(ups(freqs))
    res, f = multipass_l1_draw(stream, Fraction(1, 2), 4, seed=3)
    assert res.outcome == "index"
    assert f == freqs[res.index]


def test_l1_empirical_law():
    freqs = {1: 1, 2: 2, 3: 3, 4: 4}
    m = sum(freqs.values())
    law = oracle.multipass_law(freqs, 4, Fraction(1, 2), p=1)
    assert law.probs == {i: Fraction(f, m) for i, f in freqs.items()}
    hist = Counter()
    for t in range(4000):
        stream = ReplayableStream(ups(freqs))
        res, _ = multipass_l1_draw(stream, Fraction(1, 2), 4, seed=t)
        hist[res.index] += 1
    rep = oracle.gof_test(dict(hist), {i: f / m for i, f in freqs.items()})
    assert rep.pvalue > 1e-4


def test_turnstile_cancellation():
    # Strict turnstile: deletions cancel, survivors drive the law.
    updates = [Update(1), Update(1), Update(2), Update(1, delta=-1), Update(1, delta=-1)]
    hist = Counter()
    for t in range(200):
        res, f = multipass_l1_draw(ReplayableStream(updates), Fraction(1, 2), 2, seed=t)
        hist[res.index] += 1
        assert f == 1
    assert set(hist) == {2}


def test_zero_mass_bottom():
    updates = [Update(1), Update(1, delta=-1)]
    res, _ = multipass_l1_draw(ReplayableStream(updates), Fraction(1, 2), 2, seed=0)
    assert res.outcome == "bottom"


def test_narrow_z_bounds():
    # max f <= Z <= max f + m / ceil(n^{1 - 1/p}).
    for freqs, n in [({1: 5, 2: 1, 3: 1, 4: 1}, 4),
                     ({2: 3, 5: 3, 7: 2}, 8),
                     ({1: 1}, 4)]:
        m = sum(freqs.values())
        fmax = max(freqs.values())
        for p in (Fraction(3, 2), 2):
            k = max(1, math.ceil(n ** (1.0 - 1.0 / float(p)) - 1e-9))
            z = narrow_z(ReplayableStream(ups(freqs)), Fraction(1, 2), p, n)
            assert fmax <= z <= fmax + Fraction(m, k)
            assert z == oracle.multipass_z(freqs, n, Fraction(1, 2), p)


def test_lp_rejects_bad_p():
    with pytest.raises(ValueError):
        multipass_lp_draw(ReplayableStream(ups({1: 1})), Fraction(1, 2), 1, 2)
    with pytest.raises(ValueError):
        multipass_lp_draw(ReplayableStream(ups({1: 1})), Fraction(1, 2), Fraction(5, 2), 2)


def test_lp_empty_bottom():
    res = multipass_lp_draw(ReplayableStream([]), Fraction(1, 2), 2, 4, seed=0)
    assert res.outcome == "bottom"


def test_lp_empirical_law_p2():
    # n=4 padded universe, f=(2,1) at coords 1,2: conditional (4/5, 1/5).
    freqs = {1: 2, 2: 1}
    hist = Counter()
    fails = 0
    for t in range(2500):
        res = multipass_lp_draw(ReplayableStream(ups(freqs)), Fraction(1, 2), 2, 4,
                                seed=t, repetitions=6)
        if res.outcome == "index":
            hist[res.index] += 1
        else:
            fails += 1
    rep = oracle.gof_test(dict(hist), {1: 0.8, 2: 0.2})
    assert rep.pvalue > 1e-4


def test_lp_law_fractional_p():
    # Chains are i.i.d., so returning the first accepted chain keeps the
    # single-chain conditional f^p / F_p (no multi-harvest bias here).
    freqs = {1: 3, 2: 1, 3: 1}
    p = Fraction(3, 2)
    fp = {i: f ** float(p) for i, f in freqs.items()}
    tot = sum(fp.values())
    hist = Counter()
    for t in range(2500):
        res = multipass_lp_draw(ReplayableStream(ups(freqs)), Fraction(1, 2), p, 4,
                                seed=t, repetitions=6)
        if res.outcome == "index":
            hist[res.index] += 1
    rep = oracle.gof_test(dict(hist), {i: v / tot for i, v in fp.items()})
    assert rep.pvalue > 1e-4

def test_lp_oracle_law_p2():
    freqs = {1: 2, 2: 1}
    law = oracle.multipass_law(freqs, 4, Fraction(1, 2), p=2)
    cond = law.conditional()
    assert cond == {1: Fraction(4, 5), 2: Fraction(1, 5)}


def test_replayable_stream_from_file(tmp_path):
    from exactsamp.core import StreamConfig, write_stream

    path = str(tmp_path / "s.jsonl")
    write_stream(path, StreamConfig(n=4, model="strict_turnstile"), ups({1: 2, 3: 1}))
    stream = ReplayableStream(path)
    res, f = multipass_l1_draw(stream, 1, 4, seed=1)
    assert stream.passes == 1
    assert res.index in (1, 3)
    assert f == {1: 2, 3: 1}[res.index]


def test_lp_fractional_p_rational_step_from_irrational():
    # f = 4, p = 3/2: c + 1 = 4 gives (c+1)^p = 8 while c = 3 gives an
    # irrational 3^{3/2}; that mix must go to the interval test, not crash.
    outcomes = Counter()
    for seed in range(40):
        res = multipass_lp_draw(ReplayableStream([Update(1)] * 4), Fraction(1, 2),
                                Fraction(3, 2), 4, 0.1, seed)
        outcomes[res.outcome] += 1
        assert res.outcome == "fail" or res.index == 1
    assert outcomes["index"] > 0
