import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from statcheck import gof_test
from test_ingest import count_substream_calls

from exactsamp.core import Update
from exactsamp.multipass import (
    ReplayableStream,
    _narrow,
    chunk_count,
    multipass_l1_draw,
    multipass_lp_draw,
    narrow_z,
    passes_for,
)
from exactsamp.exactrand import substream
from exactsamp.heavyhitters import mg_budget
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
    # The L_p draw's chains and its Z narrowing share the same passes.
    draws = [lambda stream, gamma: multipass_l1_draw(stream, gamma, 4, seed=0),
             lambda stream, gamma: multipass_lp_draw(stream, gamma, 2, 4, seed=0)]
    for draw in draws:
        for gamma, expected in [(1, 1), (Fraction(1, 2), 2), (Fraction(1, 3), 3)]:
            stream = ReplayableStream(ups({1: 1, 2: 2, 3: 3, 4: 4}))
            draw(stream, gamma)
            assert stream.passes == expected


def test_l1_draw_reports_frequency():
    # n=4, gamma=1/2: first pass splits {1,2} vs {3,4} with sums 3 and 7.
    freqs = {1: 1, 2: 2, 3: 3, 4: 4}
    stream = ReplayableStream(ups(freqs))
    res, f = multipass_l1_draw(stream, Fraction(1, 2), 4, seed=3)
    assert res.outcome == "index"
    assert f == freqs[res.index]


def closed_z(freqs, n, p):
    """The narrowing reaches every coordinate of mass >= m/k, so
    Z = max(m/k, max f) with k = mg_budget(p, n)."""
    m = sum(freqs.values())
    return max(Fraction(m, mg_budget(p, n)), max(freqs.values(), default=0))


def test_l1_empirical_law():
    freqs = {1: 1, 2: 2, 3: 3, 4: 4}
    m = sum(freqs.values())
    law = oracle.enumerate_law(
        lambda: multipass_l1_draw(ReplayableStream(ups(freqs)), Fraction(1, 2), 4)[0])
    assert law.probs == {i: Fraction(f, m) for i, f in freqs.items()}
    hist = Counter()
    for t in range(4000):
        stream = ReplayableStream(ups(freqs))
        res, _ = multipass_l1_draw(stream, Fraction(1, 2), 4, seed=t)
        hist[res.index] += 1
    rep = gof_test(dict(hist), {i: f / m for i, f in freqs.items()})
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


def fuzzed_turnstile(rng, n, m):
    """A strict turnstile stream over [1, n] with deletions, and its net
    frequencies."""
    freqs, out = Counter(), []
    for _ in range(m):
        live = sorted(i for i in freqs if freqs[i])
        if live and rng.random() < 0.35:
            c, d = rng.choice(live), -1
        else:
            c, d = rng.randrange(n) + 1, 1
        out.append(Update(c, delta=d))
        freqs[c] += d
    return out, freqs


def test_narrow_z_bounds():
    # max f <= Z <= max f + m / ceil(n^{1 - 1/p}).
    for freqs, n in [({1: 5, 2: 1, 3: 1, 4: 1}, 4),
                     ({2: 3, 5: 3, 7: 2}, 8),
                     ({1: 1}, 4)]:
        m = sum(freqs.values())
        fmax = max(freqs.values())
        for p in (Fraction(3, 2), 2):
            k = mg_budget(p, n)
            z = narrow_z(ReplayableStream(ups(freqs)), Fraction(1, 2), p, n)
            assert fmax <= z <= fmax + Fraction(m, k)
            assert z == closed_z(freqs, n, p)
    # Fuzzed strict turnstile streams with deletions: the chains and the Z
    # narrowing share their passes, every chain ends on a coordinate with its
    # net frequency, and Z is the one narrow_z and the closed form give.
    rng = random.Random(5)
    for case in range(200):
        n = rng.choice([1, 2, 5, 8, 9, 30, 100])
        stream, freqs = fuzzed_turnstile(rng, n, rng.randrange(60))
        gamma = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1][case % 4]
        p = [Fraction(3, 2), 2][case % 2]
        k = mg_budget(p, n)
        R = rng.randrange(1, 8)
        chains, m, z = _narrow(ReplayableStream(stream), gamma, n, R, substream(case, "chains"), k)
        assert m == sum(freqs.values())
        assert len(chains) == (R if m else 0)
        assert all(f == freqs[i] > 0 for i, f in chains)
        assert z == narrow_z(ReplayableStream(stream), gamma, p, n)
        assert z == closed_z(freqs, n, p)
        fmax = max(freqs.values(), default=0)
        assert fmax <= z <= fmax + Fraction(m, k)


def test_rejects_coordinate_outside_universe():
    stream = [Update(5), Update(5)]
    with pytest.raises(ValueError, match="outside"):
        multipass_l1_draw(ReplayableStream(stream), Fraction(1, 2), 4, seed=0)
    with pytest.raises(ValueError, match="outside"):
        multipass_lp_draw(ReplayableStream(stream), Fraction(1, 2), 2, 4, seed=0)


def test_rejects_negative_net_frequency():
    # f = (1, -1) sums to 0: without the check the draws report BOTTOM
    # although f_1 = 1.
    stream = [Update(1), Update(2, delta=-1)]
    with pytest.raises(ValueError, match="strict turnstile"):
        multipass_l1_draw(ReplayableStream(stream), Fraction(1, 2), 2, seed=0)
    with pytest.raises(ValueError, match="strict turnstile"):
        multipass_lp_draw(ReplayableStream(stream), Fraction(1, 2), 2, 2, seed=0)


def test_negative_frequency_detection_is_partial():
    # f = (2, -1, 1, 1), n = 4, gamma = 1/2: the first pass sees chunk sums
    # (1, 2), both non-negative.  A chain that enters (1, 2) finds the -1 and
    # raises; one that enters (3, 4) returns 3 or 4.  The check sees only the
    # chunks a pass scans, so which happens depends on the seed.
    stream = [Update(1), Update(1), Update(2, delta=-1), Update(3), Update(4)]
    outcomes = Counter()
    for seed in range(60):
        try:
            res, _ = multipass_l1_draw(ReplayableStream(stream), Fraction(1, 2), 4, seed=seed)
            outcomes[res.index] += 1
        except ValueError as e:
            assert "strict turnstile" in str(e)
            outcomes["raised"] += 1
    assert set(outcomes) == {"raised", 3, 4}


def test_chunks_reach_single_coordinates_despite_float_rounding():
    # n = 20000^3 + 1, gamma = 1/3: float ceil(n^gamma) is 20000 and
    # 20000^3 < n, which would leave every chain on a cell of two coordinates
    # after three passes.
    n, gamma = 20000 ** 3 + 1, Fraction(1, 3)
    assert chunk_count(n, gamma) ** passes_for(gamma) >= n
    res, f = multipass_l1_draw(ReplayableStream([Update(2)]), gamma, n, seed=0)
    assert (res.index, f) == (2, 1)
    stream = [Update(2), Update(2), Update(n)]
    z = narrow_z(ReplayableStream(stream), gamma, 2, n)
    assert z == 2 == closed_z({2: 2, n: 1}, n, 2)
    chains, m, _ = _narrow(ReplayableStream(stream), gamma, n, 8, substream(0, "chains"))
    assert m == 3 and all(f == {2: 2, n: 1}[i] for i, f in chains)


def test_lp_rejects_bad_p():
    with pytest.raises(ValueError):
        multipass_lp_draw(ReplayableStream(ups({1: 1})), Fraction(1, 2), 1, 2)
    with pytest.raises(ValueError):
        multipass_lp_draw(ReplayableStream(ups({1: 1})), Fraction(1, 2), Fraction(5, 2), 2)


def test_lp_empty_bottom():
    res = multipass_lp_draw(ReplayableStream([]), Fraction(1, 2), 2, 4, seed=0)
    assert res.outcome == "bottom"


def test_lp_draw_seeds_as_many_generators_at_any_R(monkeypatch):
    # The chains share one generator: one draw makes as many substream calls
    # at R = 64 as at R = 1.
    calls = count_substream_calls(monkeypatch)
    counts = []
    for R in (1, 64):
        calls.clear()
        multipass_lp_draw(ReplayableStream(ups({1: 3, 2: 1, 5: 2, 7: 4})), Fraction(1, 2), 2, 8,
                          seed=3, repetitions=R)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0, counts


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
    rep = gof_test(dict(hist), {1: 0.8, 2: 0.2})
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
    rep = gof_test(dict(hist), {i: v / tot for i, v in fp.items()})
    assert rep.pvalue > 1e-4

def test_lp_oracle_law_p2():
    freqs = {1: 2, 2: 1}
    law = oracle.enumerate_law(lambda: multipass_lp_draw(
        ReplayableStream(ups(freqs)), Fraction(1, 2), 2, 4, repetitions=1))
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


def test_lp_passes_flat_in_repetitions():
    # One scan per pass serves every chain: R = 1024 chains cost within 4x of
    # R = 16 on 10^5 updates (best of 3; testing every update against every
    # chain reads ~10x).
    rng = random.Random(11)
    stream = ReplayableStream([Update(rng.randrange(1000) + 1) for _ in range(10 ** 5)])

    def best(R):
        times = []
        for seed in range(3):
            t0 = time.perf_counter()
            multipass_lp_draw(stream, Fraction(1, 2), 2, 1000, seed=seed, repetitions=R)
            times.append(time.perf_counter() - t0)
        return min(times)

    t16, t1024 = best(16), best(1024)
    assert t1024 <= 4 * t16, (t16, t1024)
