import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from statcheck import gof_test

from exactsamp import gsampler, multipass
from exactsamp.core import (
    HuberMeasure, MeasureFunction, Update, huber_measure, l1l2_measure, lp_measure,
    tukey_measure,
)
from exactsamp.f0sampler import F0Sampler, TukeySampler
from exactsamp.gsampler import (
    GSampler, accept_and_pick, accept_increment, lp_sampler, lp_zeta, repetitions_for,
)
from exactsamp.heavyhitters import mg_budget
from exactsamp.matrixsampler import L2RowMeasure, MatrixSampler
from exactsamp.sliding import CheckpointedSampler, SlidingLpSampler
from exactsamp import oracle


def draw_histogram(make_sampler, coords, trials):
    hist = Counter()
    outcomes = Counter()
    for t in range(trials):
        s = make_sampler(seed=1000 + t)
        s.process(coords)
        res = s.draw()
        outcomes[res.outcome] += 1
        if res.outcome == "index":
            hist[res.index] += 1
    return hist, outcomes


def test_empty_stream_bottom():
    s = GSampler(lp_measure(1), n=4, m=0)
    assert s.draw().outcome == "bottom"


def test_single_support():
    s = lp_sampler(Fraction(1, 2), n=8, m=5, seed=3)
    s.process([7] * 5)
    res = s.draw()
    assert res.outcome == "index" and res.index == 7


def test_same_seed_reproducible():
    def run():
        s = lp_sampler(Fraction(1, 2), n=4, m=6, seed=11)
        s.process([1, 2, 2, 3, 3, 3])
        return s.draw()
    assert run() == run()


def test_p1_is_reservoir():
    s = lp_sampler(1, n=4, m=3)
    assert s.R == 1
    hist, outcomes = draw_histogram(
        lambda seed: lp_sampler(1, n=4, m=3, seed=seed), [1, 2, 2], 4000)
    assert outcomes["fail"] == 0
    # conditional Pr[2] = 2/3
    frac = hist[2] / (hist[1] + hist[2])
    assert abs(frac - 2 / 3) < 4 * math.sqrt((2 / 9) / 4000)


def test_rejects_p_out_of_range():
    with pytest.raises(ValueError):
        lp_sampler(Fraction(5, 2), n=4, m=4)
    with pytest.raises(ValueError):
        lp_sampler(0, n=4, m=4)


def test_float_exponent_read_as_its_decimal():
    # Fraction(1.1) has a 2^51 denominator, and n raised to it never returned.
    p = Fraction(11, 10)
    assert lp_sampler(1.1, 10, 10, repetitions=3).p == p
    assert GSampler(lp_measure(1.1), 10, 10, repetitions=3).p == p
    assert lp_measure(1.1).p == p
    assert SlidingLpSampler(1.1, W=5, n=10, repetitions=3).p == p
    assert mg_budget(1.1, 10 ** 6) == mg_budget(p, 10 ** 6) == 4


def test_repetitions_for_monotone():
    assert repetitions_for(1, 0.1) <= repetitions_for(10, 0.1)
    assert repetitions_for(1, 0.1) <= repetitions_for(1, 0.01)


@pytest.mark.parametrize("delta", [0, 1, 5, -1, float("nan")])
def test_repetitions_for_needs_delta_in_unit_interval(delta):
    # delta = 0 divided by zero, delta >= 1 sized R = 1 silently, and a
    # negative delta failed in math.log.
    with pytest.raises(ValueError, match="delta must be in"):
        repetitions_for(1, delta)
    with pytest.raises(ValueError, match="delta must be in"):
        F0Sampler(10, delta)


def test_default_repetitions_pinned(monkeypatch):
    # multipass_lp_draw, TukeySampler and F0Sampler size R with
    # repetitions_for, ceil(4 ratio ln(1/delta)) at ratio n^{1-1/p},
    # G(tau)/G(1) and 1/2: the default R on a small grid, so a change to any
    # sizing shows.
    chains = []

    def narrow(stream, gamma, n, R=0, rng=None, k=None):
        chains.append(R)
        return [], 0, None

    monkeypatch.setattr(multipass, "_narrow", narrow)
    got = {}
    for n in (4, 100, 10 ** 4):
        for p in (Fraction(5, 4), Fraction(3, 2), Fraction(2)):
            multipass.multipass_lp_draw(None, Fraction(1, 2), p, n, 0.1)
            multipass.multipass_lp_draw(None, Fraction(1, 2), p, n, 0.01)
            got[n, p] = tuple(chains[-2:])
    assert got == {
        (4, Fraction(5, 4)): (13, 25), (4, Fraction(3, 2)): (15, 30), (4, 2): (19, 37),
        (100, Fraction(5, 4)): (24, 47), (100, Fraction(3, 2)): (43, 86), (100, 2): (93, 185),
        (10 ** 4, Fraction(5, 4)): (59, 117), (10 ** 4, Fraction(3, 2)): (199, 397),
        (10 ** 4, 2): (922, 1843)}
    tukey = {(tau, delta): TukeySampler(tukey_measure(tau), 10, delta).R
             for tau in (1, 2, Fraction(5, 2), 7) for delta in (0.1, 0.01)}
    assert tukey == {(1, 0.1): 10, (1, 0.01): 19, (2, 0.1): 16, (2, 0.01): 32,
                     (Fraction(5, 2), 0.1): 23, (Fraction(5, 2), 0.01): 46,
                     (7, 0.1): 154, (7, 0.01): 308}
    f0 = {delta: F0Sampler(10, delta).R for delta in (0.5, 0.1, 0.05, 1e-3, 1e-9)}
    assert f0 == {0.5: 2, 0.1: 5, 0.05: 6, 1e-3: 14, 1e-9: 42}


@pytest.mark.parametrize("measure,p", [
    (lp_measure(Fraction(1, 2)), None),
    (lp_measure(2), Fraction(2)),
    (huber_measure(2), None),
    (l1l2_measure(), None),
])
def test_conditional_law_matches_target(measure, p):
    """Differential test: empirical conditional law of the real sampler vs
    the exact target, on a small fixed stream."""
    coords = [1, 1, 1, 2, 2, 3]
    freqs = {1: 3, 2: 2, 3: 1}
    trials = 3000

    def make(seed):
        return lp_sampler(p, 3, len(coords), seed=seed) if p is not None else \
            GSampler(measure, 3, len(coords), seed=seed)

    hist, outcomes = draw_histogram(make, coords, trials)
    # G(f) from its bracket at 2^-40: lo and hi differ in the last bits only.
    target = {i: measure.g_bounds(f, 40)[0] for i, f in freqs.items()}
    total = sum(target.values())
    target = {i: v / total for i, v in target.items()}
    rep = gof_test(dict(hist), target)
    assert rep.pvalue > 1e-4, (measure.name, rep)


def test_fail_rate_within_delta():
    coords = [1, 2, 3, 4] * 3
    trials = 800
    delta = 0.1
    fails = 0
    for t in range(trials):
        s = GSampler(lp_measure(Fraction(1, 2)), n=4, m=len(coords),
                     delta=delta, seed=t)
        s.process(coords)
        fails += s.draw().outcome == "fail"
    # Allow 4 sigma above delta.
    assert fails <= trials * delta + 4 * math.sqrt(trials * delta)


def test_z_derived_zeta_attached():
    s = lp_sampler(2, n=16, m=20, seed=0)
    assert s.mg is not None
    s.process([1] * 10 + [2] * 10)
    zeta = s._draw_zeta()
    assert zeta.__class__ is tuple and Fraction(*zeta) >= 2 * 10  # 2 Z with Z >= max f


def test_z_derived_gsampler_builds_its_own_summary():
    # Built directly, without lp_sampler: the Misra-Gries summary behind the
    # Z-derived zeta must exist, or the draw fails on a missing summary.
    p = Fraction(3, 2)
    s = GSampler(lp_measure(p), 50, 100)
    assert s.mg is not None and s.mg.k == mg_budget(p, 50)
    s.process([1, 2, 2, 3, 3, 3] * 10)
    assert s.draw().outcome in ("index", "fail")
    assert s.mg.m_seen == 60


def test_z_derived_gsampler_without_p_is_rejected():
    # Only L_p derives zeta from Misra-Gries; a measure with no static zeta
    # and no exponent p has no increment bound.
    class Unbounded(MeasureFunction):
        name = "unbounded"

    with pytest.raises(ValueError, match="no static zeta"):
        GSampler(Unbounded(), 50, 100)


# Per-unit laws over (sample, accepted); sample None is a unit without a
# sample, which draw sites leave out of the candidates.
UNIT_LAWS = [
    {(1, True): Fraction(1, 3), (2, True): Fraction(1, 6),
     (1, False): Fraction(1, 4), (2, False): Fraction(1, 4)},
    {(None, False): Fraction(1, 5), (1, True): Fraction(1, 5),
     (2, False): Fraction(2, 5), (3, True): Fraction(1, 5)},
    {(1, True): Fraction(1, 2), (2, True): Fraction(1, 2)},
    {(1, False): Fraction(2, 3), (None, False): Fraction(1, 3)},
]


def first_accepted(candidates, accept):
    """The result of the first of candidates, (result, *args) tuples in
    index order, whose test accept(*args) passes, or None: accept_and_pick
    over candidates built in advance."""
    candidates = list(candidates)
    hit = accept_and_pick(len(candidates), lambda i: candidates[i][1:], lambda a: accept(*a))
    return None if hit is None else candidates[hit[0]][0]


def test_first_accepted_law_equals_uniform_pick_exactly():
    # R i.i.d. units, every joint outcome scripted: the first accepting unit
    # has exactly the law of a uniform pick among all accepting units,
    # FAIL mass included, and no unit after it is tested.
    for law, R in itertools.product(UNIT_LAWS, (1, 2, 3)):
        first, uniform = Counter(), Counter()
        for joint in itertools.product(law.items(), repeat=R):
            prob = math.prod(pr for _, pr in joint)
            units = [unit for unit, _ in joint]
            tested = []

            def accept(i, ok):
                tested.append(i)
                return ok

            live = ((s, i, ok) for i, (s, ok) in enumerate(units) if s is not None)
            out = first_accepted(live, accept)
            first[out] += prob
            accepted = [s for s, ok in units if s is not None and ok]
            for s in accepted:
                uniform[s] += prob / len(accepted)
            if not accepted:
                uniform[None] += prob
            stop = next((i for i, (s, ok) in enumerate(units) if s is not None and ok), R)
            assert tested == [i for i, (s, _) in enumerate(units[:stop + 1]) if s is not None]
        assert first == uniform, (law, R)
        s_acc = sum(pr for (s, ok), pr in law.items() if s is not None and ok)
        assert first[None] == (1 - s_acc) ** R


def test_draw_stops_at_first_accepted_repetition(monkeypatch):
    # L_1 with zeta = 1 accepts every repetition, so a draw tests one.
    calls = Counter()
    real = gsampler.accept_increment

    def counting(*args):
        calls["n"] += 1
        return real(*args)

    monkeypatch.setattr(gsampler, "accept_increment", counting)
    s = GSampler(lp_measure(1), n=10, m=50, repetitions=1000, seed=4)
    for k in range(5):
        s.process([k % 10 + 1, (3 * k) % 10 + 1] * 5)
        calls.clear()
        res = s.draw()
        assert res.outcome == "index" and res.repetition == 0
        assert calls["n"] == 1


def test_draw_time_flat_in_repetitions():
    # Every coordinate occurs twice, so a repetition accepts with
    # probability F_{1/2}/m = sqrt(2)/2; draws should not scale with R.
    coords = [i // 2 + 1 for i in range(2000)]

    def best_draw_time(R):
        s = lp_sampler(Fraction(1, 2), n=1000, m=len(coords), seed=9, repetitions=R)
        s.process(coords)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(20):
                s.draw()
            best = min(best, time.perf_counter() - t0)
        return best

    t64 = best_draw_time(64)
    t4096 = best_draw_time(4096)
    print("draw time: R=64 %.2e s, R=4096 %.2e s (ratio %.2f)" % (t64, t4096, t4096 / t64))
    assert t4096 <= 3.0 * t64, (t64, t4096)


def test_zeta_below_an_increment_is_rejected():
    # Huber(1) with zeta = 1/4 would accept its c = 0 increment G(1) = 1/2
    # with "probability" 2, and sample {2/3, 1/3} on [1, 1, 2] against the
    # target {3/4, 1/4}: the draw raises instead.
    class LowZetaHuber(HuberMeasure):
        def __init__(self):
            super().__init__(1)
            self.zeta = Fraction(1, 4)

    make = lambda: GSampler(LowZetaHuber(), 2, 3, repetitions=1)
    with pytest.raises(ValueError, match="below the increment"):
        oracle.sampler_law(make, [1, 1, 2])
    s = make()
    s.process([1, 1, 2])
    with pytest.raises(ValueError, match="below the increment"):
        s.draw()  # every increment on this stream, 1/2 or 1, is above zeta
    # Huber(1) at its own zeta = 1 is exact on the same stream.
    law = oracle.sampler_law(lambda: GSampler(huber_measure(1), 2, 3, repetitions=1), [1, 1, 2])
    assert law.conditional() == {1: Fraction(3, 4), 2: Fraction(1, 4)}


def test_bracket_above_one_is_rejected():
    # (8^{3/2} - 7^{3/2}) / (3/2 sqrt(7/3)) is about 1.79: the irrational test
    # raises on the first bracket, whose lower end is above 2^k.
    meas = lp_measure(Fraction(3, 2))
    zeta = lp_zeta((7, 3), Fraction(3, 2))
    with pytest.raises(ValueError, match="above 1"):
        accept_increment(meas, 7, zeta, random.Random(0))
    # c = 1: (2^{3/2} - 1) / (3/2 sqrt(7/3)) is about 0.80, a fair test.
    rng = random.Random(0)
    assert {accept_increment(meas, 1, zeta, rng) for _ in range(64)} == {True, False}


def test_irrational_zeta_accept_within_3x_of_rational():
    # zeta = 2 sqrt(F_2), F_2 = 10^6 + 3, runs on scaled-integer brackets
    # (lp_zeta's p Z^{p-1} at p = 3/2 and Z = 16 F_2 / 9); zeta = 2Z with
    # Z = 1000 is rational.  Same increments 2c + 1 < zeta.
    meas = lp_measure(2)
    irrational = lp_zeta((16 * (10 ** 6 + 3), 9), Fraction(3, 2))
    rational = lp_zeta((1000, 1), Fraction(2))
    assert callable(irrational) and rational.__class__ is tuple
    rng = random.Random(3)

    def per_call(zeta):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for c in range(1000):
                accept_increment(meas, c, zeta, rng)
            best = min(best, time.perf_counter() - t0)
        return best / 1000

    t_irr, t_rat = per_call(irrational), per_call(rational)
    print("accept: irrational %.2e s, rational %.2e s (ratio %.2f)" % (t_irr, t_rat, t_irr / t_rat))
    assert t_irr <= 3.0 * t_rat, (t_irr, t_rat)


def _fed(sampler, coords):
    sampler.process(coords)
    return sampler


def _fed_matrix(coords):
    s = MatrixSampler(L2RowMeasure(), n=5, d=2, m=len(coords), seed=2, repetitions=16)
    for i, row in enumerate(coords):
        s.update(row, i % 2 + 1)
    return s


REPEATED_DRAW_SAMPLERS = {
    "gsampler": lambda c: _fed(lp_sampler(2, n=5, m=len(c), seed=2, repetitions=16), c),
    "matrix": _fed_matrix,
    "checkpointed": lambda c: _fed(CheckpointedSampler(lp_measure(Fraction(1, 2)), W=20, seed=2,
                                                       repetitions=16), c),
    "sliding_lp": lambda c: _fed(SlidingLpSampler(2, W=20, seed=2, repetitions=16), c),
    "f0": lambda c: _fed(F0Sampler(n=50, seed=2, repetitions=4), c),
}


@pytest.mark.parametrize("name", sorted(REPEATED_DRAW_SAMPLERS))
def test_repeated_draws_on_unchanged_state_differ(name):
    # Every coordinate (row) occurs four times, so the live repetitions hold
    # different samples and those sampled before a last occurrence accept
    # with probability below 1 (the insertion-only L2 sampler's zeta = 2Z =
    # 40/3 exceeds every increment 2c + 1 <= 7, so even a last occurrence
    # does).  Each draw takes its own substream, so 200 draws on the same
    # state do not all return one answer.
    s = REPEATED_DRAW_SAMPLERS[name]([1, 2, 3, 4, 5] * 4)
    outcomes = {s.draw() for _ in range(200)}
    assert len(outcomes) >= 2, outcomes
