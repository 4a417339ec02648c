import math
from collections import Counter
from fractions import Fraction

import pytest

from exactsamp.core import Update, huber_measure, l1l2_measure, lp_measure
from exactsamp.gsampler import GSampler, lp_sampler, repetitions_for
from exactsamp.heavyhitters import mg_budget
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


def test_repetitions_for_monotone():
    assert repetitions_for(1, 0.1) <= repetitions_for(10, 0.1)
    assert repetitions_for(1, 0.1) <= repetitions_for(1, 0.01)


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
    target = {i: measure.g_float(f) for i, f in freqs.items()}
    total = sum(target.values())
    target = {i: v / total for i, v in target.items()}
    rep = oracle.gof_test(dict(hist), target)
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
    z_exact, _ = s._zeta_at_draw()
    assert z_exact is not None and z_exact >= 2 * 10  # 2 Z with Z >= max f


def test_z_derived_gsampler_builds_its_own_summary():
    # Built directly, without lp_sampler: the Misra-Gries summary behind the
    # Z-derived zeta must exist, or the draw fails on a missing summary.
    p = Fraction(3, 2)
    s = GSampler(lp_measure(p), 50, 100, p=p)
    assert s.mg is not None and s.mg.k == mg_budget(p, 50)
    s.process([1, 2, 2, 3, 3, 3] * 10)
    assert s.draw().outcome in ("index", "fail")
    assert s.mg.m_seen == 60


def test_z_derived_gsampler_without_p_is_rejected():
    with pytest.raises(ValueError, match="pass p"):
        GSampler(lp_measure(Fraction(3, 2)), 50, 100)
