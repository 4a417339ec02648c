import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactsamp import exactrand, oracle
from exactsamp.core import SampleResult, Update, huber_measure, lp_measure, tukey_measure
from exactsamp.gsampler import GSampler
from exactsamp.matrixsampler import L1RowMeasure, MatrixSampler
from exactsamp.multipass import ReplayableStream, multipass_l1_draw, multipass_lp_draw
from exactsamp.randomorder import PairL2Sampler
from exactsamp.oracle import (
    BranchBudgetExceeded,
    UnforkedDraw,
    enumerate_law,
    gof_test,
    sampler_law,
    target_distribution,
)
from exactsamp.exactrand import np_substream
from exactsamp.sliding import CheckpointedSampler, SlidingLpSampler


def ups(coords):
    return [Update(c) for c in coords]


def gsampler_law(coords, measure, n=3):
    """Law of one draw of the real GSampler at R = 1."""
    return sampler_law(lambda: GSampler(measure, n, len(coords), repetitions=1), coords)


def test_frozen_gsampler_example():
    # The shipped zeta = 2Z: Misra-Gries with k = 2 counters gives
    # Z = max estimate + m/k = 2 + 3/2 = 7/2, so zeta = 7, and index i has
    # mass G(f_i)/(zeta m) = f_i^2/21.
    law = gsampler_law([1, 1, 2], lp_measure(2))
    assert law.probs == {1: Fraction(4, 21), 2: Fraction(1, 21)}
    assert law.mass_fail == Fraction(16, 21)
    assert law.conditional() == {1: Fraction(4, 5), 2: Fraction(1, 5)}


def test_empty_stream_bottom():
    law = gsampler_law([], lp_measure(1))
    assert law.mass_bottom == 1


def test_skip_forks_at_its_exact_law():
    # A unit holding position r: Pr[J > j] = r/j for every j up to the
    # stream's end, and the rest of the mass beyond it.
    for r, m in [(1, 1), (1, 5), (3, 7)]:
        law = enumerate_law(
            lambda: SampleResult.of(exactrand.skip(r, exactrand.substream(0))), m)
        for j in range(r, m + 1):
            assert sum(v for k, v in law.probs.items() if k > j) == Fraction(r, j)
        assert law.probs[m + 1] == Fraction(r, m)


def test_weighted_index_exact_through_the_randrange_fork():
    # The real weighted_index, called past its own fork, runs one randrange
    # over the total; the substream fork enumerates that draw exactly.
    weighted_index = exactrand.weighted_index
    weights = [3, 0, 1, 2]
    law = enumerate_law(lambda: SampleResult.of(weighted_index(weights, exactrand.substream(0))))
    assert law.probs == {0: Fraction(1, 2), 2: Fraction(1, 6), 3: Fraction(1, 3)}
    forked = enumerate_law(lambda: SampleResult.of(
        exactrand.weighted_index(weights, exactrand.substream(0))))
    assert forked.probs == law.probs


def test_primitives_fork_at_exact_laws():
    def run():
        rng = exactrand.substream(0, "x")
        coin = exactrand.bernoulli_fraction(Fraction(2, 7), rng)
        return SampleResult.of(2 * rng.randrange(3) + coin)

    before = dict(vars(exactrand))
    law = enumerate_law(run)
    assert vars(exactrand) == before  # every swapped name is back
    assert law.probs == {2 * k + 1: Fraction(2, 21) for k in range(3)} | \
        {2 * k: Fraction(5, 21) for k in range(3)}


@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(3, 4)])
def test_binomial_forks_at_its_pmf(q):
    for M in range(7):
        law = enumerate_law(
            lambda: SampleResult.of(exactrand.binomial(M, q, exactrand.substream(0))))
        assert law.probs == {j: math.comb(M, j) * q ** j * (1 - q) ** (M - j)
                             for j in range(M + 1)}, M


def test_uniform_subset_forks_uniformly():
    for N, K in [(5, 2), (4, 4), (3, 0)]:
        law = enumerate_law(lambda: SampleResult.of(
            tuple(sorted(exactrand.uniform_subset(N, K, exactrand.substream(0))))))
        assert law.probs == {s: Fraction(1, math.comb(N, K))
                             for s in itertools.combinations(range(N), K)}, (N, K)


def test_sample_forks_above_the_set_size_threshold():
    # range(30) is past random.sample's set-size threshold (21 for k = 2),
    # where it redraws a repeated pick; the fork samples by the pool method
    # at every size, so the enumeration ends on every ordered pair.
    law = enumerate_law(lambda: SampleResult.of(
        tuple(exactrand.substream(0).sample(range(30), 2))))
    assert law.probs == {pair: Fraction(1, 870) for pair in itertools.permutations(range(30), 2)}


def test_target_distribution_examples():
    t = target_distribution({1: 2, 2: 1}, lp_measure(2))
    assert t.probs == {1: Fraction(4, 5), 2: Fraction(1, 5)}
    t = target_distribution({1: 1, 2: 1, 3: 1}, huber_measure(2))
    assert all(v == Fraction(1, 3) for v in t.probs.values())
    t = target_distribution({1: 1, 2: 2}, tukey_measure(2))
    assert t.probs == {1: Fraction(37, 101), 2: Fraction(64, 101)}


def test_target_zero_freqs_dropped():
    t = target_distribution({1: 2, 2: 0}, lp_measure(1))
    assert set(t.probs) == {1}


def test_symbolic_coefficients_telescope():
    coords = [1, 2, 1, 1, 3, 2]
    freqs = {1: 3, 2: 2, 3: 1}
    coeffs = oracle.gsampler_coefficients(ups(coords))
    assert coeffs == {i: {f: Fraction(1)} for i, f in freqs.items()}


def test_mutant_coefficients_differ():
    coords = [1, 1, 2]
    good = oracle.gsampler_coefficients(ups(coords))
    bad = oracle.gsampler_coefficients(ups(coords), inclusive=True)
    assert good != bad
    # The mutant law telescopes to G(f_i + 1) - G(1) instead of G(f_i).
    assert bad[1] == {3: Fraction(1), 1: Fraction(-1)}


@given(st.lists(st.integers(1, 3), min_size=1, max_size=9))
@settings(max_examples=80)
def test_symbolic_telescoping_any_stream(coords):
    freqs = {}
    for c in coords:
        freqs[c] = freqs.get(c, 0) + 1
    assert oracle.gsampler_coefficients(ups(coords)) == \
        {i: {f: Fraction(1)} for i, f in freqs.items()}


def test_matrix_law_l1_rows():
    stream = [Update(1, col=1), Update(1, col=2), Update(2, col=1), Update(2, col=1)]
    law = sampler_law(lambda: MatrixSampler(L1RowMeasure(), 2, 2, 4, repetitions=1), stream)
    assert law.probs == {1: Fraction(1, 2), 2: Fraction(1, 2)}


def test_matrix_coefficients_telescope():
    stream = [Update(1, col=1), Update(1, col=2), Update(2, col=1)]
    coeffs = oracle.matrix_coefficients(stream, d=2)
    assert coeffs == {1: {(1, 1): Fraction(1)}, 2: {(1, 0): Fraction(1)}}


def test_sw_law_matches_window_target():
    coords = [1, 1, 2, 3, 3]
    W = 3
    law = sampler_law(lambda: CheckpointedSampler(lp_measure(1), W, 3, repetitions=1), coords)
    target = target_distribution({2: 1, 3: 2}, lp_measure(1))
    assert law.conditional() == target.probs


def test_sliding_lp_frozen_example():
    # Active f = (2, 1) in a window of 3, zeta = 2 max_f = 4: per-repetition
    # masses (3/4 + 1/4)/3 and (1/4)/3.
    law = sampler_law(lambda: SlidingLpSampler(2, 3, 3, repetitions=1), [1, 1, 2])
    assert law.probs == {1: Fraction(1, 3), 2: Fraction(1, 12)}
    assert law.conditional() == {1: Fraction(4, 5), 2: Fraction(1, 5)}


def test_skip_forks_over_the_rest_of_the_stream_only():
    # sampler_law tells the enumerator the stream time, so a bank that starts
    # late forks its skips over the updates still to come.  Fed the whole
    # stream at once with no time told, every bank forks to the stream's end:
    # the same law, from 864 leaves instead of 48 at W = 1 (a bank per update).
    coords = [1, 2, 1, 3]

    def make():
        return CheckpointedSampler(lp_measure(1), 1, 3, repetitions=1)

    def whole_stream():
        s = make()
        s.process(coords)
        return s.draw()

    leaves = []
    real = oracle._law

    def counting(run, tree):
        leaves.append(0)

        def counted():
            leaves[-1] += 1
            return run()

        return real(counted, tree)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_law", counting)
        told = sampler_law(make, coords)
        untold = enumerate_law(whole_stream, len(coords))
    assert told == untold and told.conditional() == {3: Fraction(1)}
    assert leaves == [48, 864]


def test_pair_law_example():
    # The real PairL2Sampler's first pair, over every order of the window.
    law = oracle.order_law(lambda: PairL2Sampler(4, 4), {1: 2, 2: 2}, length=2)
    assert law.probs == {1: Fraction(1, 4), 2: Fraction(1, 4)}
    assert law.conditional() == {1: Fraction(1, 2), 2: Fraction(1, 2)}


def test_multipass_l1_law():
    freqs = {1: 1, 2: 2, 3: 3, 4: 4}
    stream = ReplayableStream([Update(i) for i in freqs for _ in range(freqs[i])])
    law = enumerate_law(lambda: multipass_l1_draw(stream, Fraction(1, 2), 4)[0])
    assert law.probs == {i: Fraction(f, 10) for i, f in freqs.items()}


def test_multipass_lp_law_conditional():
    # One chain, Z = 2 (f_1 = 2 >= m/k = 3/2): masses f^2/(2 Z m) = 4/12, 1/12.
    stream = ReplayableStream(ups([1, 1, 2]))
    law = enumerate_law(lambda: multipass_lp_draw(stream, Fraction(1, 2), 2, 4, repetitions=1))
    assert law.probs == {1: Fraction(1, 3), 2: Fraction(1, 12)}
    assert law.conditional() == {1: Fraction(4, 5), 2: Fraction(1, 5)}


def test_branch_budget(monkeypatch):
    # The enumerator counts leaves: 2^(m-1) reservoir paths times 2 coins.
    # The shipped zeta = 2Z, Z = 2 + 6/2 = 5 (Misra-Gries, k = 2), so index
    # i has mass G(f_i)/(zeta m) = f_i^2/60.
    monkeypatch.setattr(oracle, "BRANCH_BUDGET", 63)
    with pytest.raises(BranchBudgetExceeded):
        gsampler_law([1, 2, 1, 3, 1, 2], lp_measure(2))
    with pytest.raises(BranchBudgetExceeded):
        oracle.order_law(lambda: PairL2Sampler(9, 18), {i: 2 for i in range(1, 10)})
    monkeypatch.setattr(oracle, "BRANCH_BUDGET", 64)
    assert gsampler_law([1, 2, 1, 3, 1, 2], lp_measure(2)).probs == \
        {1: Fraction(3, 20), 2: Fraction(1, 15), 3: Fraction(1, 60)}


def _irrational_gsampler_draw():
    # L_{1/2} increments are irrational, so acceptance takes the interval test.
    s = GSampler(lp_measure(Fraction(1, 2)), 2, 2, repetitions=1)
    s.process([1, 1])
    return s.draw()


def _irrational_sliding_lp_draw():
    # max_f = 2 on [1, 1, 2], so zeta = (3/2) sqrt(2) takes the interval test.
    s = SlidingLpSampler(Fraction(3, 2), 3, 3, repetitions=1)
    s.process([1, 1, 2])
    return s.draw()


UNFORKED = {
    "random": lambda: exactrand.substream(0).random(),
    "getrandbits": lambda: exactrand.substream(0).getrandbits(8),
    "uniform": lambda: exactrand.substream(0).uniform(0, 1),
    "np_substream": lambda: exactrand.np_substream(0),
    "bernoulli_bounds": lambda: exactrand.bernoulli_bounds(lambda k: (1, 2),
                                                           exactrand.substream(0)),
    "skip_without_stream_length": lambda: exactrand.skip(1, exactrand.substream(0)),
    "gsampler_irrational": _irrational_gsampler_draw,
    "sliding_lp": _irrational_sliding_lp_draw,
}


@pytest.mark.parametrize("name", sorted(UNFORKED))
def test_unforked_draws_raise_and_names_come_back(name):
    modules = [m for k, m in sys.modules.items() if k.startswith("exactsamp") and m is not None]
    before = [dict(vars(m)) for m in modules]
    with pytest.raises(UnforkedDraw):
        enumerate_law(lambda: UNFORKED[name]() and SampleResult.bottom())
    for mod, names in zip(modules, before):
        assert all(vars(mod).get(k) is v for k, v in names.items()), mod.__name__


def test_gof_calibration():
    # Histograms drawn from the target itself should pass most of the time.
    rng = np_substream(0, "gof")
    target = {1: 0.5, 2: 0.3, 3: 0.2}
    passes = 0
    for _ in range(40):
        draw = rng.multinomial(20000, [0.5, 0.3, 0.2])
        hist = {k + 1: int(v) for k, v in enumerate(draw)}
        if gof_test(hist, target).pvalue > 0.01:
            passes += 1
    assert passes >= 37


def test_gof_power():
    rng = np_substream(0, "gofp")
    draw = rng.multinomial(10 ** 6, [0.4, 0.4, 0.2])
    hist = {k + 1: int(v) for k, v in enumerate(draw)}
    rep = gof_test(hist, {1: 0.5, 2: 0.3, 3: 0.2})
    assert rep.pvalue < 1e-6
    assert rep.tv > 0.05


def test_gof_zero_prob_cell():
    rep = gof_test({1: 100, 2: 5}, {1: 1.0})
    assert rep.pvalue == 0.0


def test_gof_rejects_empty():
    with pytest.raises(ValueError):
        gof_test({}, {1: 1.0})


def test_gof_tv_identity():
    rep = gof_test({1: 500, 2: 500}, {1: 0.5, 2: 0.5})
    assert rep.tv == 0.0
