import itertools
import math
import sys
from fractions import Fraction

import pytest

from exactsamp import exactrand, gsampler, oracle
from exactsamp.core import (BOTTOM, FAIL, SampleResult, Update, fair_measure, huber_measure,
                            lp_measure, tukey_measure)
from exactsamp.gsampler import GSampler
from exactsamp.matrixsampler import L1RowMeasure, L2RowMeasure, MatrixSampler
from exactsamp.multipass import ReplayableStream, multipass_l1_draw, multipass_lp_draw
from exactsamp.randomorder import PairL2Sampler
from exactsamp.oracle import (
    BranchBudgetExceeded,
    UnforkedDraw,
    enumerate_law,
    sampler_law,
    target_distribution,
)
from exactsamp.reservoir import SamplerBank
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


def test_bernoulli_ratio_forks_at_its_unreduced_weights():
    # An unreduced pair (a g, b g) forks at a/b and 1 - a/b.
    for a, b, g in ((2, 7, 3), (0, 4, 5), (4, 4, 2), (5, 12, 6)):
        law = enumerate_law(lambda: SampleResult.of(1) if exactrand.bernoulli_ratio(
            a * g, b * g, exactrand.substream(0)) else SampleResult.fail())
        assert law.probs.get(1, 0) == Fraction(a, b), (a, b)
        assert law.mass_fail == 1 - Fraction(a, b), (a, b)


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
    # The real GSampler with its coin kept symbolic: zeta times index i's
    # probability is G(f_i)/m over the basis {G(x)}, for every measure of a
    # static zeta.
    coords = [1, 2, 1, 1, 3, 2]
    fair = fair_measure(2)
    forms = oracle.symbolic_sampler_law(lambda: GSampler(fair, 3, 6, repetitions=1), coords)
    assert {i: oracle.in_g_basis(forms[i], fair) for i in (1, 2, 3)} == \
        {1: {3: Fraction(1, 6)}, 2: {2: Fraction(1, 6)}, 3: {1: Fraction(1, 6)}}
    assert set(forms) == {1, 2, 3, FAIL}


def _forms_sum(forms):
    total = {}
    for form in forms.values():
        for term, w in form.items():
            total[term] = total.get(term, 0) + w
    return {term: w for term, w in total.items() if w}


def test_symbolic_forms_sum_to_one():
    # Every coin's accept and reject weights cancel: the forms of all the
    # outcomes sum to the constant 1, on each kind of coin state and zeta.
    stream = ReplayableStream(ups([1, 1, 2]))
    laws = [
        oracle.symbolic_sampler_law(
            lambda: GSampler(lp_measure(Fraction(3, 2)), 3, 3, repetitions=1), [1, 1, 2]),
        oracle.symbolic_sampler_law(lambda: SlidingLpSampler(Fraction(3, 2), 2, 3,
                                                             repetitions=1), [1, 1, 2, 1]),
        oracle.symbolic_sampler_law(
            lambda: MatrixSampler(L2RowMeasure(), 2, 2, 3, repetitions=1),
            [Update(1, col=1), Update(1, col=2), Update(2, col=1)]),
        oracle.symbolic_law(
            lambda: multipass_lp_draw(stream, Fraction(1, 2), Fraction(3, 2), 4, repetitions=1)),
        oracle.symbolic_sampler_law(lambda: GSampler(lp_measure(2), 3, 0, repetitions=1), []),
    ]
    for forms in laws:
        assert _forms_sum(forms) == {oracle.ONE: 1}, forms
    assert laws[-1] == {BOTTOM: {oracle.ONE: 1}}


def test_symbolic_coins_read_one_zeta():
    # zeta is a function of the stream, so every leaf must read the same
    # one; a run whose zeta varies from leaf to leaf is refused.
    fair = fair_measure(2)

    def run():
        rng = exactrand.substream(0)
        zeta = Fraction(2 + rng.randrange(2))
        accepted = gsampler.accept_increment(fair, 0, zeta, None, rng)
        return SampleResult.of(1) if accepted else SampleResult.fail()

    with pytest.raises(AssertionError, match="coins at zeta"):
        oracle.symbolic_law(run)


def test_second_coin_on_one_leaf_raises():
    # At R = 2 a leaf whose first repetition rejects tests the second one:
    # its weight would be a product of two coins, not a linear form.
    with pytest.raises(UnforkedDraw, match="second acceptance coin"):
        oracle.symbolic_sampler_law(lambda: GSampler(fair_measure(2), 3, 2, repetitions=2),
                                    [1, 2])


def test_matrix_law_l1_rows():
    stream = [Update(1, col=1), Update(1, col=2), Update(2, col=1), Update(2, col=1)]
    law = sampler_law(lambda: MatrixSampler(L1RowMeasure(), 2, 2, 4, repetitions=1), stream)
    assert law.probs == {1: Fraction(1, 2), 2: Fraction(1, 2)}


def test_matrix_coefficients_telescope():
    # The real MatrixSampler, coin kept symbolic: zeta times row r's
    # probability is G(row vector of r)/m, over the basis of row vectors.
    stream = [Update(1, col=1), Update(1, col=2), Update(2, col=1)]
    l2row = L2RowMeasure()
    forms = oracle.symbolic_sampler_law(lambda: MatrixSampler(l2row, 2, 2, 3, repetitions=1),
                                        stream)
    assert {r: oracle.in_g_basis(forms[r], l2row) for r in (1, 2)} == \
        {1: {(1, 1): Fraction(1, 3)}, 2: {(1, 0): Fraction(1, 3)}}


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


def test_skip_from_the_horizon_forks_only_within_the_stream():
    # A one-unit bank with horizon 3, fed 2 updates: its unit takes position
    # 1, 2 or 3, and at 1 or 2 it skips from 3, past the stream's last
    # position, so no skip forks: 3 leaves, with the unit at 1, at 2, or
    # not yet placed.
    leaves = []

    def run():
        leaves.append(0)
        bank = SamplerBank(1, 0, horizon=3)
        bank.extend([5, 6])
        s = bank.unit_s[0]
        return SampleResult.fail() if s is None else SampleResult.of(s)

    law = enumerate_law(run, 2)
    assert len(leaves) == 3
    third = Fraction(1, 3)
    assert (law.probs, law.mass_fail) == ({5: third, 6: third}, third)


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


# name -> (draw, stream length for the reservoir skip, what the enumerator
# says); the two sampler draws reach their irrational acceptance coin.
UNFORKED = {
    "random": (lambda: exactrand.substream(0).random(), None, r"random\(\) has no"),
    "getrandbits": (lambda: exactrand.substream(0).getrandbits(8), None, "getrandbits"),
    "uniform": (lambda: exactrand.substream(0).uniform(0, 1), None, r"random\(\) has no"),
    "bernoulli_bounds": (lambda: exactrand.bernoulli_bounds(lambda k: (1, 2),
                                                            exactrand.substream(0)),
                         None, "bernoulli_bounds has no exact fork"),
    "skip_without_stream_length": (lambda: exactrand.skip(1, exactrand.substream(0)), None,
                                   "skip needs the stream length"),
    "gsampler_irrational": (_irrational_gsampler_draw, 2, "bernoulli_bounds has no exact fork"),
    "sliding_lp": (_irrational_sliding_lp_draw, 3, "bernoulli_bounds has no exact fork"),
}
COIN_DRAWS = {"gsampler_irrational", "sliding_lp"}


@pytest.mark.parametrize("name", sorted(UNFORKED))
def test_unforked_draws_raise_and_names_come_back(name):
    # Each draw raises, except that with the coin kept symbolic the two
    # irrational coins fork, and each index's form has a coin term.  Every
    # swapped name, gsampler.acceptance included, is put back.
    draw, horizon, says = UNFORKED[name]
    modules = [m for k, m in sys.modules.items() if k.startswith("exactsamp") and m is not None]
    before = [dict(vars(m)) for m in modules]
    acceptance = gsampler.acceptance
    for law in (enumerate_law, oracle.symbolic_law):
        if law is oracle.symbolic_law and name in COIN_DRAWS:
            forms = law(draw, horizon)
            indices = [form for i, form in forms.items() if i not in (FAIL, BOTTOM)]
            assert indices and all(set(form) - {oracle.ONE} for form in indices), forms
        else:
            with pytest.raises(UnforkedDraw, match=says):
                law(draw, horizon)
        for mod, names in zip(modules, before):
            assert all(vars(mod).get(k) is v for k, v in names.items()), mod.__name__
    assert gsampler.acceptance is acceptance

