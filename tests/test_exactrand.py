import decimal
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from statcheck import gof_test

from exactsamp import exactrand
from exactsamp.exactrand import (
    bernoulli_bounds,
    bernoulli_fraction,
    binomial,
    integer_nthroot,
    log_scaled,
    pow_bounds,
    pow_exact,
    pow_fixed,
    pow_scaled,
    root_bounds,
    root_scaled,
    scaled,
    skip,
    substream,
    uniform_subset,
    weighted_index,
)


def test_substream_deterministic_and_distinct():
    a = substream(7, "x", 1).random()
    b = substream(7, "x", 1).random()
    c = substream(7, "x", 2).random()
    assert a == b
    assert a != c


def test_substreams_are_seeded_by_hashlib_blake2b():
    # exactrand takes blake2b from _blake2 so that importing it loads no
    # OpenSSL; it is hashlib's own, so every substream and subseed is kept.
    import hashlib

    assert exactrand.blake2b is hashlib.blake2b
    assert exactrand.subseed(7, "bank") == 3120071199415226484
    assert substream(1, "draws").getrandbits(64) == 7060824520749491811


def test_weighted_index_consumes_one_randrange():
    # Weights (0, 3, 0, 1): the four values of randrange(4) land on
    # indices 1, 1, 1, 3, and a zero weight is never picked.
    class Fixed:
        def __init__(self, value):
            self.value = value

        def randrange(self, total):
            assert total == 4
            return self.value

    assert [weighted_index([0, 3, 0, 1], Fixed(v)) for v in range(4)] == [1, 1, 1, 3]


class ScriptedWords:
    """getrandbits(64) hands out the scripted words in order, and fails
    once they run out."""

    def __init__(self, *words):
        self.words = list(words)

    def getrandbits(self, k):
        assert k == 64
        return self.words.pop(0)


def _skip_on(r, *words):
    """(J, a, k): the skip from r on the scripted words and the prefix
    u in [a, a+1) 2^-k of the words it took."""
    rng = ScriptedWords(*words)
    j = skip(r, rng)
    used = len(words) - len(rng.words)
    a = 0
    for w in words[:used]:
        a = a << 64 | w
    return j, a, 64 * used


def test_skip_exact_on_scripted_words():
    # J = floor(r/u) + 1, so J > t exactly when u <= r/t.  First words below
    # b = floor(r 2^64/t) decide J > t, words above decide J <= t, and b
    # itself leaves J undecided, so a second word settles it.  Whatever
    # the words, the J returned is floor(r/u) + 1 for every u of the prefix
    # interval the skip stopped at.
    top = 2 ** 64 - 1
    for r in range(1, 6):
        for t in range(r + 1, 13):
            b = (r << 64) // t
            b2 = ((r << 128) // t) & top  # the second word at r/t
            for w1 in (b - 1, b, b + 1):
                for w2 in {0, 1, b2 - 1, b2 + 1, top} - {b2, -1, top + 1}:
                    j, a, k = _skip_on(r, w1, w2)
                    assert k == (128 if w1 == b else 64), (r, t, w1, w2)
                    assert (j > t) == ((w1 << 64 | w2) * t < r << 128), (r, t, w1, w2)
                    assert (j - 1) * (a + 1) <= r << k < j * a, (r, t, w1, w2)
    # After a zero word, u < 2^-64 and r/u is too wide to settle on one more.
    j, a, k = _skip_on(3, 0, top, 5)
    assert k == 192 and (j - 1) * (a + 1) <= 3 << k < j * a


@pytest.mark.parametrize("c,b", [(0, 1), (1, 2), (2, 3), (1, 1), (1, 7), (99, 100),
                                 (10 ** 12 - 1, 10 ** 12), (10 ** 8 - 1, 10 ** 8)])
def test_pow_fixed_brackets(c, b):
    for t in (0, 1, 2, 3, 7, 64, 1000):
        exact = Fraction(c, b) ** t
        for k in (0, 1, 64, 128):
            lo, hi = pow_fixed(c, b, t, k)
            assert lo <= exact * 2 ** k <= hi and hi - lo <= 2, (c, b, t, k)


@pytest.mark.parametrize("c,b", [(10 ** 12 - 30000, 10 ** 12), (10 ** 8 - 1, 10 ** 8)])
def test_pow_fixed_brackets_at_a_block_of_100(c, b):
    # t = 100 * 99 * 98 is the block sampler's T_1 at B = 100, and 1 - 1/10^8
    # its 1 - alpha_1 at W = 10^4.  b is a power of ten, so
    # lo b^t <= c^t 2^k <= hi b^t is checked in exact decimal arithmetic,
    # which multiplies numbers of millions of digits far faster than int.
    t = 970200
    digits = len(str(b)) - 1
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
        power = decimal.Decimal(c) ** t
        for k in (0, 64, 192):
            lo, hi = pow_fixed(c, b, t, k)
            scaled_power = power * 2 ** k
            assert decimal.Decimal(lo).scaleb(digits * t) <= scaled_power, k
            assert scaled_power <= decimal.Decimal(hi).scaleb(digits * t), k
            assert hi - lo <= 2 and (k == 0 or lo > 0), (k, lo, hi)


def _cdf(M, q):
    """F(-1) = 0, F(0), ..., F(M) of Bin(M, q), in Fractions."""
    out, total = [Fraction(0)], Fraction(0)
    for j in range(M + 1):
        total += math.comb(M, j) * q ** j * (1 - q) ** (M - j)
        out.append(total)
    return out


def _binomial_on(M, q, *words):
    """(result, a, k): binomial(M, q) on the scripted words and the prefix
    u in [a, a+1) 2^-k of the words it took."""
    rng = ScriptedWords(*words)
    j = binomial(M, q, rng)
    used = len(words) - len(rng.words)
    a = 0
    for w in words[:used]:
        a = a << 64 | w
    return j, a, 64 * used


@pytest.mark.parametrize("M,q", [(5, Fraction(1, 3)), (6, Fraction(5, 7)), (40, Fraction(1, 9))])
def test_binomial_exact_on_scripted_words(M, q):
    # binomial inverts the CDF of Bin(M, min(q, 1-q)).  The scripted words
    # lie just below and just above each boundary F(j) 2^64, and the word
    # floor(F(j) 2^64) straddles it, so it takes a second word.  Whatever the
    # words, the result is the j with F(j-1) <= u < F(j) for every u of the
    # prefix the draw stopped at.
    flip = q > Fraction(1, 2)
    F = _cdf(M, 1 - q if flip else q)
    top = 2 ** 64 - 1
    for j in range(M):
        boundary = F[j + 1] * 2 ** 64
        w = math.floor(boundary)
        second = math.floor((boundary - w) * 2 ** 64)
        pairs = ((w - 1, 0), (w - 1, top), (w + 1, 0), (w + 1, top),
                 (w - 256, 5), (w + 256, 5), (w, second - 2 ** 40), (w, second + 2 ** 40))
        for w1, w2 in [pair for pair in pairs if 0 <= min(pair) and max(pair) <= top]:
            got, a, k = _binomial_on(M, q, w1, w2)
            i = M - got if flip else got
            assert F[i] * 2 ** k <= a and a + 1 <= F[i + 1] * 2 ** k, (M, q, w1, w2)
            if w1 == w:
                assert k == 128, (M, q, w2)


def test_binomial_edges_draw_nothing():
    no_words = ScriptedWords()
    assert binomial(0, Fraction(1, 3), no_words) == 0
    assert binomial(7, Fraction(0), no_words) == 0
    assert binomial(7, Fraction(1), no_words) == 7
    # The complement draws the same words: M - Bin(M, 1 - q).
    for words in ((0,), (2 ** 63,), (2 ** 64 - 1,)):
        assert binomial(9, Fraction(5, 7), ScriptedWords(*words)) == \
            9 - binomial(9, Fraction(2, 7), ScriptedWords(*words))


@pytest.mark.parametrize("M,q,draws", [
    (30, Fraction(2, 7), 10000), (12, Fraction(5, 6), 10000),
    (970200, Fraction(1, 10 ** 6), 10000),
    (200, Fraction(2, 5), 10000),  # a mean of 80: drawn by rejection
    (10 ** 12, Fraction(1, 10 ** 5), 2000)])  # a mean of 10^7
def test_binomial_matches_its_pmf(M, q, draws):
    rng = substream(61, "binomial", M)
    # Cells a quarter of a standard deviation wide (single values for small
    # means), over six deviations each side; the target's floats only weigh
    # the chi-square cells.
    mean, sd = float(M * q), math.sqrt(float(M * q * (1 - q)))
    width = max(1, int(sd / 4))
    hist = {}
    for _ in range(draws):
        cell = binomial(M, q, rng) // width
        hist[cell] = hist.get(cell, 0) + 1
    lq, lr = math.log(q), math.log(1 - q)
    target = {}
    for j in range(max(0, int(mean - 6 * sd)), min(M, int(mean + 6 * sd) + 1) + 1):
        pmf = math.exp(math.lgamma(M + 1) - math.lgamma(j + 1) - math.lgamma(M - j + 1)
                       + j * lq + (M - j) * lr)
        target[j // width] = target.get(j // width, 0) + pmf
    rep = gof_test(hist, target)
    assert rep.pvalue > 1e-3, rep


def test_binomial_beyond_maxsize_has_its_moments():
    # M = 3e22 trials, as a p = 5 block at W = 10^6 has: float lgamma cannot
    # weigh cells here, so the sample mean and variance are checked, at
    # 5 and about 6 of their standard errors.
    M, q, draws = 3 * 10 ** 22, Fraction(7, 10 ** 12), 2000
    rng = substream(62, "binomial", M)
    mean, var = M * q, M * q * (1 - q)
    xs = [binomial(M, q, rng) - mean for _ in range(draws)]
    assert abs(sum(xs)) < 5 * math.sqrt(var * draws)
    assert abs(sum(x * x for x in xs) / (draws * var) - 1) < 0.2




@pytest.mark.parametrize("n,m", [(200, 10), (1000, 100), (1500, 0), (65, 0),
                                 (10 ** 6 + 300, 10 ** 6), (10 ** 12 + 100, 10 ** 12)])
def test_log_falling_brackets(n, m):
    # Stirling's series, the factors below EXACT_SPAN multiplied out,
    # against a sum of decimal logarithms at 100 digits.
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        exact = sum((decimal.Decimal(x).ln() for x in range(m + 1, n + 1)), decimal.Decimal(0))
        for P in (32, 64, 128, 256):
            lo, hi = exactrand._log_falling(n, m, P)
            assert lo <= exact * 2 ** P <= hi and hi - lo <= 16, (P, lo, hi)


def _pmf(M, q, j):
    return math.comb(M, j) * q ** j * (1 - q) ** (M - j)


@pytest.mark.parametrize("M,q", [(300, Fraction(1, 3)), (5000, Fraction(1, 100))])
def test_log_pmf_ratio_brackets(M, q):
    # Multiplied out within EXACT_SPAN of the mode, from _log_falling past it.
    a, c = q.numerator, q.denominator - q.numerator
    m = (M + 1) * a // (a + c)
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        near = {0, m - 65, m - 64, m - 3, m, m + 2, m + 64, m + 65, m + 150, M}
        for X in near & set(range(M + 1)):
            ratio = _pmf(M, q, X) / _pmf(M, q, m)
            exact = decimal.Decimal(ratio.numerator).ln() - decimal.Decimal(ratio.denominator).ln()
            for k in (32, 64, 128):
                lo, hi = exactrand._log_pmf_ratio(M, a, c, m, X, k)
                assert lo <= exact * 2 ** k <= hi and hi - lo <= 8, (X, k, lo, hi)


def _step(X, m, right, left):
    """The hat's step t at X: X = m + t right + i, or m - 1 - t left - i."""
    return (X - m) // right if X >= m else (m - 1 - X) // left


@pytest.mark.parametrize("M,q", [(100, Fraction(2, 5)), (400, Fraction(1, 10)),
                                 (65, Fraction(1, 2))])
def test_rejection_hat_covers_the_pmf(M, q):
    # f(X) 2^t(X) <= f(m) at every X, in Fractions: the acceptance
    # probability of every proposal is at most 1.
    a, c = q.numerator, q.denominator - q.numerator
    m = (M + 1) * a // (a + c)
    right, left = exactrand._halving_step(M, a, c, m, 1), exactrand._halving_step(M, a, c, m, -1)
    peak = _pmf(M, q, m)
    assert all(_pmf(M, q, X) * 2 ** _step(X, m, right, left) <= peak for X in range(M + 1))
    # the steps are near 1.2 standard deviations, so about half the
    # proposals are kept
    sd = math.sqrt(M * q * (1 - q))
    assert right <= 2 * sd and left <= 2 * sd, (right, left, sd)


class ScriptedProposals(ScriptedWords):
    """randrange and single bits hand out scripted values, 64-bit words
    scripted ones, each list in order."""

    def __init__(self, offsets, bits, words):
        super().__init__(*words)
        self.offsets, self.bits = list(offsets), list(bits)

    def randrange(self, n):
        value = self.offsets.pop(0)
        assert 0 <= value < n
        return value

    def getrandbits(self, k):
        return self.bits.pop(0) if k == 1 else super().getrandbits(k)


def test_rejection_exact_on_scripted_words():
    # The proposal (i, t) is X = m + t right + i or m - 1 - t left - i', and
    # is kept exactly when u < f(X) 2^t / f(m).  Words 2^20 below or above
    # that boundary's 2^64 multiple decide it at once; the word on it takes
    # a second; words next to it may take two.  A rejected proposal is
    # followed by (0, t = 0), which is m, kept on its first word.
    M, q = 300, Fraction(1, 3)
    a, c = q.numerator, q.denominator - q.numerator
    m = (M + 1) * a // (a + c)
    right, left = exactrand._halving_step(M, a, c, m, 1), exactrand._halving_step(M, a, c, m, -1)
    top = 2 ** 64 - 1
    proposals = [(0, 0, m), (right - 1, 1, m + 2 * right - 1), (3, 2, m + 2 * right + 3),
                 (right, 0, m - 1), (right + left - 1, 2, m - 3 * left)]
    for i, t, X in proposals:
        boundary = _pmf(M, q, X) * 2 ** t / _pmf(M, q, m) * 2 ** 64
        w = math.floor(boundary)
        second = math.floor((boundary - w) * 2 ** 64)
        cases = [((w - 2 ** 20,), True, 1), ((w + 2 ** 20,), False, 1),
                 ((w, second - 2 ** 20), True, 2), ((w, second + 2 ** 20), False, 2),
                 ((w - 1,), True, None), ((w + 1,), False, None)]
        for words, kept, used in cases:
            if not 0 <= min(words) <= max(words) <= top:
                continue
            script = [*words, 0, 0, 0]
            rng = ScriptedProposals([i, 0], [1] * t + [0, 0], script)
            assert exactrand._rejected(M, a, a + c, rng) == (X if kept else m), (i, t, words)
            if used is not None:
                assert len(script) - len(rng.words) == used + (0 if kept else 1), (i, t, words)


class ScriptedValues:
    """getrandbits(k) hands out the scripted values in order, each below
    2^k, and fails once they run out."""

    def __init__(self, *values):
        self.values = list(values)

    def getrandbits(self, k):
        value = self.values.pop(0)
        assert 0 <= value < 1 << k
        return value


def test_uniform_subset_is_uniform():
    # N = 5, K = 3 picks below 3, 4 and 5: each of the 60 pick sequences
    # gives one subset, and each of the 10 subsets comes from 6 of them.
    subsets = Counter(frozenset(uniform_subset(5, 3, ScriptedValues(*picks)))
                      for picks in itertools.product(range(3), range(4), range(5)))
    assert subsets == {frozenset(s): 6 for s in itertools.combinations(range(5), 3)}
    # A pick at or above top (2 bits below 3, 3 bits below 5) is drawn again.
    assert uniform_subset(5, 3, ScriptedValues(3, 1, 2, 7, 6, 4)) == \
        uniform_subset(5, 3, ScriptedValues(1, 2, 4))
    # No len() of the range: a population beyond sys.maxsize works.
    big = uniform_subset(3 * 10 ** 22, 5, substream(1))
    assert len(big) == 5 and all(0 <= x < 3 * 10 ** 22 for x in big)
    assert uniform_subset(4, 4, substream(2)) == {0, 1, 2, 3}
    assert uniform_subset(10 ** 30, 0, substream(3)) == set()


def test_bernoulli_fraction_edges():
    rng = random.Random(0)
    assert bernoulli_fraction(Fraction(0), rng) is False
    assert bernoulli_fraction(Fraction(1), rng) is True
    assert bernoulli_fraction(Fraction(3, 2), rng) is True


def test_bernoulli_fraction_empirical():
    rng = random.Random(42)
    q = Fraction(3, 7)
    n = 200000
    hits = sum(bernoulli_fraction(q, rng) for _ in range(n))
    # 4 sigma band
    sigma = math.sqrt(n * float(q) * (1 - float(q)))
    assert abs(hits - n * float(q)) < 4 * sigma


def test_bernoulli_bounds_matches_fraction():
    # Same q presented through scaled-integer bounds, one unit loose on each
    # side, must give the same acceptance rate.
    q = Fraction(2, 5)

    def refine(k):
        lo, hi = scaled(q, q, k)
        return lo - 1, hi + 1

    rng = random.Random(9)
    n = 100000
    hits = sum(bernoulli_bounds(refine, rng) for _ in range(n))
    sigma = math.sqrt(n * 0.4 * 0.6)
    assert abs(hits - n * 0.4) < 4 * sigma


class ScriptedBits:
    """getrandbits(1) from a fixed bit string; running out raises Exhausted."""

    class Exhausted(Exception):
        pass

    def __init__(self, bits):
        self.bits = bits
        self.used = 0

    def getrandbits(self, k):
        assert k == 1
        if self.used == len(self.bits):
            raise self.Exhausted
        self.used += 1
        return self.bits[self.used - 1]


def _sqrt3_minus_1_over_2(k):
    lo, hi = root_scaled(3, 2, k)
    one = 1 << k
    return (lo - one) // 2, -(-(hi - one) // 2)


def _sign(v):
    return (v > 0) - (v < 0)


@pytest.mark.parametrize("refine, vs_q", [
    # refine(k) brackets q 2^k; vs_q(x) is the sign of x - q for dyadic x >= 0.
    (lambda k: scaled(Fraction(2, 5), Fraction(2, 5), k), lambda x: _sign(x - Fraction(2, 5))),
    (lambda k: scaled(Fraction(3, 8), Fraction(3, 8), k), lambda x: _sign(x - Fraction(3, 8))),
    (lambda k: root_scaled(Fraction(1, 2), 2, k), lambda x: _sign(2 * x * x - 1)),
    (_sqrt3_minus_1_over_2, lambda x: _sign((2 * x + 1) ** 2 - 3)),
], ids=["2/5", "3/8", "sqrt2/2", "(sqrt3-1)/2"])
@pytest.mark.parametrize("start_prec", [1, 16])
def test_bernoulli_bounds_exact_enumeration(refine, vs_q, start_prec):
    # Every bit string up to depth 12 through the real loop: the mass decided
    # True stays at or below q, the mass decided False at or below 1 - q, and
    # the undecided mass is at most two prefixes of each depth.  Starting at
    # 2^-1 makes the loop refine while bits are drawn.
    depth = 12
    decided = {True: [Fraction(0)] * (depth + 1), False: [Fraction(0)] * (depth + 1)}
    undecided = [Fraction(0)] * (depth + 1)
    stack = [()]
    while stack:
        bits = stack.pop()
        rng = ScriptedBits(bits)
        try:
            out = bernoulli_bounds(refine, rng, start_prec)
        except ScriptedBits.Exhausted:
            undecided[len(bits)] += Fraction(1, 1 << len(bits))
            if len(bits) < depth:
                stack += [bits + (0,), bits + (1,)]
            continue
        assert rng.used == len(bits)
        decided[out][len(bits)] += Fraction(1, 1 << len(bits))
    for d in range(depth + 1):
        t, f = sum(decided[True][:d + 1]), sum(decided[False][:d + 1])
        assert t + f + undecided[d] == 1
        assert vs_q(t) <= 0 <= vs_q(1 - f), (d, t, f)
        assert undecided[d] <= Fraction(2, 1 << d), (d, undecided[d])
    assert undecided[depth] > 0 or vs_q(t) == 0  # only a dyadic q is ever settled


@given(st.integers(0, 10 ** 12), st.integers(1, 6))
def test_integer_nthroot(x, n):
    r, exact = integer_nthroot(x, n)
    assert r ** n <= x < (r + 1) ** n
    assert exact == (r ** n == x)


@given(st.fractions(min_value=0, max_value=1000, max_denominator=50), st.integers(1, 4),
       st.integers(4, 40))
def test_root_bounds_bracket(x, n, prec):
    lo, hi = root_bounds(x, n, prec)
    assert hi - lo <= Fraction(1, 1 << prec)
    assert lo ** n <= x or lo == hi
    assert hi ** n >= x


def test_pow_exact():
    assert pow_exact(Fraction(4), Fraction(1, 2)) == 2
    assert pow_exact(Fraction(2), Fraction(1, 2)) is None
    assert pow_exact(Fraction(8, 27), Fraction(2, 3)) == Fraction(4, 9)
    assert pow_exact(Fraction(0), Fraction(3, 2)) == 0
    assert pow_exact(Fraction(0), Fraction(0)) == 1


@given(st.fractions(min_value=Fraction(1, 30), max_value=100, max_denominator=30),
       st.fractions(min_value=0, max_value=3, max_denominator=6))
@settings(max_examples=60)
def test_pow_bounds_bracket(base, exp):
    lo, hi = pow_bounds(base, exp, 30)
    v = float(base) ** float(exp)
    assert float(lo) <= v * (1 + 1e-9) + 1e-9
    assert float(hi) >= v * (1 - 1e-9) - 1e-9
    ex = pow_exact(base, exp)
    if ex is not None:
        assert lo <= ex <= hi


@given(st.fractions(min_value=Fraction(1, 40), max_value=50, max_denominator=40),
       st.integers(8, 48))
@settings(max_examples=60)
def test_log_bounds_bracket(y, prec):
    lo, hi = log_scaled(y, prec)
    assert hi - lo <= 3
    v = math.log(float(y))
    assert lo / 2 ** prec - 1e-9 <= v <= hi / 2 ** prec + 1e-9


def test_pow_bounds_rejects_negative():
    with pytest.raises(ValueError):
        pow_bounds(Fraction(-1), Fraction(1, 2), 8)
