import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactsamp.exactrand import (
    bernoulli_bounds,
    bernoulli_fraction,
    integer_nthroot,
    log_scaled,
    np_substream,
    pow_bounds,
    pow_exact,
    pow_scaled,
    root_bounds,
    root_scaled,
    scaled,
    skip,
    substream,
    weighted_index,
)


def test_substream_deterministic_and_distinct():
    a = substream(7, "x", 1).random()
    b = substream(7, "x", 1).random()
    c = substream(7, "x", 2).random()
    assert a == b
    assert a != c


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


def test_np_substream_deterministic():
    assert np_substream(3, "a").random() == np_substream(3, "a").random()


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
