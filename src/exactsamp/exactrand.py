"""Seeded randomness and exact Bernoulli draws.

Every random choice a sampler makes goes through the primitives here:

* substream derivation, so every repetition / unit / trial gets its own
  deterministic generator from one 64-bit seed (subseed derives the seed of
  a part that makes its own substreams), whose uniform integer draws
  (randrange, sample) the samplers use;
* the reservoir skip: the next replacement position after position r,
  Pr[J > t] = r/t exactly, from a lazily extended uniform in 64-bit words;
* Bernoulli draws whose success probability is honored exactly: the
  probability is compared bit-by-bit against a lazily extended uniform
  bitstream, so no float rounding ever enters an output distribution.
  An irrational probability q is given by refine(k) -> integers (lo, hi)
  with lo <= q 2^k <= hi, and bernoulli_bounds compares them against the
  integer prefix of the uniform, doubling k until the comparison is
  decidable; no Fraction enters that loop.

oracle.enumerate_law swaps these primitives for forks at their exact laws,
so it can run the shipped samplers over every branch of their choices.

np_substream derives a numpy Generator from (seed, ids) the same way.  Only
BlockLpSampler's float binomials and the Monte-Carlo twins draw from one, and
it imports numpy in its body, so importing the package loads no numpy.

The scaled-integer cores give such brackets: root_scaled and pow_scaled for
x**(1/n) and base**exp with one integer root, log_scaled for ln(y) by a
fixed-point series.  root_bounds and pow_bounds are the rational forms of the
first two, for callers off the draw path.
"""

import hashlib
import math
import random
from fractions import Fraction


def _digest(seed, ids):
    payload = repr((int(seed), ids)).encode()
    return hashlib.blake2b(payload, digest_size=16).digest()


def substream(seed, *ids):
    """A random.Random whose state depends only on (seed, ids)."""
    return random.Random(int.from_bytes(_digest(seed, ids), "big"))


def subseed(seed, *ids):
    """The 64-bit seed of a part's own substreams: the first 64 bits of
    substream(seed, *ids), a function of (seed, ids) alone rather than a
    random draw."""
    return random.Random(int.from_bytes(_digest(seed, ids), "big")).getrandbits(64)


def np_substream(seed, *ids):
    """A numpy Generator derived the same way, for the float draws of
    BlockLpSampler and the Monte-Carlo twins."""
    import numpy as np  # here, so that importing the package skips numpy

    raw = _digest(seed, ids)
    key = int.from_bytes(raw[:8], "big")
    return np.random.Generator(np.random.Philox(key=key))


def skip(r, rng):
    """Next replacement position of a reservoir holding position r >= 1:
    Pr[J > t] = r/t exactly for t >= r, as J = floor(r/u) + 1 for a uniform u.

    u is known as a prefix a/2^k of 64-bit words, u in [a, a+1) 2^-k, so
    r/u lies in (r 2^k/(a+1), r 2^k/a]; once both ends share the floor
    q = floor(r 2^k/(a+1)), that is r 2^k < (q+1) a, J = q + 1 for every u
    in the interval.  Otherwise the prefix takes another word.
    """
    a, x = rng.getrandbits(64), r << 64
    while True:
        q = x // (a + 1)
        if x < (q + 1) * a:
            return q + 1
        a, x = a << 64 | rng.getrandbits(64), x << 64


def weighted_index(weights, rng):
    """Index i with probability exactly weights[i] / sum(weights), for
    nonnegative integer weights with a positive sum: one randrange over the
    total, then a scan."""
    pick = rng.randrange(sum(weights))
    for i, w in enumerate(weights):
        if pick < w:
            return i
        pick -= w


def bernoulli_fraction(q, rng):
    """Return True with probability exactly q (a Fraction in [0,1]).

    Compares the binary expansion of q against fresh uniform bits; expected
    number of bits consumed is 2.
    """
    num, den = q.numerator, q.denominator
    if num <= 0:
        return False
    if num >= den:
        return True
    while True:
        num *= 2
        bit_q, num = divmod(num, den)
        bit_u = rng.getrandbits(1)
        if bit_u < bit_q:
            return True
        if bit_u > bit_q:
            return False
        if num == 0:
            # q's expansion terminated; u > q from here on (u == q has
            # probability zero and we resolve it as False).
            return False


def bernoulli_bounds(refine, rng, start_prec=16):
    """True with probability exactly q, where q is only available through
    refine(k) -> integers (lo, hi) with lo <= q 2^k <= hi and hi - lo bounded
    as k grows.

    u is the integer prefix U of its first j bits, u in [U, U+1) 2^-j; at
    scale 2^k that is [U << (k-j), (U+1) << (k-j)).  The draw is decided once
    that interval lies on one side of [lo, hi], takes another bit while it is
    wider than [lo, hi], and doubles k otherwise.
    """
    k = start_prec
    lo, hi = refine(k)
    U = j = 0
    while True:
        s = k - j
        if (U + 1) << s <= lo:
            return True
        if U << s >= hi:
            return False
        if hi - lo < 1 << s:
            U = U << 1 | rng.getrandbits(1)
            j += 1
        else:
            k *= 2
            lo, hi = refine(k)


def integer_nthroot(x, n):
    """(floor(x**(1/n)), exact?) for nonnegative integer x, integer n >= 1."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or n == 1:
        return x, True
    if n == 2:
        r = math.isqrt(x)
        return r, r * r == x
    # Newton iteration on integers.
    r = 1 << (x.bit_length() // n + 1)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    return r, r ** n == x


def root_scaled(x, n, k):
    """(floor, ceil) of x**(1/n) 2^k for a nonnegative int or Fraction x and
    an integer n >= 1."""
    p, q = x.numerator, x.denominator
    # x**(1/n) 2^k = (p q**(n-1) 2^(nk))**(1/n) / q
    r, exact = integer_nthroot(p * q ** (n - 1) << n * k, n)
    lo = r // q
    return lo, lo if exact and lo * q == r else lo + 1


def pow_scaled(base, exp, k):
    """(floor, ceil) of base**exp 2^k for a nonnegative int or Fraction base
    and a nonnegative rational exp."""
    a = exp.numerator
    if a < 0 or base.numerator < 0:
        raise ValueError("pow_scaled needs nonnegative base and exponent")
    return root_scaled(base ** a, exp.denominator, k)


def scaled(lo, hi, k):
    """(floor(lo 2^k), ceil(hi 2^k)) for rationals lo <= hi."""
    return (lo.numerator << k) // lo.denominator, -((-hi.numerator << k) // hi.denominator)


def _rational(bounds, k):
    lo, hi = bounds
    return Fraction(lo, 1 << k), Fraction(hi, 1 << k)


def root_bounds(x, n, prec):
    """Rational (lo, hi) with lo <= x**(1/n) <= hi and hi - lo <= 2**-prec,
    for a nonnegative rational x and a positive integer n."""
    return _rational(root_scaled(Fraction(x), n, prec), prec)


def pow_bounds(base, exp, prec):
    """Rational bounds on base**exp for Fraction base >= 0, Fraction exp >= 0,
    with hi - lo <= 2**-prec."""
    return _rational(pow_scaled(Fraction(base), Fraction(exp), prec), prec)


def pow_exact(base, exp):
    """base**exp as a Fraction, or None when irrational, for a nonnegative
    int or Fraction base and a nonnegative rational exp."""
    a, b = exp.numerator, exp.denominator
    pr, p_exact = integer_nthroot(base.numerator ** a, b)
    qr, q_exact = integer_nthroot(base.denominator ** a, b)
    if p_exact and q_exact:
        return Fraction(pr, qr)
    return None


def _atanh_scaled(a, b, P):
    """(S, E) with S <= atanh(a/b) 2^P <= S + E, for integers 0 <= a/b <= 1/3.

    Term i of the series sum t^(2i+1)/(2i+1) is truncated from below; X_i
    falls short of t^(2i+1) 2^P by less than 1/(1 - t^2) <= 9/8, so each term
    loses less than 1.375 and the tail after X_i = 0 less than 1.
    """
    if a == 0:
        return 0, 0
    x = (a << P) // b
    a2, b2 = a * a, b * b
    total, i = x, 1
    while x:
        x = x * a2 // b2
        total += x // (2 * i + 1)
        i += 1
    return total, 2 * i + 2


def log_scaled(y, k):
    """Integers (lo, hi) with lo <= ln(y) 2^k <= hi and hi - lo <= 3, for a
    rational (int or Fraction) y > 0.

    ln y = e ln 2 + 2 atanh((z - 1)/(z + 1)) with z = y / 2^e in [1, 2) and
    ln 2 = 2 atanh(1/3), both summed in fixed point at 2^(k+g), then rounded
    out to 2^k.
    """
    p, q = y.numerator, y.denominator
    if p <= 0:
        raise ValueError("log of nonpositive value")
    e = p.bit_length() - q.bit_length()
    if e >= 0:
        q <<= e
    else:
        p <<= -e
    if p < q:
        p <<= 1
        e -= 1
    g = ((k + 64) * (abs(e) + 1)).bit_length() + 2
    s, err = _atanh_scaled(p - q, p + q, k + g)
    lo, hi = 2 * s, 2 * (s + err)
    if e:
        s2, err2 = _atanh_scaled(1, 3, k + g)
        lo2, hi2 = 2 * e * s2, 2 * e * (s2 + err2)
        lo, hi = lo + min(lo2, hi2), hi + max(lo2, hi2)
    return lo >> g, -(-hi >> g)
