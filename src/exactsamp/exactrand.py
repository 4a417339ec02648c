"""Seeded randomness and exact Bernoulli draws.

Two things live here:

* substream derivation, so every repetition / unit / trial gets its own
  deterministic generator from one 64-bit seed, and
* Bernoulli draws whose success probability is honored exactly: the
  probability is compared bit-by-bit against a lazily extended uniform
  bitstream, so no float rounding ever enters an output distribution.
  Irrational probabilities are supported through nested rational bounds
  refined until the comparison is decidable.
"""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np


def _digest(seed, ids):
    payload = repr((int(seed), ids)).encode()
    return hashlib.blake2b(payload, digest_size=16).digest()


def substream(seed, *ids):
    """A random.Random whose state depends only on (seed, ids)."""
    return random.Random(int.from_bytes(_digest(seed, ids), "big"))


def np_substream(seed, *ids):
    """A numpy Generator derived the same way (for bulk harness work)."""
    raw = _digest(seed, ids)
    key = int.from_bytes(raw[:8], "big")
    return np.random.Generator(np.random.Philox(key=key))


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
    if q <= 0:
        return False
    if q >= 1:
        return True
    num, den = q.numerator, q.denominator
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
    refine(prec) -> (lo, hi) with lo <= q <= hi and hi - lo -> 0.
    """
    lo, hi = refine(start_prec)
    if hi <= 0:
        return False
    if lo >= 1:
        return True
    u_lo = Fraction(0)
    width = Fraction(1)
    prec = start_prec
    while True:
        if u_lo + width <= lo:
            return True
        if u_lo >= hi:
            return False
        if width > hi - lo:
            width /= 2
            if rng.getrandbits(1):
                u_lo += width
        else:
            prec *= 2
            lo, hi = refine(prec)


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


def root_bounds(x, n, prec):
    """Rational (lo, hi) with lo <= x**(1/n) <= hi and hi - lo <= 2**-prec.

    x is a nonnegative Fraction, n a positive integer.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    p, q = x.numerator, x.denominator
    # x**(1/n) = (p * q**(n-1))**(1/n) / q
    m = p * q ** (n - 1)
    scale = 1 << prec
    r, exact = integer_nthroot(m * scale ** n, n)
    lo = Fraction(r, scale * q)
    if exact:
        return lo, lo
    return lo, Fraction(r + 1, scale * q)


def pow_bounds(base, exp, prec):
    """Rational bounds on base**exp for Fraction base >= 0, Fraction exp >= 0."""
    base = Fraction(base)
    exp = Fraction(exp)
    if base < 0 or exp < 0:
        raise ValueError("pow_bounds needs nonnegative base and exponent")
    if base == 0:
        one = Fraction(1)
        return (one, one) if exp == 0 else (Fraction(0), Fraction(0))
    a, b = exp.numerator, exp.denominator
    powed = base ** a
    if b == 1:
        return powed, powed
    return root_bounds(powed, b, prec)


def pow_exact(base, exp):
    """base**exp as a Fraction, or None when irrational."""
    base = Fraction(base)
    exp = Fraction(exp)
    if base == 0:
        return Fraction(1) if exp == 0 else Fraction(0)
    a, b = exp.numerator, exp.denominator
    powed = base ** a
    if b == 1:
        return powed
    pr, p_exact = integer_nthroot(powed.numerator, b)
    qr, q_exact = integer_nthroot(powed.denominator, b)
    if p_exact and q_exact:
        return Fraction(pr, qr)
    return None


def log_bounds(y, prec):
    """Rational bounds on ln(y) for Fraction y > 0, width <= 2**-prec.

    Uses ln(y) = 2*atanh(z), z = (y-1)/(y+1), whose tail after the k-th term
    is bounded by z**(2k+3)/((2k+3)(1-z**2)) * 2.
    """
    y = Fraction(y)
    if y <= 0:
        raise ValueError("log of nonpositive value")
    if y == 1:
        return Fraction(0), Fraction(0)
    if y < 1:
        lo, hi = log_bounds(1 / y, prec)
        return -hi, -lo
    if y > 2:
        # Range-reduce by powers of two; the series below converges slowly
        # for large arguments.
        k = 0
        while y > 2:
            y /= 2
            k += 1
        l2lo, l2hi = log_bounds(Fraction(2), prec + k.bit_length() + 1)
        ylo, yhi = log_bounds(y, prec + 1)
        return k * l2lo + ylo, k * l2hi + yhi
    z = (y - 1) / (y + 1)
    z2 = z * z
    tol = Fraction(1, 1 << (prec + 1))
    total = Fraction(0)
    term = z
    k = 0
    while True:
        total += term / (2 * k + 1)
        term *= z2
        k += 1
        tail = term / ((2 * k + 1) * (1 - z2))
        if 2 * tail <= tol:
            lo = 2 * total
            return lo, lo + 2 * tail
