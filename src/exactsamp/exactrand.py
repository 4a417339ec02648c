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
  decidable; no Fraction enters that loop;
* the binomial: Bin(M, q) for a rational q.  A mean up to 32 inverts the
  CDF against a uniform extended in 64-bit words, the CDF bracketed in
  fixed point (pow_fixed for (1 - q)^M, then the pmf recurrence rounded
  both ways); a larger one is drawn by rejection from a staircase hat
  around the mode, each proposal kept by comparing ln u with the log pmf
  ratio, bracketed from log_scaled and Stirling's series for ln n!, so its
  cost does not grow with the mean;
* uniform_subset: K distinct picks from range(N), for N past sys.maxsize
  too, so BlockLpSampler's insert counts and harvest cuts are exact.

oracle.enumerate_law swaps these primitives for forks at their exact laws,
so it can run the shipped samplers over every branch of their choices.

Substream seeds are 128-bit BLAKE2b digests of repr((seed, ids)).  blake2b
is taken from _blake2, the module hashlib takes it from (as random takes
its sha512 from _sha512), so the import loads no OpenSSL; the digests are
hashlib.blake2b's.

The scaled-integer cores give such brackets: root_scaled and pow_scaled for
x**(1/n) and base**exp with one integer root, log_scaled for ln(y) by a
fixed-point series.  root_bounds and pow_bounds are the rational forms of the
first two, for callers off the draw path.
"""

import functools
import math
import random
from fractions import Fraction

try:
    # hashlib's own blake2b, without the OpenSSL module hashlib loads
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b


def _digest(seed, ids):
    payload = repr((int(seed), ids)).encode()
    return blake2b(payload, digest_size=16).digest()


def substream(seed, *ids):
    """A random.Random whose state depends only on (seed, ids)."""
    return random.Random(int.from_bytes(_digest(seed, ids), "big"))


def subseed(seed, *ids):
    """The 64-bit seed of a part's own substreams: the first 64 bits of
    substream(seed, *ids), a function of (seed, ids) alone rather than a
    random draw."""
    return random.Random(int.from_bytes(_digest(seed, ids), "big")).getrandbits(64)


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


POW_FIXED_MEMO = 4096  # (c, b, t, k) brackets kept; the block sampler repeats its t


@functools.lru_cache(maxsize=POW_FIXED_MEMO)
def pow_fixed(c, b, t, k):
    """Integers (lo, hi) with lo <= (c/b)^t 2^k <= hi and hi - lo <= 2, for
    integers 0 <= c <= b, b >= 1 and t >= 0.

    Square-and-multiply in fixed point at 2^(k+g), every product rounded down
    for lo and up for hi, then rounded out to 2^k, so lo and hi bracket the
    power at any precision.  Rounding adds one unit per product and squaring
    about doubles the error carried, so after t.bit_length() - 1 squarings
    the error is below about 2^(t.bit_length() + 1) units, which
    g = t.bit_length() + 3 guard bits bring under a quarter unit at 2^k.
    """
    if t == 0:
        return 1 << k, 1 << k
    g = t.bit_length() + 3
    P = k + g
    lo, hi = (c << P) // b, -(-(c << P) // b)
    for bit in bin(t)[3:]:
        lo, hi = lo * lo >> P, -(-(hi * hi) >> P)
        if bit == "1":
            lo, hi = lo * c // b, -(-(hi * c) // b)
    return lo >> g, -(-hi >> g)


INVERSION_MEAN_MAX = 32  # a larger mean M q is drawn by rejection
EXACT_SPAN = 64  # n!/m! for n - m up to this, and m! below it, is multiplied out


def binomial(M, q, rng):
    """Bin(M, q) exactly, for an integer M >= 0 and a Fraction q in [0, 1].
    For q > 1/2 it returns M - Bin(M, 1 - q).  A mean M q up to
    INVERSION_MEAN_MAX is drawn by _inverted, a larger one by _rejected,
    whose cost does not grow with the mean.  Only rng.getrandbits and
    rng.randrange are drawn, and no float decides the output."""
    a, b = q.numerator, q.denominator
    if a == 0 or M == 0:
        return 0
    if a == b:
        return M
    if 2 * a > b:
        return M - binomial(M, Fraction(b - a, b), rng)
    if M * a <= INVERSION_MEAN_MAX * b:
        return _inverted(M, a, b, rng)
    return _rejected(M, a, b, rng)


def _inverted(M, a, b, rng):
    """Bin(M, a/b) for 0 < a/b <= 1/2, by inverting the CDF against one
    uniform u (BINV, Kachitvichyanukul and Schmeiser, CACM 1988) in exact
    arithmetic.

    u is known as a prefix of 64-bit words, u in [U, U+1) 2^-k.  At scale 2^k
    pmf(0) = (1-q)^M is bracketed by pow_fixed, and pmf(j+1) =
    pmf(j) (M-j) q / ((j+1)(1-q)) is rounded down for the lower bracket and
    up for the upper one; the CDF brackets are their running sums.  The walk
    passes F(j) when its upper bracket is <= U and returns j when U + 1 is
    <= its lower bracket, so F(j-1) <= u < F(j) for every u of the prefix.
    When a boundary falls inside the prefix it takes another word and walks
    again.  The walk takes about M q steps, so binomial keeps it to means
    of at most INVERSION_MEAN_MAX.
    """
    c = b - a
    U, k = rng.getrandbits(64), 64
    while True:
        lo, hi = pow_fixed(c, b, M, k)
        F_lo = F_hi = j = 0
        while True:
            F_lo += lo
            F_hi += hi
            if j == M or U + 1 <= F_lo:
                return j
            if F_hi > U:
                break
            lo = lo * (M - j) * a // ((j + 1) * c)
            hi = -(-hi * (M - j) * a // ((j + 1) * c))
            j += 1
        U, k = U << 64 | rng.getrandbits(64), k + 64


def _rejected(M, a, b, rng):
    """Bin(M, a/b) for 0 < a/b <= 1/2, by rejection from a staircase hat
    whose steps halve.

    With f the pmf and m = floor((M+1) a/b) its mode, f is log-concave, so
    once f(m + s) <= f(m)/2, f(m + k) <= f(m) 2^-floor(k/s) for k >= 0, and
    once f(m - s') <= f(m)/2, f(m - k) <= f(m) 2^-floor((k-1)/s') for
    k >= 1 (_halving_step finds s and s').  A proposal takes an offset i
    uniform among the s + s' of a step and a step t with Pr[t] = 2^-(t+1),
    so X has probability 2^-(t+1)/(s + s'), and keeps it with probability
    f(X) 2^t / f(m) <= 1 (_below_pmf_ratio).  About half the proposals are
    kept, and each costs a few fixed-point logarithms, whatever the mean.
    """
    c = b - a
    m = (M + 1) * a // b
    right, left = _halving_step(M, a, c, m, 1), _halving_step(M, a, c, m, -1)
    while True:
        i = rng.randrange(right + left)
        t = 0
        while rng.getrandbits(1):
            t += 1
        X = m + t * right + i if i < right else m - 1 - t * left - (i - right)
        if 0 <= X <= M and _below_pmf_ratio(M, a, c, m, X, t, rng):
            return X


@functools.lru_cache(maxsize=POW_FIXED_MEMO)
def _halving_step(M, a, c, m, side):
    """A step s >= 1 with f(m + side s) <= f(m)/2, or m + side s outside
    [0, M], for f the pmf of Bin(M, a/(a+c)) and m its mode: from about 1.22
    standard deviations, where a normal law falls to half its peak, grown by
    a quarter until the bracket at 2^32 shows it."""
    s = math.isqrt(3 * M * a * c // (2 * (a + c) ** 2)) + 1
    half = -log_scaled(2, 32)[1]
    while True:
        X = m + side * s
        if not 0 <= X <= M or _log_pmf_ratio(M, a, c, m, X, 32)[1] <= half:
            return s
        s += s // 4 + 1


def _below_pmf_ratio(M, a, c, m, X, t, rng):
    """True with probability exactly f(X) 2^t / f(m), at most 1.

    That is u < f(X) 2^t / f(m) for a uniform u, known as a prefix of 64-bit
    words, u in [U, U+1) 2^-k, decided in logarithms against
    D = ln(f(X)/f(m)) + t ln 2, bracketed at 2^k: true when
    ln((U+1) 2^-k) <= D, false when ln(U 2^-k) >= D, and otherwise another
    word and 64 more bits of precision.  ln y <= y - 1 and ln y >= 1 - 1/y
    settle most draws before log_scaled is needed.
    """
    U, k = rng.getrandbits(64), 64
    g = t.bit_length()
    while True:
        lo, hi = _log_pmf_ratio(M, a, c, m, X, k)
        ln2_lo, ln2_hi = log_scaled(2, k + g)
        lo, hi = lo + (t * ln2_lo >> g), hi - (-t * ln2_hi >> g)
        one = 1 << k
        if U + 1 - one <= lo or log_scaled(Fraction(U + 1, one), k)[1] <= lo:
            return True
        if U and (one + (-one * one // U) >= hi or log_scaled(Fraction(U, one), k)[0] >= hi):
            return False
        U, k = U << 64 | rng.getrandbits(64), k + 64


def _log_pmf_ratio(M, a, c, m, X, k):
    """Integers (lo, hi) with lo <= ln(f(X)/f(m)) 2^k <= hi, for f the pmf of
    Bin(M, a/(a+c)).

    With i < j the two of X and m, f(j)/f(i) = (M-i)!/(M-j)! i!/j! (a/c)^(j-i):
    multiplied out when j - i <= EXACT_SPAN, and otherwise its logarithm
    summed from _log_falling and ln(a/c), with 4 guard bits.
    """
    i, j = min(X, m), max(X, m)
    if j - i <= EXACT_SPAN:
        num = den = 1
        for x in range(i, j):
            num *= (M - x) * a
            den *= (x + 1) * c
        lo, hi = log_scaled(Fraction(num, den), k)
    else:
        P, g = k + 4, (j - i).bit_length()
        odds_lo, odds_hi = log_scaled(Fraction(a, c), P + g)
        up_lo, up_hi = _log_falling(M - i, M - j, P)
        down_lo, down_hi = _log_falling(j, i, P)
        lo = up_lo - down_hi + ((j - i) * odds_lo >> g)
        hi = up_hi - down_lo - (-(j - i) * odds_hi >> g)
        lo, hi = lo >> 4, -(-hi >> 4)
    return (lo, hi) if X >= m else (-hi, -lo)


def _log_falling(n, m, P):
    """Integers (lo, hi) with lo <= ln(n!/m!) 2^P <= hi, for
    n - m > EXACT_SPAN: the factors below EXACT_SPAN multiplied out, the
    rest a difference of _stirling brackets, whose ln(2 pi)/2 cancels.
    Past the precision Stirling's series reaches at n, all of it is
    multiplied out."""
    mid = max(m, EXACT_SPAN)
    top, bottom = _stirling(n, P), _stirling(mid, P)
    if top is None or bottom is None:
        return log_scaled(math.prod(range(m + 1, n + 1)), P)
    lo, hi = log_scaled(math.perm(mid, mid - m), P)  # mid!/m!
    return lo + top[0] - bottom[1], hi + top[1] - bottom[0]


@functools.lru_cache(maxsize=POW_FIXED_MEMO)
def _stirling(n, P):
    """Integers (lo, hi) with lo <= (ln n! - ln(2 pi)/2) 2^P <= hi, for an
    integer n >= 1, or None when Stirling's series cannot reach 2^-P at n.

    ln n! = (n + 1/2) ln n - n + ln(2 pi)/2
            + sum_{j <= J} B_2j / (2j (2j-1) n^(2j-1)) + R_J,
    and R_J, the remainder of the series for ln Gamma(n), is smaller than
    the first term left out (DLMF 5.11.ii), so J stops at the first term
    below 2^-P.  ln n comes from log_scaled with guard bits for the factor
    n + 1/2.
    """
    g = (2 * n + 1).bit_length() + 1
    ln_lo, ln_hi = log_scaled(n, P + g)
    lo = ((2 * n + 1) * ln_lo >> (g + 1)) - (n << P)
    hi = -(-(2 * n + 1) * ln_hi >> (g + 1)) - (n << P)
    series, last, j = Fraction(0), None, 1
    while True:
        term = _bernoulli(2 * j) / (2 * j * (2 * j - 1) * n ** (2 * j - 1))
        if abs(term.numerator) << P <= term.denominator:
            break
        if last is not None and abs(term) >= abs(last):
            return None
        series, last, j = series + term, term, j + 1
    scaled = series.numerator << P
    return lo + scaled // series.denominator - 1, hi - (-scaled // series.denominator) + 1


@functools.lru_cache(maxsize=None)
def _bernoulli(n):
    """The Bernoulli number B_n (B_1 = -1/2), from
    sum_{i <= n} C(n+1, i) B_i = 0."""
    if n == 0:
        return Fraction(1)
    return -sum(math.comb(n + 1, i) * _bernoulli(i) for i in range(n)) / (n + 1)


def uniform_subset(N, K, rng):
    """A uniformly random K-subset of range(N), for 0 <= K <= N, by Floyd's
    algorithm (Bentley and Floyd, CACM 1987): for top = N-K+1 .. N, a
    uniform pick below top, or top - 1 when the pick is already in.  Each
    pick is getrandbits(top.bit_length()) until it falls below top, and
    range(N) is never measured, so N may exceed sys.maxsize."""
    picked = set()
    getrandbits = rng.getrandbits
    for top in range(N - K + 1, N + 1):
        bits = top.bit_length()
        pick = getrandbits(bits)
        while pick >= top:
            pick = getrandbits(bits)
        picked.add(top - 1 if pick in picked else pick)
    return picked


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
    wider than [lo, hi], and doubles k otherwise.  A lower end above 2^k,
    a q that is certainly above 1, raises ValueError.
    """
    k = start_prec
    lo, hi = refine(k)
    U = j = 0
    while True:
        s = k - j
        if (U + 1) << s <= lo:  # always taken at once when lo > 2^k
            if lo > 1 << k:
                raise ValueError("a probability bracket [%d, %d] / 2^%d lies above 1"
                                 % (lo, hi, k))
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
