"""Truly perfect G-sampler for insertion-only streams.

Each of R repetitions keeps a reservoir sample s with its strictly-after
counter c; at draw time repetition accepts with probability
(G(c+1) - G(c)) / zeta, which telescopes so that index i is output with
probability G(f_i)/(zeta m) per repetition, i.e. exactly G(f_i)/F_G
conditioned on success.  Acceptance draws are exact (on integer pairs when
the probability is rational, on scaled-integer brackets when G or zeta is
irrational), never float comparisons.

A draw walks the repetitions in index order and returns the first one that
accepts (accept_and_pick, the one such loop of every sampler), so it runs
about 1/s acceptance tests instead of R, with s the per-repetition success
probability.  That is the same law as a uniform pick
among all accepting repetitions: the repetitions are i.i.d. given the stream
(the units share the bank's one generator, but every skip takes fresh
uniforms from it, and each test draws fresh exact bits), so either way
Pr[out = j] = Pr[accept, sample = j] (1 - (1 - s)^R) / s, and FAIL has
probability (1 - s)^R.  SampleResult.repetition names the first accepting
repetition.

A draw costs its acceptance tests plus O(1).  It reads each repetition's
state c by index from the bank, builds no candidate per repetition, and
builds the SampleResult of the accepted repetition only.  What the draws of
a sampler share is one DrawState, built with the sampler: a single draw
generator, substream(seed, "draws"), that every draw continues, so repeated
draws take fresh bits and no draw seeds a generator.

A rational test runs on integers: zeta is an integer pair (the static zeta
read once, or lp_zeta at Z as a pair), the measure's increment is one
(increment_ratio, memoized per measure), and their quotient, unreduced, is
decided by exactrand.bernoulli_ratio, which draws the bits the reduced
Fraction would.  Such a draw (L_p at integer p, Huber, Tukey, L1 rows)
builds no Fraction and no table.  A test whose probability is irrational (an
irrational zeta, or the increments of L_{1/2}, Fair, L1-L2 and L2 rows)
runs on scaled-integer brackets, and the draws keep an acceptance table of
them, from each distinct state c to its refine, which the next draw keeps
while its zeta is the same (an equal rational, or the same lp_zeta
bracket), since a probability depends on c and zeta alone.  A table holds
at most R entries.

For L_p with p in (1,2] the increment bound is lp_zeta's zeta = p Z^{p-1},
the one rule of every L_p sampler, with Z the deterministic Misra-Gries bound
on the max frequency, read as the pair (E k + m, k) (heavyhitters.z_ratio),
so at p = 2 zeta is (2 (E k + m), k); the sampler builds a summary with
k = ceil(n^{1-1/p}) counters that rides along with the bank.
"""

import functools
import math
from fractions import Fraction
from itertools import repeat

from .core import LpMeasure, SampleResult, UnitUpdates, exponent
from .exactrand import (bernoulli_bounds, bernoulli_ratio, integer_nthroot, pow_scaled, subseed,
                        substream)
from .heavyhitters import MGSummary, mg_budget, z_ratio
from .reservoir import SamplerBank

R_SIZING_CONSTANT = 4
LP_ZETA_MEMO = 64  # (Z, p) pairs whose lp_zeta is kept


def repetitions_for(ratio, delta):
    """ceil(C * ratio * ln(1/delta)) with ratio >= zeta*m/F_G, at least 1.
    Raises ValueError unless 0 < delta < 1."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1), got %r" % (delta,))
    return max(1, math.ceil(R_SIZING_CONSTANT * float(ratio) * math.log(1.0 / delta)))


def accept_increment(measure, c, zeta_exact, zeta_bounds, rng, table=None):
    """Accept with probability exactly (G(c+1) - G(c)) / zeta.

    zeta_exact is a rational zeta, an integer pair (num, den) or a Fraction,
    or None; zeta_bounds(k) supplies integers (lo, hi) with
    0 < lo <= zeta 2^k <= hi when zeta is irrational.  The probability is
    acceptance's: an integer pair, decided by bernoulli_ratio, or a refine
    of scaled-integer brackets, decided by bernoulli_bounds.

    table, an AcceptanceTable of these probabilities for this measure and
    zeta (see DrawState.accept), computes each distinct state c's
    probability once for all the tests that read it; the test itself draws
    the same bits either way.
    """
    q = acceptance(measure, c, zeta_exact, zeta_bounds) if table is None else table[c]
    if q.__class__ is tuple:
        num, den = q
        return bernoulli_ratio(num, den, rng)
    return bernoulli_bounds(q, rng)


def acceptance(measure, c, zeta_exact, zeta_bounds):
    """The probability (G(c+1) - G(c)) / zeta: the integer pair
    (inc_num zeta_den, inc_den zeta_num), unreduced, when both are rational,
    else its refine(k), which keeps each bracket it computes.  The increment
    is the measure's increment_ratio, or its scaled bracket over 2^k; zeta
    likewise.  Dividing the two with integer floor and ceil brackets the
    probability at 2^k.

    zeta must bound the increment.  A rational quotient above 1 raises
    ValueError here, and a bracket whose lower end is above 1 raises it in
    bernoulli_bounds: the test would accept with probability 1 instead, and
    the telescoping law would be biased."""
    inc = measure.increment_ratio(c)
    if zeta_exact is not None:
        if zeta_exact.__class__ is not tuple:
            zeta_exact = zeta_exact.numerator, zeta_exact.denominator
        if inc is not None:
            zn, zd = zeta_exact
            num, den = inc
            num *= zd
            den *= zn
            if num > den:
                raise ValueError("zeta %s is below the increment %s of %s at c = %d"
                                 % (Fraction(zn, zd), Fraction(*inc), measure.name, c))
            return num, den
    return functools.partial(_bracket, measure, c, inc, zeta_exact, zeta_bounds, {})


def _bracket(measure, c, inc, zeta_exact, zeta_bounds, brackets, k):
    """acceptance's refine(k), with the first six arguments bound: the
    increment inc and zeta_exact are integer pairs, or None when
    irrational, and brackets keeps each bracket computed."""
    got = brackets.get(k)
    if got is not None:
        return got
    # increment in [ilo, ihi] / iden and zeta in [zlo, zhi] / zden
    if inc is None:
        ilo, ihi = measure.increment_bounds(c, k)
        iden = 1 << k
    else:
        ilo = ihi = inc[0]
        iden = inc[1]
    if zeta_exact is None:
        zlo, zhi = zeta_bounds(k)
        zden = 1 << k
    else:
        zlo = zhi = zeta_exact[0]
        zden = zeta_exact[1]
    num = zden << k
    got = brackets[k] = ilo * num // (iden * zhi), -(-ihi * num // (iden * zlo))
    return got


@functools.lru_cache(maxsize=LP_ZETA_MEMO)
def lp_zeta(Z, p):
    """zeta = p Z^{p-1}, the one increment bound of every L_p sampler with
    p >= 1: Z >= 1 bounds the largest frequency f that a live repetition's
    state c < f reads, so G(c+1) - G(c) = (c+1)^p - c^p <= p (c+1)^{p-1}
    <= p Z^{p-1}.

    Z is rational, an integer pair (num, den) or a Fraction.  Returned as
    (zeta_exact, None) when zeta is rational, zeta_exact in the form Z came
    in (an unreduced pair for a pair: at integer p it is
    (p num^{p-1}, den^{p-1})), and (None, zeta_bounds) otherwise, the
    arguments that accept_increment takes; zeta_bounds(k) is the
    scaled-integer bracket, computed once per precision k for all the tests
    that read it.  The result is memoized per (Z, p), so the draws at an
    unchanged Z get the same zeta_bounds, and DrawState keeps their
    acceptance table."""
    pair = Z.__class__ is tuple
    zn, zd = Z if pair else (Z.numerator, Z.denominator)
    # p - 1 = e/b in lowest terms, so Z^{p-1} is rational exactly when both
    # zn^e and zd^e are perfect b-th powers.
    a, b = p.numerator, p.denominator
    e = a - b
    rn, n_exact = integer_nthroot(zn ** e, b)
    rd, d_exact = integer_nthroot(zd ** e, b)
    if n_exact and d_exact:
        return ((a * rn, b * rd) if pair else Fraction(a * rn, b * rd)), None
    base, exp = Fraction(zn, zd), p - 1
    memo = {}

    def bounds(k):
        got = memo.get(k)
        if got is None:
            lo, hi = pow_scaled(base, exp, k)
            got = memo[k] = a * lo // b, -(-a * hi // b)
        return got

    return None, bounds


def fraction_zeta(zeta_exact, zeta_bounds):
    """A draw's (zeta_exact, zeta_bounds) with a rational zeta as a
    Fraction, as verify and the reference draws read it."""
    return (None if zeta_exact is None else Fraction(*zeta_exact)), zeta_bounds


class AcceptanceTable(dict):
    """c -> probability(c), each computed on its first lookup.  A lookup that
    misses on a table of limit entries clears it first, so the table never
    holds more than limit."""

    def __init__(self, probability, limit):
        super().__init__()
        self.probability = probability
        self.limit = limit

    def __missing__(self, c):
        if len(self) >= self.limit:
            self.clear()
        q = self[c] = self.probability(c)
        return q


class DrawState:
    """What the draws of one sampler share.

    rng is the generator every draw continues: a sampler's one draw
    generator, substream(seed, "draws"), built with the sampler
    (multipass_lp_draw builds its substream(seed, "accept") per call).  A
    draw's law is that of a fresh generator's, since it takes only bits no
    earlier draw read.

    accept(zeta_exact, zeta_bounds) is a draw's exact increment test.  When
    zeta is rational and so is every increment of the measure
    (measure.rational_increments), each test computes its integer pair
    afresh, a few multiplications, and no table is built.  Otherwise the
    tests read table, from each distinct state c to its probability: the
    last draw's while zeta is the same (an equal rational, or the same
    bounds function, which lp_zeta returns once per (Z, p)), a new one
    otherwise, holding at most limit entries (a sampler's R).
    """

    def __init__(self, rng, limit, measure=None):
        self.rng = rng
        self.limit = limit
        self.measure = measure
        self.key = self.table = None

    def accept(self, zeta_exact, zeta_bounds):
        """accept(c), the test (G(c+1) - G(c))/zeta on the draw generator."""
        measure, rng = self.measure, self.rng
        table = None
        if zeta_bounds is not None or not measure.rational_increments:
            key = zeta_exact, zeta_bounds
            if self.table is None or key != self.key:
                self.key, self.table = key, AcceptanceTable(
                    lambda c: acceptance(measure, c, zeta_exact, zeta_bounds), self.limit)
            table = self.table
        return lambda c: accept_increment(measure, c, zeta_exact, zeta_bounds, rng, table)


def accept_and_pick(R, state, accept):
    """(i, state(i)) for the first repetition i < R, in index order, whose
    state(i) is not None and whose exact test accept(state(i)) passes; None
    when none does.

    state(i) reads repetition i's acceptance state from the sampler (None
    when the repetition holds no live sample), so no later repetition is
    read or tested.  For i.i.d. repetitions this is the law of a uniform
    pick among all accepting ones (see the module docstring).  This is the
    one accept-and-pick loop of every sampler.
    """
    for i in range(R):
        c = state(i)
        if c is not None and accept(c):
            return i, c
    return None


def first_accepted(candidates, accept):
    """The result of the first of candidates, (result, *args) tuples in
    index order, whose test accept(*args) passes, or None: accept_and_pick
    over candidates built in advance, as the reference draws of the tests
    build them."""
    candidates = list(candidates)
    hit = accept_and_pick(len(candidates), lambda i: candidates[i][1:], lambda a: accept(*a))
    return None if hit is None else candidates[hit[0]][0]


def repetition_result(hit, index):
    """The SampleResult of the repetition accept_and_pick returned, whose
    sampled index is index(i); FAIL for None.  Draws build a result for the
    accepted repetition only."""
    if hit is None:
        return SampleResult.fail()
    return SampleResult.of(index(hit[0]), repetition=hit[0])


class GSampler(UnitUpdates):
    """measure + SamplerBank; zeta is the measure's static zeta, or, for L_p
    with p > 1, lp_zeta's p Z^{p-1} with Z read from Misra-Gries."""

    def __init__(self, measure, n, m, delta=0.1, seed=0, repetitions=None):
        self.measure = measure
        self.n = n
        self.m_planned = m
        self.delta = delta
        self.seed = seed
        self.p = measure.p if isinstance(measure, LpMeasure) else None
        self.zeta = measure.zeta  # None means Z-derived at draw time
        self.mg = None
        if self.zeta is None:
            if self.p is None:
                raise ValueError("%s has no static zeta, and only L_p derives one "
                                 "from a Misra-Gries summary" % measure.name)
            self.mg = MGSummary(mg_budget(self.p, n))

        if repetitions is None:
            repetitions = self._default_repetitions()
        self.bank = SamplerBank(repetitions, subseed(seed, "bank"))
        self.draw_state = DrawState(substream(seed, "draws"), repetitions, measure)

    def _default_repetitions(self):
        m, delta = self.m_planned, self.delta
        if self.zeta is None:
            # L_p, p in (1,2]: zeta = p Z^{p-1} <= 2 Z^{p-1}, so per-repetition
            # success >= 1/(4 n^{1-1/p}).
            p = float(self.p)
            return repetitions_for(self.n ** (1.0 - 1.0 / p), delta)
        if m == 0:
            return 1
        fg = self.measure.fg_lower_bound(m)
        if fg <= 0:
            raise ValueError("measure gives a zero F_G lower bound")
        return repetitions_for(self.zeta * m / fg, delta)

    @property
    def R(self):
        return self.bank.R

    def ingest(self, coords):
        self.bank.extend(coords)
        if self.mg is not None:
            self.mg.extend(zip(coords, repeat(1)))

    def _draw_zeta(self):
        """(zeta_exact or None, zeta_bounds or None) of a draw now, a
        rational zeta as an integer pair: the static one, or lp_zeta at the
        Misra-Gries Z as a pair (z_ratio)."""
        if self.zeta is not None:
            return (self.zeta.numerator, self.zeta.denominator), None
        return lp_zeta(z_ratio(self.mg), self.p)

    def _zeta_at_draw(self):
        return fraction_zeta(*self._draw_zeta())

    def draw(self):
        bank = self.bank
        if bank.r_seen == 0:
            return SampleResult.bottom()
        effective = bank.effective

        def state(i):
            s, _, c = effective(i)
            return None if s is None else c

        hit = accept_and_pick(self.R, state, self.draw_state.accept(*self._draw_zeta()))
        return repetition_result(hit, bank.unit_s.__getitem__)


def lp_sampler(p, n, m, delta=0.1, seed=0, repetitions=None):
    """Configured L_p sampler for p in (0, 2]."""
    p = exponent(p)
    if not (0 < p <= 2):
        raise ValueError("insertion-only L_p sampling needs p in (0, 2]")
    if p == 1:
        # Plain reservoir sampling: acceptance is identically 1.
        repetitions = repetitions or 1
    return GSampler(LpMeasure(p), n, m, delta, seed, repetitions=repetitions)
