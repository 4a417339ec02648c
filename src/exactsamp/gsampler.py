"""Truly perfect G-sampler for insertion-only streams.

Each of R repetitions keeps a reservoir sample s with its strictly-after
counter c; at draw time repetition accepts with probability
(G(c+1) - G(c)) / zeta, which telescopes so that index i is output with
probability G(f_i)/(zeta m) per repetition, i.e. exactly G(f_i)/F_G
conditioned on success.  Acceptance draws are exact (rational, or on
scaled-integer brackets when G or zeta is irrational), never float
comparisons.

A draw walks the repetitions in index order and returns the first one that
accepts, so it runs about 1/s acceptance tests instead of R, with s the
per-repetition success probability.  That is the same law as a uniform pick
among all accepting repetitions: the repetitions are i.i.d. given the stream
(the units share the bank's one generator, but every skip takes fresh
uniforms from it, and each test draws fresh exact bits), so either way
Pr[out = j] = Pr[accept, sample = j] (1 - (1 - s)^R) / s, and FAIL has
probability (1 - s)^R.  SampleResult.repetition names the first accepting
repetition.

A draw costs its acceptance tests plus O(1).  What the draws of a sampler
share is one DrawState, built with the sampler: a single draw generator,
substream(seed, "draws"), that every draw continues, so repeated draws take
fresh bits and no draw seeds a generator; and the acceptance table, from
each distinct state c to its probability (see acceptance), which the next
draw keeps while its zeta is the same (an equal exact rational, or the same
lp_zeta bracket), since a probability depends on c and zeta alone.  A table
holds at most R entries.  A draw builds the SampleResult of the accepted
repetition only.

For L_p with p in (1,2] the increment bound is lp_zeta's zeta = p Z^{p-1},
the one rule of every L_p sampler, with Z the deterministic Misra-Gries bound
on the max frequency; the sampler builds a summary with k = ceil(n^{1-1/p})
counters that rides along with the bank.
"""

import functools
import math
from itertools import repeat

from .core import LpMeasure, SampleResult, UnitUpdates, exponent
from .exactrand import (bernoulli_bounds, bernoulli_fraction, pow_exact, pow_scaled, subseed,
                        substream)
from .heavyhitters import MGSummary, mg_budget, z_bound
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

    zeta_exact is a Fraction or None; zeta_bounds(k) supplies integers
    (lo, hi) with 0 < lo <= zeta 2^k <= hi when zeta is irrational.  The
    increment is the exact rational a/b when the measure has one and its
    scaled bracket over b = 2^k otherwise; zeta likewise.  Dividing the two
    with integer floor and ceil brackets the acceptance probability at 2^k.

    table, an AcceptanceTable of these probabilities for this measure and
    zeta (see DrawState.accept), computes each distinct state c's
    probability once for all the tests that read it; the test itself draws
    the same bits either way.
    """
    q = acceptance(measure, c, zeta_exact, zeta_bounds) if table is None else table[c]
    if callable(q):
        return bernoulli_bounds(q, rng)
    return bernoulli_fraction(q, rng)


def acceptance(measure, c, zeta_exact, zeta_bounds):
    """The probability (G(c+1) - G(c)) / zeta: the quotient when it is
    rational, else its refine(k), which keeps each bracket it computes.

    zeta must bound the increment.  A rational quotient above 1 raises
    ValueError here, and a bracket whose lower end is above 1 raises it in
    bernoulli_bounds: the test would accept with probability 1 instead, and
    the telescoping law would be biased."""
    inc = measure.increment_exact(c)
    if inc is not None and zeta_exact is not None:
        q = inc / zeta_exact
        if q.numerator > q.denominator:
            raise ValueError("zeta %s is below the increment %s of %s at c = %d"
                             % (zeta_exact, inc, measure.name, c))
        return q
    brackets = {}

    def refine(k):
        got = brackets.get(k)
        if got is not None:
            return got
        # increment in [ilo, ihi] / iden and zeta in [zlo, zhi] / zden
        if inc is None:
            ilo, ihi = measure.increment_bounds(c, k)
            iden = 1 << k
        else:
            ilo = ihi = inc.numerator
            iden = inc.denominator
        if zeta_exact is None:
            zlo, zhi = zeta_bounds(k)
            zden = 1 << k
        else:
            zlo = zhi = zeta_exact.numerator
            zden = zeta_exact.denominator
        num = zden << k
        got = brackets[k] = ilo * num // (iden * zhi), -(-ihi * num // (iden * zlo))
        return got

    return refine


@functools.lru_cache(maxsize=LP_ZETA_MEMO)
def lp_zeta(Z, p):
    """zeta = p Z^{p-1}, the one increment bound of every L_p sampler with
    p >= 1: Z >= 1 bounds the largest frequency f that a live repetition's
    state c < f reads, so G(c+1) - G(c) = (c+1)^p - c^p <= p (c+1)^{p-1}
    <= p Z^{p-1}.  Returned as (zeta_exact, None) when it is rational and
    (None, zeta_bounds) otherwise, the arguments that accept_increment takes;
    zeta_bounds(k) is the scaled-integer bracket, computed once per
    precision k for all the tests that read it.  The result is memoized per
    (Z, p), so the draws at an unchanged Z get the same zeta_bounds, and
    DrawState keeps their acceptance table."""
    exact = pow_exact(Z, p - 1)
    if exact is not None:
        return p * exact, None
    a, b = p.numerator, p.denominator
    memo = {}

    def bounds(k):
        got = memo.get(k)
        if got is None:
            lo, hi = pow_scaled(Z, p - 1, k)
            got = memo[k] = a * lo // b, -(-a * hi // b)
        return got

    return None, bounds


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

    rng is the sampler's one draw generator, substream(seed, "draws"), built
    with the sampler; every draw continues it.  A draw's law is that of a
    fresh generator's, since it takes only bits no earlier draw read.
    table_at(key, probability) is the acceptance table of a draw whose
    probabilities are probability(c) and depend on key besides c: the last
    draw's table while key is equal, a new one otherwise.  Tables hold at
    most limit entries (a sampler's R).
    """

    def __init__(self, seed, limit, measure=None):
        self.rng = substream(seed, "draws")
        self.limit = limit
        self.measure = measure
        self.key = self.table = None

    def table_at(self, key, probability):
        if self.table is None or key != self.key:
            self.key, self.table = key, AcceptanceTable(probability, self.limit)
        return self.table

    def accept(self, zeta_exact, zeta_bounds):
        """accept(c), the exact increment test of a draw at zeta, on the
        draw generator and the table c -> (G(c+1) - G(c))/zeta of the measure
        (acceptance).  The table is kept across draws while zeta is an equal
        exact rational, or, when it is irrational, the same bounds function
        (lp_zeta returns one per (Z, p))."""
        measure, rng = self.measure, self.rng
        table = self.table_at((zeta_exact, zeta_bounds),
                              lambda c: acceptance(measure, c, zeta_exact, zeta_bounds))
        return lambda c: accept_increment(measure, c, zeta_exact, zeta_bounds, rng, table)


def first_accepted(candidates, accept):
    """The result of the first candidate whose acceptance test passes, or
    None when none does.

    candidates lazily yields (result, *args), one per live repetition in
    index order, and accept(*args) runs that repetition's exact test; later
    repetitions are neither built nor tested.  For i.i.d. repetitions this is
    the law of a uniform pick among all accepting ones (see the module
    docstring).
    """
    for result, *args in candidates:
        if accept(*args):
            return result
    return None


def repetition_result(hit):
    """The SampleResult of a (repetition, index) that first_accepted returned,
    FAIL for None: draws build a result for the accepted repetition only."""
    if hit is None:
        return SampleResult.fail()
    return SampleResult.of(hit[1], repetition=hit[0])


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
        self.draw_state = DrawState(seed, repetitions, measure)

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

    def _zeta_at_draw(self):
        """(zeta_exact or None, zeta_bounds or None)."""
        if self.zeta is not None:
            return self.zeta, None
        return lp_zeta(z_bound(self.mg, self.p, self.n), self.p)

    def draw(self):
        if self.bank.r_seen == 0:
            return SampleResult.bottom()
        accept = self.draw_state.accept(*self._zeta_at_draw())
        live = (((i, s), c)
                for i, (s, _, c) in enumerate(map(self.bank.effective, range(self.R)))
                if s is not None)
        return repetition_result(first_accepted(live, accept))


def lp_sampler(p, n, m, delta=0.1, seed=0, repetitions=None):
    """Configured L_p sampler for p in (0, 2]."""
    p = exponent(p)
    if not (0 < p <= 2):
        raise ValueError("insertion-only L_p sampling needs p in (0, 2]")
    if p == 1:
        # Plain reservoir sampling: acceptance is identically 1.
        repetitions = repetitions or 1
    return GSampler(LpMeasure(p), n, m, delta, seed, repetitions=repetitions)
