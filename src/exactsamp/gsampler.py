"""Truly perfect G-sampler for insertion-only streams.

Each of R repetitions keeps a reservoir sample s with its strictly-after
counter c; at draw time repetition accepts with probability
(G(c+1) - G(c)) / zeta, which telescopes so that index i is output with
probability G(f_i)/(zeta m) per repetition, i.e. exactly G(f_i)/F_G
conditioned on success.  Acceptance draws are exact (rational, or on
scaled-integer brackets when G or zeta is irrational), never float
comparisons.  Draw number k of a sampler takes substream(seed, "draw", k).

A draw walks the repetitions in index order and returns the first one that
accepts, so it runs about 1/s acceptance tests instead of R, with s the
per-repetition success probability.  That is the same law as a uniform pick
among all accepting repetitions: the repetitions are i.i.d. given the stream
(the units share the bank's one generator, but every skip takes fresh
uniforms from it, and each test draws fresh exact bits), so either way
Pr[out = j] = Pr[accept, sample = j] (1 - (1 - s)^R) / s, and FAIL has
probability (1 - s)^R.  SampleResult.repetition names the first accepting
repetition.

A draw costs its acceptance tests plus O(1): it keeps one table per draw,
from each distinct state c to its acceptance probability (see acceptance),
and builds the SampleResult of the accepted repetition only.

For L_p with p in (1,2] the increment bound is zeta = 2 Z^{p-1} with Z the
deterministic Misra-Gries bound on the max frequency; the sampler builds a
summary with k = ceil(n^{1-1/p}) counters that rides along with the bank.
"""

import math
from fractions import Fraction

from .core import SampleResult, UnitUpdates, exponent
from .exactrand import (bernoulli_bounds, bernoulli_fraction, pow_exact, pow_scaled, subseed,
                        substream)
from .heavyhitters import MGSummary, mg_budget, z_bound
from .reservoir import SamplerBank

R_SIZING_CONSTANT = 4


def repetitions_for(ratio, delta):
    """ceil(C * ratio * ln(1/delta)) with ratio >= zeta*m/F_G."""
    return max(1, math.ceil(R_SIZING_CONSTANT * float(ratio) * math.log(1.0 / delta)))


def accept_increment(measure, c, zeta_exact, zeta_bounds, rng, table=None):
    """Accept with probability exactly (G(c+1) - G(c)) / zeta.

    zeta_exact is a Fraction or None; zeta_bounds(k) supplies integers
    (lo, hi) with 0 < lo <= zeta 2^k <= hi when zeta is irrational.  The
    increment is the exact rational a/b when the measure has one and its
    scaled bracket over b = 2^k otherwise; zeta likewise.  Dividing the two
    with integer floor and ceil brackets the acceptance probability at 2^k.

    table, a dict that one draw passes to each of its calls, keeps every
    distinct state c's probability (see acceptance), so a draw computes it
    once per c; the test itself draws the same bits either way.
    """
    if table is None:
        q = acceptance(measure, c, zeta_exact, zeta_bounds)
    else:
        q = table.get(c)
        if q is None:
            q = table[c] = acceptance(measure, c, zeta_exact, zeta_bounds)
    if callable(q):
        return bernoulli_bounds(q, rng)
    return bernoulli_fraction(q, rng)


def acceptance(measure, c, zeta_exact, zeta_bounds):
    """The probability (G(c+1) - G(c)) / zeta: the quotient when it is
    rational, else its refine(k), which keeps each bracket it computes."""
    inc = measure.increment_exact(c)
    if inc is not None and zeta_exact is not None:
        return inc / zeta_exact
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


def lp_zeta(Z, p):
    """zeta = 2 Z^{p-1} for L_p, p in (1,2], as (zeta_exact, None) when it is
    rational and (None, zeta_bounds) otherwise, the arguments that
    accept_increment takes; zeta_bounds(k) is the scaled-integer bracket."""
    exact = pow_exact(Z, p - 1)
    if exact is not None:
        return 2 * exact, None

    def bounds(k):
        lo, hi = pow_scaled(Z, p - 1, k)
        return 2 * lo, 2 * hi

    return None, bounds


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
    """measure + SamplerBank; zeta static, or Z-derived when p in (1,2]."""

    def __init__(self, measure, n, m, delta=0.1, seed=0, zeta=None,
                 repetitions=None, p=None):
        self.measure = measure
        self.n = n
        self.m_planned = m
        self.delta = delta
        self.seed = seed
        self.p = exponent(p) if p is not None else None
        self.mg = None
        self.draws = 0

        if zeta is not None:
            zeta = Fraction(zeta)
        elif measure.zeta is not None:
            zeta = measure.zeta
        self.zeta = zeta  # None means Z-derived at draw time
        if zeta is None:
            if self.p is None:
                raise ValueError("%s has no static zeta: pass p so that zeta = 2 Z^{p-1} "
                                 "can be derived from a Misra-Gries summary" % measure.name)
            self.mg = MGSummary(mg_budget(self.p, n))

        if repetitions is None:
            repetitions = self._default_repetitions()
        self.bank = SamplerBank(repetitions, subseed(seed, "bank"))

    def _default_repetitions(self):
        m, delta = self.m_planned, self.delta
        if self.zeta is None:
            # L_p, p in (1,2]: per-repetition success >= 1/(4 n^{1-1/p}).
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
            update = self.mg.update
            for c in coords:
                update(c)

    def _zeta_at_draw(self):
        """(zeta_exact or None, zeta_bounds or None)."""
        if self.zeta is not None:
            return self.zeta, None
        return lp_zeta(z_bound(self.mg, self.p, self.n), self.p)

    def draw(self):
        if self.bank.r_seen == 0:
            return SampleResult.bottom()
        self.draws += 1
        rng = substream(self.seed, "draw", self.draws)
        zeta_exact, zeta_bounds = self._zeta_at_draw()
        table = {}
        live = (((i, s), c)
                for i, (s, _, c) in enumerate(map(self.bank.effective, range(self.R)))
                if s is not None)
        return repetition_result(first_accepted(
            live, lambda c: accept_increment(self.measure, c, zeta_exact, zeta_bounds, rng, table)))


def lp_sampler(p, n, m, delta=0.1, seed=0, repetitions=None):
    """Configured L_p sampler for p in (0, 2]."""
    p = exponent(p)
    if not (0 < p <= 2):
        raise ValueError("insertion-only L_p sampling needs p in (0, 2]")
    from .core import lp_measure

    measure = lp_measure(p)
    if p == 1:
        # Plain reservoir sampling: acceptance is identically 1.
        return GSampler(measure, n, m, delta, seed, zeta=Fraction(1),
                        repetitions=repetitions or 1, p=p)
    return GSampler(measure, n, m, delta, seed, repetitions=repetitions, p=p)
