"""Truly perfect row sampling for matrices under entrywise insertion streams.

Each repetition reservoir-samples one matrix update (r, c) and tracks the
vector v of updates to row r arriving strictly after the sampled one.  At
draw time it accepts with probability (G(v + e_c) - G(v)) / zeta, which
telescopes along each row to G(m_i)/(zeta m).  A draw returns the first
accepting repetition (gsampler.first_accepted).
"""

import math
from fractions import Fraction

from .core import SampleResult
from .exactrand import bernoulli_bounds, bernoulli_fraction, root_bounds, substream
from .gsampler import first_accepted, repetitions_for
from .reservoir import _next_jump


class RowMeasure:
    """G over nonnegative integer vectors, with G(x) - G(x - e_i) <= zeta."""

    name = "abstract"
    zeta = None

    def g_exact(self, vec):
        raise NotImplementedError

    def g_bounds(self, vec, prec):
        exact = self.g_exact(vec)
        if exact is None:
            raise NotImplementedError
        return exact, exact

    def g_float(self, vec):
        lo, hi = self.g_bounds(vec, 40)
        return float((lo + hi) / 2)

    def fg_lower_bound(self, m):
        raise NotImplementedError


class L1RowMeasure(RowMeasure):
    name = "l1_row"
    zeta = Fraction(1)

    def g_exact(self, vec):
        return Fraction(sum(vec))

    def fg_lower_bound(self, m):
        return Fraction(m)


class L2RowMeasure(RowMeasure):
    """G(x) = ||x||_2; 1-Lipschitz along coordinate steps, so zeta = 1."""

    name = "l2_row"
    zeta = Fraction(1)

    def g_exact(self, vec):
        s = sum(x * x for x in vec)
        r = math.isqrt(s)
        return Fraction(r) if r * r == s else None

    def g_bounds(self, vec, prec):
        return root_bounds(Fraction(sum(x * x for x in vec)), 2, prec)

    def g_float(self, vec):
        return math.sqrt(float(sum(x * x for x in vec)))

    def fg_lower_bound(self, m):
        # ||x||_2 >= ||x||_1 / sqrt(d) would need d; the safe stream-length
        # bound ||x||_2 >= ||x||_1^{1/2} ... simplest valid: each row's norm is
        # at least sqrt of its mass, and sum_i sqrt(m_i) >= sqrt(m).
        return root_bounds(Fraction(m), 2, 32)[0]


ROW_MEASURES = {"l1_row": L1RowMeasure, "l2_row": L2RowMeasure}


def _accept_row(measure, v_after, col, rng):
    """Accept with probability (G(v + e_col) - G(v)) / zeta, exactly."""
    plus = list(v_after)
    plus[col - 1] += 1
    zeta = measure.zeta
    a = measure.g_exact(plus)
    b = measure.g_exact(v_after)
    if a is not None and b is not None:
        return bernoulli_fraction((a - b) / zeta, rng)

    def refine(prec):
        alo, ahi = measure.g_bounds(plus, prec)
        blo, bhi = measure.g_bounds(v_after, prec)
        lo = alo - bhi
        if lo < 0:
            lo = Fraction(0)
        return lo / zeta, (ahi - blo) / zeta

    return bernoulli_bounds(refine, rng)


class MatrixSampler:
    """R independent row-reservoir repetitions over an entrywise stream."""

    def __init__(self, measure, n, d, m, delta=0.1, seed=0, repetitions=None):
        self.measure = measure
        self.n = n
        self.d = d
        self.seed = seed
        if repetitions is None:
            fg = measure.fg_lower_bound(m) if m else Fraction(1)
            if fg <= 0:
                raise ValueError("zero F_G lower bound")
            ratio = measure.zeta * max(m, 1) / fg
            repetitions = repetitions_for(ratio, delta)
        self.R = repetitions
        self.r_seen = 0
        self.unit_row = [None] * self.R
        self.unit_col = [0] * self.R
        self.unit_v = [None] * self.R  # list of d counters, strictly-after
        self.unit_next = [1] * self.R
        self.unit_rng = [substream(seed, "unit", i) for i in range(self.R)]
        self.row_holders = {}  # row -> set of unit ids

    def update(self, row, col):
        r = self.r_seen + 1
        self.r_seen = r
        holders = self.row_holders.get(row)
        if holders:
            for i in holders:
                self.unit_v[i][col - 1] += 1
        for i in range(self.R):
            if self.unit_next[i] == r:
                old = self.unit_row[i]
                if old is not None:
                    self.row_holders[old].discard(i)
                self.unit_row[i] = row
                self.unit_col[i] = col
                self.unit_v[i] = [0] * self.d
                self.row_holders.setdefault(row, set()).add(i)
                self.unit_next[i] = _next_jump(r, self.unit_rng[i])

    def process(self, updates):
        for u in updates:
            self.update(u.coord, u.col)

    def draw(self):
        if self.r_seen == 0:
            return SampleResult.bottom()
        rng = substream(self.seed, "draw")
        live = ((SampleResult.of(row, repetition=i), self.unit_v[i], self.unit_col[i])
                for i, row in enumerate(self.unit_row) if row is not None)
        return first_accepted(
            live, lambda v, col: _accept_row(self.measure, v, col, rng)
        ) or SampleResult.fail()
