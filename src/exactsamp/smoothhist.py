"""Smooth histogram of suffix F_p estimators for sliding windows.

Rows are timestamped suffix estimators and nothing else; row j has ingested
exactly the updates from time t_j to now.  Middle rows are pruned once the
next-but-one row's value reaches (1 - beta) of the previous one, with
beta = (1/2)^p / p^p (the smoothness parameter for F_p at epsilon = 1/2);
the front row is dropped when the second row already covers the window.  The
invariant that survives is t_1 <= window start < t_2, with
F_p(suffix 1) <= 2^p * F_p(window), i.e.
L_p(window) <= L_p(suffix 1) <= 2 L_p(window).  The histogram keeps no
samples: sliding.SlidingLpSampler samples from checkpoint banks beside it and
reads the bracket row's F_p and largest frequency at each draw.

The suffix estimator is exact by default (frequency counts; deterministic and
strictly inside the factor-2 contract).  estimator_factory(p) swaps in
another one; an estimator that cannot certify its value raises
DegradedEstimate, which samplers turn into a Fail outcome.
"""

from fractions import Fraction

from .core import exponent
from .exactrand import pow_bounds


class DegradedEstimate(Exception):
    """The internal estimator cannot certify its output; callers turn this
    into a Fail outcome."""


class ExactSuffixFp:
    """Exact F_p = sum_i f_i^p of everything ingested, and the largest
    frequency max_f (a running max: counts only grow)."""

    def __init__(self, p):
        self.p = exponent(p)
        self.int_p = self.p.denominator == 1
        self._pf, self._k = float(self.p), int(self.p)
        self.counts = {}
        self.max_f = 0
        self._fp_int = 0  # exact, integer p only
        self._fp_float = 0.0

    def update(self, coord):
        f = self.counts.get(coord, 0)
        self.counts[coord] = f + 1
        if f == self.max_f:
            self.max_f = f + 1
        self._fp_float += (f + 1) ** self._pf - f ** self._pf
        if self.int_p:
            self._fp_int += (f + 1) ** self._k - f ** self._k

    def fp_float(self):
        return self._fp_float

    def fp_exact(self):
        return Fraction(self._fp_int) if self.int_p else None

    def fp_bounds(self, prec):
        if self.int_p:
            v = Fraction(self._fp_int)
            return v, v
        # Sum certified bounds per distinct frequency value.
        by_f = {}
        for f in self.counts.values():
            by_f[f] = by_f.get(f, 0) + 1
        lo = hi = Fraction(0)
        for f, mult in by_f.items():
            blo, bhi = pow_bounds(Fraction(f), self.p, prec)
            lo += mult * blo
            hi += mult * bhi
        return lo, hi


class _Row:
    __slots__ = ("t_start", "est")

    def __init__(self, t_start, est):
        self.t_start = t_start
        self.est = est


class SmoothHistogram:
    def __init__(self, p, W, estimator_factory=None):
        self.p = exponent(p)
        self.W = W
        pf = float(self.p)
        self.beta = (0.5 ** pf) / (pf ** pf)
        self.estimator_factory = estimator_factory or ExactSuffixFp
        self.rows = []
        self.t = 0

    def update(self, coord):
        self.t += 1
        t = self.t
        self.rows.append(_Row(t, self.estimator_factory(self.p)))
        for row in self.rows:
            row.est.update(coord)
        self._prune()

    def _prune(self):
        rows = self.rows
        changed = True
        while changed:
            changed = False
            i = 1
            while i < len(rows) - 1:
                if rows[i + 1].est.fp_float() >= (1.0 - self.beta) * rows[i - 1].est.fp_float():
                    del rows[i]
                    changed = True
                else:
                    i += 1
        ws = self.t - self.W + 1
        while len(rows) >= 2 and rows[1].t_start <= ws:
            del rows[0]

    def bracket(self):
        """The row whose suffix contains the active window."""
        if not self.rows:
            raise ValueError("empty histogram")
        return self.rows[0]
