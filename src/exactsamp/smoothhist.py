"""Smooth histogram of suffix F_p values for sliding windows
(Braverman-Ostrovsky, "Smooth histograms for sliding windows", FOCS 2007).

Rows are timestamped suffix counts and nothing else; row j has ingested
exactly the updates from time t_j to now.  Middle rows are pruned once the
next-but-one row's value reaches (1 - beta) of the previous one, with
beta = (1/2)^p / p^p (the smoothness parameter for F_p at epsilon = 1/2);
the front row is dropped when the second row already covers the window.  The
invariant that survives is t_1 <= window start < t_2, with
F_p(suffix 1) <= 2^p * F_p(window), i.e.
L_p(window) <= L_p(suffix 1) <= 2 L_p(window).  The histogram keeps no
samples: sliding.SlidingLpSampler samples from checkpoint banks beside it and
reads the bracket row's exact largest frequency max_f at each draw, the Z of
its zeta = p Z^{p-1}; the rows' F_p values decide only which rows are kept.
"""

from .core import exponent


class ExactSuffixFp:
    """Exact frequency counts of everything ingested, their largest value
    max_f (a running max: counts only grow), and value, the running F_p that
    the histogram prunes on: the exact integer at integer p, a float sum of
    the increments otherwise."""

    def __init__(self, p):
        self.p = exponent(p)
        int_p = self.p.denominator == 1
        self._power = int(self.p) if int_p else float(self.p)
        self.counts = {}
        self.max_f = 0
        self.value = 0 if int_p else 0.0

    def update(self, coord):
        f = self.counts.get(coord, 0)
        self.counts[coord] = f + 1
        if f == self.max_f:
            self.max_f = f + 1
        k = self._power
        self.value += (f + 1) ** k - f ** k


class _Row:
    __slots__ = ("t_start", "est")

    def __init__(self, t_start, est):
        self.t_start = t_start
        self.est = est


class SmoothHistogram:
    def __init__(self, p, W):
        self.p = exponent(p)
        self.W = W
        pf = float(self.p)
        self.beta = (0.5 ** pf) / (pf ** pf)
        # The float 1 - beta as an exact ratio num/den, den a power of two:
        # v' * den >= num * v is exact on integer values and, on floats, the
        # same test as v' >= (1 - beta) * v.
        self._num, self._den = (1.0 - self.beta).as_integer_ratio()
        self.rows = []
        self.t = 0

    # Kept for perfbench's layer tracer, which wraps this method by name.
    def update(self, coord):
        self.ingest((coord,))

    def ingest(self, coords):
        rows, p = self.rows, self.p
        for coord in coords:
            self.t += 1
            rows.append(_Row(self.t, ExactSuffixFp(p)))
            for row in rows:
                row.est.update(coord)
            self._prune()

    def _prune(self):
        """Delete every middle row i whose neighbours satisfy
        v(i+1) >= (1 - beta) v(i-1), in one pass, then drop the front row
        while the second one covers the window.

        One pass leaves no row to delete.  Row values do not increase with
        the row index: a later row's suffix is part of an earlier one's, and
        F_p only grows with more occurrences.  The pass keeps row i when
        v(right) < (1 - beta) v(left), where left is final (the pass never
        returns to it) and right is the current next row; a later deletion
        makes a row further on the next one, whose value is no larger, so the
        inequality still holds.  Deleting a row only makes the test harder
        for its neighbours, so a second pass would delete nothing.  (At
        non-integer p the values are float sums, monotone up to rounding;
        where rounding breaks that, one pass keeps a row that a repeat would
        drop, which costs a row and not the invariant: each pair of adjacent
        rows still met the test when it became adjacent.)"""
        rows, num, den = self.rows, self._num, self._den
        i = 1
        while i < len(rows) - 1:
            if rows[i + 1].est.value * den >= num * rows[i - 1].est.value:
                del rows[i]
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
