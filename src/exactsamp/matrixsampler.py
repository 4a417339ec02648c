"""Truly perfect row sampling for matrices under entrywise insertion streams.

Each repetition reservoir-samples one matrix update (r, c) and tracks the
vector v of updates to row r arriving strictly after the sampled one.  The
repetitions are the units of one SamplerBank keyed by row.  Beside it the
sampler keeps the column counts of each row the bank tracks and, per unit, the
sampled column and a snapshot of its row's counts at that time, so v is the
counts minus the snapshot: the bank's offset trick, one column at a time.  An
update costs O(d) per unit that samples it and O(1) otherwise, whatever R is.
At draw time a repetition accepts with probability (G(v + e_c) - G(v)) / zeta
(gsampler.accept_increment), which telescopes along each row to
G(m_i)/(zeta m).  A draw returns the first accepting repetition
(gsampler.accept_and_pick).
"""

import math
from fractions import Fraction
from operator import sub

from .core import MeasureFunction, SampleResult, Update
from .exactrand import root_scaled, substream
from .gsampler import DrawState, accept_and_pick, repetition_result, repetitions_for
from .reservoir import SamplerBank


class RowMeasure(MeasureFunction):
    """G over nonnegative integer vectors, with G(x) - G(x - e_i) <= zeta.

    One more update (row, col) steps the row's vector v to v + e_col, so the
    increment state is c = (v, col).  v may be a list, so row measures keep
    no memo of increments."""

    increment_ratio = MeasureFunction._increment_ratio

    def step(self, c):
        v, col = c
        plus = list(v)
        plus[col - 1] += 1
        return v, plus


class L1RowMeasure(RowMeasure):
    name = "l1_row"
    zeta = Fraction(1)
    rational_increments = True

    def increment_ratio(self, c):
        return 1, 1  # ||v + e_col||_1 - ||v||_1

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

    def g_bounds(self, vec, k):
        return root_scaled(sum(x * x for x in vec), 2, k)

    def fg_lower_bound(self, m):
        # ||x||_2 >= ||x||_1 / sqrt(d) would need d; the safe stream-length
        # bound ||x||_2 >= ||x||_1^{1/2} ... simplest valid: each row's norm is
        # at least sqrt of its mass, and sum_i sqrt(m_i) >= sqrt(m).
        return Fraction(root_scaled(m, 2, 32)[0], 1 << 32)


ROW_MEASURES = {"l1_row": L1RowMeasure, "l2_row": L2RowMeasure}


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
        self.draw_state = DrawState(substream(seed, "draws"), repetitions, measure)
        # The units draw their skips from the bank's one generator.
        self.bank = SamplerBank(repetitions, seed)
        self.counts = {}  # row -> column counts, kept while the bank tracks the row
        self.unit_col = [0] * repetitions
        self.unit_snap = [None] * repetitions  # the row's counts at the unit's sample

    def update(self, row, col):
        self.process((Update(row, col=col),))

    def process(self, updates):
        """Feed entry updates (row, col) in order.  A batch with a deletion,
        an update with no column or an entry outside [1, n] x [1, d] raises
        ValueError before any of it is fed, so the sampler is left as it
        was."""
        if not isinstance(updates, (list, tuple)):
            updates = list(updates)
        rows, cols = [u.coord for u in updates], [u.col for u in updates]
        n, d = self.n, self.d
        if rows and ({u.delta for u in updates} - {1} or None in cols or not (
                1 <= min(rows) and max(rows) <= n and 1 <= min(cols) and max(cols) <= d)):
            for u in updates:  # raise on the first update out of the model
                if u.delta != 1:
                    raise ValueError("MatrixSampler takes unit insertions, got delta %d"
                                     % u.delta)
                if u.col is None:
                    raise ValueError("update to row %r has no column" % (u.coord,))
                if not (1 <= u.coord <= n and 1 <= u.col <= d):
                    raise ValueError("entry (%r, %r) outside [1, %d] x [1, %d]"
                                     % (u.coord, u.col, n, d))
        self.ingest(rows, cols)

    def ingest(self, rows, cols):
        """Feed a batch of entries, rows[k] and cols[k] for the k-th.

        The bank's loop reports the batch indices where units resampled, so
        this loop reads the column counts of rows the sampler keeps and
        takes a snapshot at those indices only."""
        picks = self.bank.extend(rows)
        counts, unit_col, unit_snap = self.counts, self.unit_col, self.unit_snap
        next_pick = picks[0][0] if picks else len(rows)
        p = 0
        for k, row in enumerate(rows):
            v = counts.get(row)
            if v is not None:
                v[cols[k] - 1] += 1
            if k != next_pick:
                continue
            if v is None:
                v = counts[row] = [0] * self.d
            snap, col = tuple(v), cols[k]
            for i in picks[p][1]:
                unit_col[i] = col
                unit_snap[i] = snap
            p += 1
            next_pick = picks[p][0] if p < len(picks) else len(rows)
        # Drop the rows the bank no longer counts once they outnumber the
        # counted ones, at O(1) amortized cost.  Counting a stale row until
        # then is harmless: only differences from a snapshot are read.
        if len(counts) > 2 * len(self.bank.counters):
            self.counts = {r: counts[r] for r in self.bank.counters}

    def after(self, i):
        """Unit i's vector of updates to its row strictly after its sample,
        as a tuple, so that the state (v, col) can key the acceptance table."""
        row = self.bank.unit_s[i]
        return tuple(map(sub, self.counts[row], self.unit_snap[i]))

    def draw(self):
        if self.bank.r_seen == 0:
            return SampleResult.bottom()
        unit_s, unit_col, after = self.bank.unit_s, self.unit_col, self.after

        def state(i):
            return None if unit_s[i] is None else (after(i), unit_col[i])

        hit = accept_and_pick(self.R, state, self.draw_state.accept(self._draw_zeta()))
        return repetition_result(hit, unit_s.__getitem__)

    def _draw_zeta(self):
        """The zeta of a draw, as accept_increment takes it: the row
        measure's static one as an integer pair."""
        zeta = self.measure.zeta
        return zeta.numerator, zeta.denominator
