"""Sliding-window truly perfect samplers.

CheckpointedSampler: a fresh SamplerBank starts every W updates and the two
most recent banks are kept, so at any time the older live bank started at or
before the window start and within 2W of it.  A repetition succeeds only if
its reservoir sample is still active (t_s > t - W); conditioned on success
the law telescopes to G(f_i)/F_G over the active window.

SlidingLpSampler: the smooth histogram keeps suffix F_p estimator rows, and
one shared SuffixMinima structure gives every row a sampler over its suffix.
Each of the R units assigns every position an exact uniform priority; the
minimum-priority position of the suffix [t_j, now] is uniform over it for
every t_j at once, because one uniformly random order of the positions
restricts to a uniformly random order of each suffix.  So the bracketing
row's sample in each unit is distributed exactly as a reservoir sample of
that row's suffix, independently across units.  A draw accepts it with
probability ((c+1)^p - c^p)/(p F^{p-1}), c the strictly-after count and
F = L_p of that suffix, which the histogram invariant places in
[L_p(window), 2 L_p(window)].
"""

from fractions import Fraction

import numpy as np

from .core import SampleResult, UnitUpdates, exponent, lp_measure, outside
from .exactrand import np_substream, pow_scaled, subseed, substream
from .gsampler import accept_increment, first_accepted, repetition_result, repetitions_for
from .reservoir import SamplerBank
from .smoothhist import DegradedEstimate, SmoothHistogram


def active_bank_start(t, W):
    """Start time of the checkpoint bank a draw at time t must use: the last
    bank start 1 + kW at or before the window start t - W + 1, or 1."""
    return 1 + max(0, (t - W) // W) * W


class CheckpointedSampler(UnitUpdates):
    def __init__(self, measure, W, n=None, delta=0.1, seed=0, zeta=None,
                 repetitions=None):
        self.measure = measure
        self.W = W
        self.n = n  # None: coordinates are not checked
        self.seed = seed
        self.zeta = Fraction(zeta) if zeta is not None else measure.zeta
        if self.zeta is None:
            raise ValueError("checkpointed sampler needs a static zeta")
        if repetitions is None:
            fg = measure.fg_lower_bound(W)
            if fg <= 0:
                raise ValueError("zero F_G lower bound")
            # Doubled: the bank's substream is < 2W long, so the sample is
            # active with probability >= 1/2.
            repetitions = repetitions_for(2 * self.zeta * W / fg, delta)
        self.R = repetitions
        self.t = 0
        self.draws = 0
        self.banks = []  # (start_time, SamplerBank), two most recent

    def update(self, coord):
        if self.n is not None and not 1 <= coord <= self.n:
            raise outside(coord, self.n)
        self.t += 1
        t = self.t
        if (t - 1) % self.W == 0:
            seed = subseed(self.seed, "bank", t)
            self.banks.append((t, SamplerBank(self.R, seed, start_time=t)))
            if len(self.banks) > 2:
                self.banks.pop(0)
        for _, bank in self.banks:
            bank.update(coord, t)

    def _draw_bank(self):
        want = active_bank_start(self.t, self.W)
        for start, bank in self.banks:
            if start == want:
                return bank
        return self.banks[0][1]

    def draw(self):
        if self.t == 0:
            return SampleResult.bottom()
        bank = self._draw_bank()
        self.draws += 1
        rng = substream(self.seed, "draw", self.draws)
        cutoff = self.t - self.W
        table = {}
        live = (((i, s), c)
                for i, (s, t_s, c) in enumerate(map(bank.effective, range(self.R)))
                if s is not None and t_s > cutoff)
        return repetition_result(first_accepted(
            live, lambda c: accept_increment(self.measure, c, self.zeta, None, rng, table)))


_EMPTY = np.uint64(2 ** 64 - 1)  # priority of an unused stack slot


class SuffixMinima:
    """R independent uniform priority orders over the stream positions, kept
    as one stack of suffix minima per unit.

    Position t gets, in each unit, 64 random bits from rng.random_raw; two
    priorities of one unit that share all their bits are extended by further
    64-bit words until they differ, so each unit's order is an exact uniform
    permutation.  Column i of (prio, pos) lists, oldest and lowest first, the
    positions whose priority is below that of every later position, with an
    unused slot above the top; the first one at or after t_j is the minimum
    of suffix [t_j, now].  Entries before the front are skipped by lookups and
    dropped when a stack fills.  The coordinate and its running count at each
    position are shared by all units: position q's strictly-after count is
    counts[coord] - the count at q.
    """

    def __init__(self, R, rng):
        self.R, self.rng = R, rng
        self.t = 0
        self.front = 1  # lookups start at or after it
        self.prio = np.full((4, R), _EMPTY)
        self.pos = np.zeros((4, R), np.int64)
        self.size = np.zeros(R, np.int64)
        self.info = {}  # position >= front -> (coord, count of coord up to it)
        self.counts = {}  # coord -> running count, while it occurs at or after front
        self.ext = {}  # (unit, position) -> extension words, drawn on ties only
        self._units = np.arange(R)

    def push(self, coord):
        t = self.t = self.t + 1
        self.counts[coord] = self.counts.get(coord, 0) + 1
        self.info[t] = (coord, self.counts[coord])
        if self.size.max() + 2 > len(self.prio):
            self._compact()
        x = self.rng.random_raw(self.R)
        prio, units = self.prio, self._units
        keep = (prio < x).argmin(0)  # entries below x; the slot above the top stops it
        for i in np.flatnonzero((prio[keep, units] == x) & (keep < self.size)).tolist():
            keep[i] = self._settle_tie(i, int(keep[i]), x[i], t)
        prio[keep, units] = x
        prio[keep + 1, units] = _EMPTY
        self.pos[keep, units] = t
        self.size = keep + 1

    def _settle_tie(self, i, j, x, t):
        """Unit i's entries that stay below new position t, given that the
        first j do and entry j has t's first 64 bits x."""
        while j < self.size[i] and self.prio[j, i] == x and self._below(i, int(self.pos[j, i]), t):
            j += 1
        return j

    def _below(self, i, q, t):
        """Whether unit i's priority of q is below that of t, their first 64
        bits being equal."""
        a, b = self.ext.setdefault((i, q), []), self.ext.setdefault((i, t), [])
        k = 0
        while True:
            for words in (a, b):
                if len(words) == k:
                    words.append(int(self.rng.random_raw()))
            if a[k] != b[k]:
                return a[k] < b[k]
            k += 1

    def _compact(self):
        """Drop the entries before the front; double the stacks' depth if
        they stay over half full."""
        K = len(self.prio)
        cols = np.arange(K)[:, None]
        d = ((self.pos < self.front) & (cols < self.size)).sum(0)
        idx = np.minimum(cols + d, K - 1)
        self.prio = np.take_along_axis(self.prio, idx, 0)
        self.pos = np.take_along_axis(self.pos, idx, 0)
        self.size -= d
        if self.size.max() + 2 > K // 2:
            self.prio = np.concatenate([self.prio, np.full_like(self.prio, _EMPTY)])
            self.pos = np.concatenate([self.pos, np.zeros_like(self.pos)])
            cols = np.arange(2 * K)[:, None]
        self.prio[cols >= self.size] = _EMPTY
        self.ext = {k: v for k, v in self.ext.items() if k[1] >= self.front}

    def drop_before(self, front):
        """Forget positions before `front`; lookups must start at or after it."""
        for q in range(self.front, front):
            coord, seen = self.info.pop(q)
            if self.counts[coord] == seen:  # q was its last occurrence
                del self.counts[coord]
        self.front = max(self.front, front)

    def first_at(self, t_start):
        """Per unit, the minimum-priority position of [t_start, now]."""
        # Entries before t_start fail the test, the top entry (now) passes,
        # and unused slots lie above it.
        return self.pos[(self.pos >= t_start).argmax(0), self._units]

    def entry(self, q):
        """(coordinate, strictly-after count) of position q."""
        coord, seen = self.info[q]
        return coord, self.counts[coord] - seen


class SlidingLpSampler(UnitUpdates):
    def __init__(self, p, W, n=None, delta=0.1, seed=0, repetitions=None,
                 estimator_factory=None):
        self.p = exponent(p)
        if self.p < 1:
            raise ValueError("sliding L_p sampling needs p >= 1")
        self.measure = lp_measure(self.p)
        self.W = W
        self.n = n  # None: coordinates are not checked
        self.seed = seed
        if repetitions is None:
            pf = float(self.p)
            bound = pf * 2.0 ** (pf - 1.0) * W ** (1.0 - 1.0 / pf)
            repetitions = repetitions_for(2 * bound, delta)
        self.R = repetitions
        self.draws = 0
        self.hist = SmoothHistogram(self.p, W, seed=seed, estimator_factory=estimator_factory)
        self.minima = SuffixMinima(self.R, np_substream(seed, "priority").bit_generator)

    def update(self, coord):
        if self.n is not None and not 1 <= coord <= self.n:
            raise outside(coord, self.n)
        self.hist.update(coord)
        self.minima.push(coord)
        self.minima.drop_before(self.hist.rows[0].t_start)

    def _zeta_bounds(self, est, c_max):
        """bounds(k) on the normalizer p F^{p-1}, F = L_p of the bracketing
        suffix = (F_p)^{1/p}, as integers (lo, hi) with lo <= p F^{p-1} 2^k
        <= hi, computed once per precision per draw.  Raises DegradedEstimate
        when F is not certified above the window's L_p, i.e. the largest
        increment would exceed it."""
        a, b = self.p.numerator, self.p.denominator
        q = (self.p - 1) / self.p
        memo = {}

        def bounds(k):
            if k not in memo:
                flo, fhi = est.fp_bounds(k)
                lo, hi = pow_scaled(flo, q, k)[0], pow_scaled(fhi, q, k)[1]
                memo[k] = a * lo // b, -(-a * hi // b)
                if memo[k][0] <= 0:
                    raise DegradedEstimate("nonpositive F estimate")
            return memo[k]

        if self.measure.increment_bounds(c_max, 16)[0] > bounds(16)[1]:
            raise DegradedEstimate("acceptance above 1: F below L_p")
        return bounds

    def draw(self):
        t = self.hist.t
        if t == 0:
            return SampleResult.bottom()
        row = self.hist.bracket()
        cutoff = t - self.W
        entry = self.minima.entry
        first = self.minima.first_at(row.t_start).tolist()
        c_max = max((entry(q)[1] for q in set(first) if q > cutoff), default=0)
        self.draws += 1
        rng = substream(self.seed, "draw", self.draws)
        try:
            bounds = self._zeta_bounds(row.est, c_max)
            table = {}
            live = (((i, coord), c)
                    for i, q in enumerate(first) if q > cutoff
                    for coord, c in (entry(q),))
            return repetition_result(first_accepted(
                live, lambda c: accept_increment(self.measure, c, None, bounds, rng, table)))
        except DegradedEstimate:
            return SampleResult.fail()
