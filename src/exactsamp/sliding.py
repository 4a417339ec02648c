"""Sliding-window truly perfect samplers.

CheckpointedSampler: a fresh SamplerBank starts every W updates and the two
most recent banks are kept, so at any time the older live bank started at or
before the window start and within 2W of it.  A repetition succeeds only if
its reservoir sample is still active (t_s > t - W); conditioned on success
the law telescopes to G(f_i)/F_G over the active window.

SlidingLpSampler: the same checkpoint banks over G = x^p, with a zeta read
at each draw from a smooth histogram of suffix F_p estimators that rides
along, as GSampler reads zeta = 2 Z^{p-1} from its Misra-Gries summary.  A
live repetition accepts with probability ((c+1)^p - c^p)/(p F^{p-1}), with
F = L_p of the bracketing row's suffix, which the histogram invariant places
in [L_p(window), 2 L_p(window)].  F >= L_p(window) >= max f over the window,
so p F^{p-1} >= p f^{p-1} >= f^p - (f-1)^p bounds every increment of a live
repetition, and the law telescopes to f_i^p / F_p(window) as above.
"""

from fractions import Fraction

from .core import SampleResult, UnitUpdates, exponent, lp_measure
from .exactrand import pow_exact, pow_scaled, subseed, substream
from .gsampler import (acceptance, accept_increment, first_accepted, repetition_result,
                       repetitions_for)
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
        # A subclass may read zeta at each draw instead (_zeta_at_draw).
        if self.zeta is None and type(self) is CheckpointedSampler:
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

    def ingest(self, coords):
        """Feed the batch to the live banks in pieces that end where the
        next bank starts, every W updates."""
        W, k, end = self.W, 0, len(coords)
        while k < end:
            t = self.t + 1  # the time of coords[k]
            if (t - 1) % W == 0:
                seed = subseed(self.seed, "bank", t)
                self.banks.append((t, SamplerBank(self.R, seed, start_time=t)))
                if len(self.banks) > 2:
                    self.banks.pop(0)
            stop = min(end, k + W - (t - 1) % W)
            piece = coords if k == 0 and stop == end else coords[k:stop]
            for _, bank in self.banks:
                bank.extend(piece)
            self.t += stop - k
            k = stop

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
        zeta_exact, zeta_bounds = self._zeta_at_draw()
        cutoff = self.t - self.W
        table = {}
        live = (((i, s), c)
                for i, (s, t_s, c) in enumerate(map(bank.effective, range(self.R)))
                if s is not None and t_s > cutoff)
        return repetition_result(first_accepted(
            live, lambda c: accept_increment(self.measure, c, zeta_exact, zeta_bounds, rng, table)))

    def _zeta_at_draw(self):
        """(zeta_exact or None, zeta_bounds or None), as accept_increment
        takes them."""
        return self.zeta, None


class SlidingLpSampler(CheckpointedSampler):
    def __init__(self, p, W, n=None, delta=0.1, seed=0, repetitions=None,
                 estimator_factory=None):
        p = exponent(p)
        if p < 1:
            raise ValueError("sliding L_p sampling needs p >= 1")
        if repetitions is None:
            pf = float(p)
            bound = pf * 2.0 ** (pf - 1.0) * W ** (1.0 - 1.0 / pf)
            repetitions = repetitions_for(2 * bound, delta)
        super().__init__(lp_measure(p), W, n, delta, seed, repetitions=repetitions)
        self.p = p
        self.hist = SmoothHistogram(p, W, estimator_factory)

    def ingest(self, coords):
        super().ingest(coords)
        self.hist.ingest(coords)

    def _zeta_at_draw(self):
        """zeta = p F^{p-1} = p F_p^{(p-1)/p} of the bracketing row in
        lp_zeta's form: exact when rational (always at p = 1), else bounds(k)
        with integers lo <= zeta 2^k <= hi, memoized per precision.  Raises
        DegradedEstimate unless zeta is certified at or above the increment
        at c = max_f - 1, the row's largest frequency less one, which bounds
        every live repetition's c; the exact estimator always passes."""
        est = self.hist.bracket().est
        p = self.p
        a, b, q = p.numerator, p.denominator, (p - 1) / p
        fp = est.fp_exact()
        exact = pow_exact(fp, q) if fp is not None else None
        memo = {}

        def bounds(k):
            if k not in memo:
                flo, fhi = est.fp_bounds(k)
                lo, hi = pow_scaled(flo, q, k)[0], pow_scaled(fhi, q, k)[1]
                memo[k] = a * lo // b, -(-a * hi // b)
                if memo[k][0] <= 0:
                    raise DegradedEstimate("nonpositive F estimate")
            return memo[k]

        zeta = (p * exact, None) if exact else (None, bounds)
        top = acceptance(self.measure, est.max_f - 1, *zeta)
        if (top(16)[0] > 1 << 16) if callable(top) else top > 1:
            raise DegradedEstimate("acceptance above 1: F below L_p")
        return zeta

    def draw(self):
        try:
            return super().draw()
        except DegradedEstimate:
            return SampleResult.fail()
