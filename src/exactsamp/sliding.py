"""Sliding-window truly perfect samplers.

CheckpointedSampler: a fresh SamplerBank starts every W updates and the two
most recent banks are kept, so at any time the older live bank started at or
before the window start and within 2W of it.  A repetition succeeds only if
its reservoir sample is still active (t_s > t - W); conditioned on success
the law telescopes to G(f_i)/F_G over the active window.  A bank started at
b > 1 is first read at b + W - 1, its W-th position (active_bank_start), so
it is built with read horizon W (reservoir.SamplerBank): each unit takes its
position at W with one uniform draw and skips from W, about R(2 + ln 2)
draws over the bank's 2W updates instead of R H_{2W}, and from W on the bank
has the reservoir's law, so every draw reads that law.  The first bank is
read from t = 1 and keeps horizon 1.

SlidingLpSampler: the same checkpoint banks over G = x^p, with zeta read at
each draw by the one L_p rule, gsampler.lp_zeta's p Z^{p-1}, as GSampler
reads it from Misra-Gries.  Here Z = max_f, the window's exact largest
frequency, which a WindowCounter beside the banks keeps in O(1) per update
(smoothhist).  A live repetition's state c has c + 1 <= f(window) <= max_f,
so its increment (c+1)^p - c^p <= p (c+1)^{p-1} <= zeta; the counter is a
function of the stream alone, so zeta is too, and the law telescopes to
f_i^p / F_p(window) as above.  R: the window holds m = min(t, W) updates
and the draw's bank has seen L positions, m <= L < 2m, so its unit is live
with probability m/L > 1/2, and a live one succeeds with
F_p(window)/(zeta m).  Since max_f <= L_p(window), zeta <= p L_p^{p-1}, and
Hoelder over the window's at most m coordinates gives m = F_1 <=
m^{1-1/p} L_p, so F_p/(zeta m) >= L_p/(p m) >= 1/(p W^{1-1/p}).  A
repetition succeeds with probability at least 1/(2p W^{1-1/p}), and
R = repetitions_for(2p W^{1-1/p}, delta), without the 2^{p-1} that a Z up to
2 L_p(window) would cost.
"""

from .core import SampleResult, UnitUpdates, check_window, exponent, lp_measure
from .exactrand import subseed, substream
from .gsampler import DrawState, accept_and_pick, lp_zeta, repetition_result, repetitions_for
from .reservoir import SamplerBank
from .smoothhist import WindowCounter


def active_bank_start(t, W):
    """Start time of the checkpoint bank a draw at time t must use: the last
    bank start 1 + kW at or before the window start t - W + 1, or 1."""
    return 1 + max(0, (t - W) // W) * W


class CheckpointedSampler(UnitUpdates):
    def __init__(self, measure, W, n=None, delta=0.1, seed=0, repetitions=None):
        check_window(W)
        self.measure = measure
        self.W = W
        self.n = n  # None: coordinates are not checked
        self.seed = seed
        self.zeta = measure.zeta
        # A subclass may read zeta at each draw instead (_draw_zeta).
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
        self.draw_state = DrawState(substream(seed, "draws"), repetitions, measure)
        self.banks = []  # (start_time, SamplerBank), two most recent

    def ingest(self, coords):
        """Feed the batch to the live banks in pieces that end where the
        next bank starts, every W updates."""
        W, k, end = self.W, 0, len(coords)
        while k < end:
            t = self.t + 1  # the time of coords[k]
            if (t - 1) % W == 0:
                seed = subseed(self.seed, "bank", t)
                horizon = 1 if t == 1 else W  # the first position a draw reads
                self.banks.append((t, SamplerBank(self.R, seed, start_time=t, horizon=horizon)))
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
        raise RuntimeError("no live bank starts at %d (time %d, W = %d)"
                           % (want, self.t, self.W))

    def draw(self):
        if self.t == 0:
            return SampleResult.bottom()
        bank = self._draw_bank()
        effective, cutoff = bank.effective, self.t - self.W

        def state(i):
            s, t_s, c = effective(i)
            return c if s is not None and t_s > cutoff else None

        hit = accept_and_pick(self.R, state, self.draw_state.accept(self._draw_zeta()))
        return repetition_result(hit, bank.unit_s.__getitem__)

    def _draw_zeta(self):
        """The zeta of a draw now, as accept_increment takes it: the static
        one as an integer pair."""
        return self.zeta.numerator, self.zeta.denominator


class SlidingLpSampler(CheckpointedSampler):
    def __init__(self, p, W, n=None, delta=0.1, seed=0, repetitions=None):
        p = exponent(p)
        if p < 1:
            raise ValueError("sliding L_p sampling needs p >= 1")
        check_window(W)
        if repetitions is None:
            pf = float(p)
            repetitions = repetitions_for(2 * pf * W ** (1.0 - 1.0 / pf), delta)
        super().__init__(lp_measure(p), W, n, delta, seed, repetitions=repetitions)
        self.p = p
        self.counter = WindowCounter(W)

    def ingest(self, coords):
        super().ingest(coords)
        self.counter.ingest(coords)

    def _draw_zeta(self):
        """lp_zeta at Z = the window's largest frequency: 2 max_f at p = 2."""
        return lp_zeta((self.counter.max_f, 1), self.p)
