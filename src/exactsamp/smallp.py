"""Perfect (not truly perfect) L_p sampler for p < 1 on insertion-only
streams, via exponential scaling plus Misra-Gries.

Every coordinate i is split into D duplicates; duplicate (i, j) owns a rate-1
exponential e_{i,j} fixed for the run, the j-th expovariate of
substream(seed, "exp", i).  Each update of i inserts
round(P / e_{i,j}^{1/p}) unit items of key (i, j) into a derived stream
(P = 2^20 scales the fractional multiplicities to integers), so key (i, j)
carries total weight ~ P * (f_i / e_{i,j})^{... } -- precisely, f_i scaled by
e_{i,j}^{-1/p}.  The weight is computed in log space, as
round(exp(min(ln P - ln(e)/p, ln 1e300))): at small p, e^{1/p} leaves float
range (at p = 0.001, e^1000 overflows for every e > 2.03), so the weight is
capped at 1e300, and it is 0 when the exponent is below float range.

By min-stability of exponentials the largest scaled key belongs to
coordinate i with probability f_i^p / F_p.  A draw reports it only when it
holds at least half of the derived stream's weight, as read from an
eps = 1/100 Misra-Gries summary, and fails otherwise.  How often one key
dominates that much depends on the stream and on D; it is not a constant:
on a Zipf(1.1) stream over 1000 coordinates at p = 1/2, D = 32 every draw
fails, and on 5000 uniform updates over 10^5 coordinates at D = 16 about
one in five does.
The duplication cuts the additive error to O(D^-beta); D is an explicit
parameter here (a polynomial-in-n default would be far too slow to test).
"""

import math

from .core import SampleResult, UnitUpdates
from .exactrand import substream
from .heavyhitters import MGSummary

PRECISION = 1 << 20
MG_EPSILON = 0.01  # k = 1/(2 eps) = 50 counters
LOG_PRECISION = math.log(PRECISION)
LOG_CAP = math.log(1e300)  # weights are capped at float range


class DuplicatedExpState(UnitUpdates):
    def __init__(self, p, D=256, seed=0):
        if not (0 < p < 1):
            raise ValueError("this sampler is for p in (0, 1)")
        if D < 16:
            raise ValueError("duplication factor D must be >= 16")
        self.p = float(p)
        self.D = D
        self.seed = seed
        self.mg = MGSummary(int(1 / (2 * MG_EPSILON)))
        self._weights = {}  # coord -> integer weight per duplicate

    def _dup_weights(self, coord):
        w = self._weights.get(coord)
        if w is None:
            rng, p, w = substream(self.seed, "exp", coord), self.p, []
            for _ in range(self.D):
                e = rng.expovariate(1.0)
                # ln(P / e^{1/p}); e = 0 (a zero uniform) takes the cap
                x = LOG_PRECISION - math.log(e) / p if e > 0 else LOG_CAP
                w.append(round(math.exp(min(x, LOG_CAP))))
            self._weights[coord] = w
        return w

    def ingest(self, coords):
        self.mg.extend(((coord, j), wj) for coord in coords
                       for j, wj in enumerate(self._dup_weights(coord)) if wj > 0)

    def draw(self):
        if self.mg.m_seen == 0:
            return SampleResult.bottom()
        half = self.mg.m_seen / 2
        for (coord, _j), est in self.mg.items().items():
            if est >= half:
                return SampleResult.of(coord)
        return SampleResult.fail()
