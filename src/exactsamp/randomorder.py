"""Truly perfect samplers for random-order streams.

Pair sampler (L2): the stream is split into disjoint adjacent pairs
(u_1,u_2), (u_3,u_4), ...  For each pair, with probability 1/W the first
element is harvested outright; otherwise it is harvested only on a collision
(both elements equal).  Under a uniformly random order each pair harvests
coordinate j with probability exactly f_j^2/W^2.

Block sampler (integer p > 2): the stream is split into blocks of
B = ceil(W^{1-1/(p-1)}) consecutive elements.  Conceptually every ordered
p-tuple of distinct positions inside a block whose first q entries agree
inserts that value into S with probability alpha_q = S(p,q) (W)_q / W^p
(Stirling numbers of the second kind turn the falling-factorial match
probabilities back into f^p: x^p = sum_k S(p,k) (x)_k).  Rather than
enumerating B^p tuples, the per-block tuple counts are computed from the
within-block frequencies g_i and the matching binomial insert counts are
drawn in bulk.

Both samplers return a uniformly random element of the harvested multiset S
and Fail when S is empty.
"""

import math
from fractions import Fraction

import numpy as np

from .core import SampleResult, UnitUpdates
from .exactrand import bernoulli_fraction, np_substream, substream, weighted_index

CAP_CONSTANT = 8  # C in the |S| <= 2 C log n cap; needs n^C > W


def stirling2(p):
    """Row p of the Stirling numbers of the second kind: S(p, 0..p)."""
    row = [1]
    for m in range(1, p + 1):
        prev = row
        row = [0] * (m + 1)
        for k in range(1, m + 1):
            row[k] = k * prev[k] if k < m else 0
            row[k] += prev[k - 1]
    return row


def falling(x, q):
    out = 1
    for i in range(q):
        out *= x - i
    return out


def alpha_coeffs(p, W):
    """alpha_q = S(p,q) * W(W-1)...(W-q+1) / W^p for q = 1..p."""
    row = stirling2(p)
    return [Fraction(row[q] * falling(W, q), W ** p) for q in range(1, p + 1)]


def check_cap_config(n, W, C=CAP_CONSTANT):
    if n ** C <= W:
        raise ValueError("cap constant too small: need n^C > W (n=%d, W=%d, C=%d)"
                         % (n, W, C))


class PairL2Sampler(UnitUpdates):
    """Adjacent-pair L2 sampler for random-order streams of length W."""

    def __init__(self, n, W, seed=0, C=CAP_CONSTANT):
        check_cap_config(n, W, C)
        self.n = n
        self.W = W
        self.seed = seed
        self.rng = substream(seed, "pairs")
        self._q = Fraction(1, W)  # the outright-harvest probability
        log_n = max(1, math.ceil(math.log(max(n, 2))))
        self.cap = 2 * C * log_n
        self.downsample = C * log_n
        self.t = 0
        self._pending = None  # first element of the current pair, with time
        self.S = []  # (coord, harvest time)

    def ingest(self, coords):
        q, rng = self._q, self.rng
        for coord in coords:
            self.t += 1
            if self._pending is None:
                self._pending = (coord, self.t)
                continue
            first, t_first = self._pending
            self._pending = None
            if bernoulli_fraction(q, rng) or first == coord:
                self._harvest(first, t_first)

    def _harvest(self, coord, t):
        self.S.append((coord, t))
        if len(self.S) > self.cap:
            for _ in range(self.downsample):
                self.S.pop(self.rng.randrange(len(self.S)))

    def expire(self, now=None):
        now = self.t if now is None else now
        cutoff = now - self.W
        self.S = [(c, t) for c, t in self.S if t > cutoff]

    def draw(self):
        if self.t == 0:
            return SampleResult.bottom()
        self.expire()
        if not self.S:
            return SampleResult.fail()
        coord, _ = self.S[self.rng.randrange(len(self.S))]
        return SampleResult.of(coord)


class BlockLpSampler(UnitUpdates):
    """Block p-tuple sampler for random-order streams, integer p >= 3."""

    def __init__(self, n, W, p, seed=0, C=CAP_CONSTANT):
        if p != int(p) or p < 3:
            raise ValueError("block sampler needs integer p >= 3")
        check_cap_config(n, W, C)
        self.n = n
        self.W = W
        self.p = int(p)
        self.seed = seed
        self.B = math.ceil(W ** (1.0 - 1.0 / (self.p - 1)))
        self.alphas = alpha_coeffs(self.p, W)
        self._alpha_floats = [float(a) for a in self.alphas]
        # The ways to fill a tuple's other p - q positions from the block's
        # B - q, per q = 1..p: falling(B - q, p - q), constant per sampler.
        self._rest = [falling(self.B - q, self.p - q) for q in range(1, self.p + 1)]
        self.rng = substream(seed, "blocks")
        self.np_rng = np_substream(seed, "blocks")
        self.cap = 2 * self.B
        self.t = 0
        self._block = {}  # coord -> g_i within the current block
        self._block_len = 0
        self._block_start = 1
        self.S = {}  # (block_start, coord) -> harvested count

    def ingest(self, coords):
        for coord in coords:
            self.t += 1
            self._block[coord] = self._block.get(coord, 0) + 1
            self._block_len += 1
            if self._block_len == self.B:
                self._close_block()

    def _close_block(self):
        """Draw each block coordinate's insert count: per q, a binomial over
        the falling(g, q) falling(B - q, p - q) tuples whose first q entries
        are the coordinate, with success probability alpha_q."""
        binomial, alphas, rest = self.np_rng.binomial, self._alpha_floats, self._rest
        start, S = self._block_start, self.S
        for coord, g in self._block.items():
            total, head = 0, 1
            for q in range(self.p):
                head *= g - q  # falling(g, q + 1)
                if not head:
                    break  # and falling(g, q') = 0 for every larger q'
                trials = head * rest[q]
                if trials > 0:
                    total += int(binomial(trials, alphas[q]))
            if total:
                S[(start, coord)] = S.get((start, coord), 0) + total
        self._block = {}
        self._block_len = 0
        self._block_start = self.t + 1
        self._downsample()

    def _downsample(self):
        total = sum(self.S.values())
        while total > self.cap:
            keys = list(self.S)
            counts = np.array([self.S[k] for k in keys], dtype=np.int64)
            drop = self.np_rng.multivariate_hypergeometric(counts, min(self.B, total))
            for k, d in zip(keys, drop):
                left = self.S[k] - int(d)
                if left:
                    self.S[k] = left
                else:
                    del self.S[k]
            total = sum(self.S.values())

    def expire(self, now=None):
        now = self.t if now is None else now
        cutoff = now - self.W
        self.S = {k: v for k, v in self.S.items() if k[0] > cutoff}

    def draw(self):
        if self.t == 0:
            return SampleResult.bottom()
        self.expire()
        if not self.S:
            return SampleResult.fail()
        keys = sorted(self.S)
        weights = [self.S[k] for k in keys]
        return SampleResult.of(keys[weighted_index(weights, self.rng)][1])
