"""Truly perfect samplers for random-order streams.

Pair sampler (L2): the stream is split into disjoint adjacent pairs
(u_1,u_2), (u_3,u_4), ...  For each pair, with probability 1/W the first
element is harvested outright; otherwise it is harvested only on a collision
(both elements equal).  Under a uniformly random order each pair harvests
coordinate j with probability exactly f_j^2/W^2.  The outright coins are
drawn per group of G = max(1, W // 2) consecutive pairs (a window's worth),
fixed by stream time: when a group's first pair completes, K = Bin(G, 1/W)
and a uniform K-subset of the group's offsets name its outright pairs.
Pr[subset = A] = (1/W)^|A| (1 - 1/W)^(G - |A|), the law of G independent
1/W coins, so a pair pays only its collision test, and since the groups
depend on stream time alone, every batch split leaves the same state.

Block sampler (integer p > 2): the stream is split into blocks of
B = ceil(W^{1-1/(p-1)}) consecutive elements.  Conceptually every ordered
p-tuple of distinct positions inside a block whose first q entries agree
inserts that value into S with probability alpha_q = S(p,q) (W)_q / W^p
(Stirling numbers of the second kind turn the falling-factorial match
probabilities back into f^p: x^p = sum_k S(p,k) (x)_k).  Rather than
enumerating B^p tuples, the per-block tuple counts are computed from the
within-block frequencies g_i, and each tuple size q draws one exact binomial
over all of the block's T_q tuples, whose successes are a uniform subset of
the tuples, each credited to the coordinate that heads it.  Independent
Bin(w_i, alpha_q) summed over i is Bin(T_q, alpha_q), and given the total the
successes are a uniform subset, so the per-coordinate counts have the law of
one binomial per coordinate.  When the harvest outgrows its cap, a uniform
subset of its items is removed (a multivariate hypergeometric draw), and
only the block's items that stay are placed on tuples, so a block costs
about the same however many items it inserts.  Every draw is
exactrand.binomial or exactrand.uniform_subset, so the laws are exact and
the enumerator forks them.

Both samplers return a uniformly random element of the harvested multiset S
and Fail when S is empty.
"""

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate

from .core import SampleResult, UnitUpdates, check_window
from .exactrand import binomial, substream, uniform_subset, weighted_index

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


def check_cap_config(n, W):
    check_window(W)
    if n ** CAP_CONSTANT <= W:
        raise ValueError("cap constant too small: need n^C > W (n=%d, W=%d, C=%d)"
                         % (n, W, CAP_CONSTANT))


class PairL2Sampler(UnitUpdates):
    """Adjacent-pair L2 sampler for random-order streams of length W."""

    def __init__(self, n, W, seed=0):
        check_cap_config(n, W)
        self.n = n
        self.W = W
        self.seed = seed
        self.rng = substream(seed, "pairs")
        self._q = Fraction(1, W)  # the outright-harvest probability
        self.G = max(1, W // 2)  # pairs per group of outright coins
        log_n = max(1, math.ceil(math.log(max(n, 2))))
        self.cap = 2 * CAP_CONSTANT * log_n
        self.downsample = CAP_CONSTANT * log_n
        self.t = 0
        self._pending = None  # first element of the current pair
        self._group_end = 0  # the last pair of the current group
        self._outright = set()  # the current group's outright pairs
        self.S = []  # (coord, harvest time)

    def ingest(self, coords):
        t, first, rng, G = self.t, self._pending, self.rng, self.G
        group_end, outright = self._group_end, self._outright
        for coord in coords:
            t += 1
            if first is None:
                first = coord
                continue
            k = t // 2  # pair k is updates 2k - 1 and 2k
            if k > group_end:  # the first pair of the next group
                outright = {k + i for i in uniform_subset(G, binomial(G, self._q, rng), rng)}
                group_end = k + G - 1
            if k in outright or first == coord:
                self._harvest(first, t - 1)
            first = None
        self.t, self._pending = t, first
        self._group_end, self._outright = group_end, outright

    def _harvest(self, coord, t):
        self.S.append((coord, t))
        if len(self.S) > self.cap:
            for _ in range(self.downsample):
                self.S.pop(self.rng.randrange(len(self.S)))

    def expire(self):
        cutoff = self.t - self.W
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

    def __init__(self, n, W, p, seed=0):
        if p != int(p) or p < 3:
            raise ValueError("block sampler needs integer p >= 3")
        check_cap_config(n, W)
        self.n = n
        self.W = W
        self.p = int(p)
        self.seed = seed
        self.B = math.ceil(W ** (1.0 - 1.0 / (self.p - 1)))
        self.alphas = alpha_coeffs(self.p, W)
        # Per q = 1..p: the binomial's success probability, alpha_q or, when
        # alpha_q > 1/2, 1 - alpha_q with the draw counting failures; and
        # falling(B - q, p - q), the ways to fill a tuple's other p - q
        # positions from the block's B - q, constant per sampler.
        self._tuples = [(1 - a if 2 * a > 1 else a, 2 * a > 1, falling(self.B - q, self.p - q))
                        for q, a in enumerate(self.alphas, 1)]
        self.rng = substream(seed, "blocks")
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
        """Draw the block's insertions and fold them into the harvest.

        Per tuple size q, the block has w_i = falling(g_i, q)
        falling(B - q, p - q) tuples whose first q entries are coordinate i,
        T = sum w_i in all, each inserting i with probability alpha_q: one
        binomial counts the insertions, which sit on a uniform subset of the
        T tuples.  Past the cap, the harvest loses min(B, total) items chosen
        uniformly without replacement until it is within the cap again:
        together one uniform subset of B ceil((total - cap) / B) old and new
        items, drawn as positions in S's order and then q's.  A new item left
        in is a uniform pick among its q's tuples, so only the kept ones are
        placed, each mapped to its coordinate by bisect over the cumulative
        w, and a block's cost does not grow with the items it inserts."""
        rng, S, B = self.rng, self.S, self.B
        new, live = [], [(coord, g, 1) for coord, g in self._block.items()]
        for q, (prob, failures, rest) in enumerate(self._tuples):
            # (coord, g, falling(g, q + 1)) for the coordinates with g > q
            live = [(coord, g, head * (g - q)) for coord, g, head in live if g > q]
            if not live:
                break
            cum = list(accumulate(head * rest for _, _, head in live))
            drawn = binomial(cum[-1], prob, rng)
            new.append([live, cum, cum[-1] - drawn if failures else drawn])
        keys = list(S)
        ends = list(accumulate([*S.values(), *(inserts for _, _, inserts in new)]))
        total = ends[-1] if ends else 0
        if total > self.cap:
            drop = B * -(-(total - self.cap) // B)
            picked = Counter(bisect_right(ends, item)
                             for item in uniform_subset(total, min(drop, total - drop), rng))
            if 2 * drop <= total:  # the picked items leave
                for at, d in picked.items():
                    if at >= len(keys):
                        new[at - len(keys)][2] -= d
                    elif S[keys[at]] > d:
                        S[keys[at]] -= d
                    else:
                        del S[keys[at]]
            else:  # the picked items stay
                self.S = S = {keys[at]: d for at, d in picked.items() if at < len(keys)}
                for at, segment in enumerate(new, len(keys)):
                    segment[2] = picked.get(at, 0)
        start = self._block_start
        for live, cum, kept in new:
            for trial in uniform_subset(cum[-1], kept, rng):
                key = (start, live[bisect_right(cum, trial)][0])
                S[key] = S.get(key, 0) + 1
        self._block = {}
        self._block_len = 0
        self._block_start = self.t + 1

    def expire(self):
        cutoff = self.t - self.W
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
