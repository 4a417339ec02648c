"""Exact laws of the shipped samplers on tiny inputs, by branch enumeration.

enumerate_law runs a real sampler -- build it, feed it the stream, draw --
once per leaf of the tree of its random choices.  During the runs the random
primitives of exactrand are swapped, at every exactsamp module that binds
them, for forks at their exact laws:

* skip(r) forks over the updates still to come, Pr[J = j] = r/(j (j-1)),
  plus one branch for "beyond the stream" (Pr[J > m] = r/m), which every
  later outcome shares;
* bernoulli_fraction(q) forks with weights q and 1 - q;
* weighted_index(w) forks over the indices of positive weight, index i with
  weight w_i / sum(w), one branch per index instead of one per unit of mass
  (the real weighted_index is one randrange over the total, which the
  forking substream below enumerates just as exactly);
* substream returns a random.Random whose uniform integer draws (randrange,
  sample, ...) fork uniformly, and whose random() and getrandbits() raise;
* bernoulli_bounds and np_substream raise: an irrational coin or a numpy
  generator cannot be forked with rational weights.

The skip forks at the law that exactrand.skip itself draws exactly, from
64-bit words, so a leaf's weight is the shipped sampler's probability of
that path.

Each run replays one path of the tree and weighs its outcome by the product
of the branch probabilities along it, so the law returned is the sampler's
own law with every primitive exact, and the exactness claim -- conditional
law G(f_i)/F_G, zero tolerance -- is checked on the code that ships.  Any
random draw the enumerator cannot fork raises UnforkedDraw; the names are put
back when the enumeration ends.

Hand-written laws remain where the enumerator cannot run a sampler, or
where the shipped sampler's law is not the one its contract states:

* gsampler_coefficients and matrix_coefficients, symbolic laws over the
  basis {G(x)} (resp. G of row vectors), where telescoping is an identity
  between coefficient vectors and holds for every measure, irrational G
  included;
* sw_lp_law, for SlidingLpSampler where its normalizer p F^{p-1} is
  irrational (the real class is enumerated where it is rational);
* pair_l2_law, the law of one designated pair over all random orders: the
  real PairL2Sampler draws only bernoulli_fraction and randrange, which the
  enumerator forks, but its law merged over all pairs is biased (7/10
  against f^2/F_2 = 2/3 on the heavy coordinate at f = (2,1,1), W = 4), so
  the f^2/W^2 contract holds per pair only;
* block_lp_law, because BlockLpSampler draws float binomials.
"""

import functools
import itertools
import math
import random
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from . import exactrand
from .core import FAIL, INDEX
from .randomorder import alpha_coeffs
from .sliding import active_bank_start

BRANCH_BUDGET = 10 ** 6


class BranchBudgetExceeded(Exception):
    pass


class UnforkedDraw(Exception):
    """A random draw that the branch enumerator has no exact fork for."""


def _budget(count):
    if count > BRANCH_BUDGET:
        raise BranchBudgetExceeded("%d branches > %d" % (count, BRANCH_BUDGET))


@dataclass
class ExactDistribution:
    probs: dict = field(default_factory=dict)  # coord -> Fraction
    mass_fail: Fraction = Fraction(0)
    mass_bottom: Fraction = Fraction(0)

    def check(self):
        total = sum(self.probs.values(), Fraction(0)) + self.mass_fail + self.mass_bottom
        assert total == 1, "masses sum to %s" % (total,)
        assert all(v >= 0 for v in self.probs.values())
        assert self.mass_fail >= 0 and self.mass_bottom >= 0

    def conditional(self):
        """Distribution conditioned on returning an index."""
        total = sum(self.probs.values(), Fraction(0))
        if total == 0:
            return {}
        return {i: v / total for i, v in self.probs.items() if v > 0}


def _coords(updates):
    return [u.coord if hasattr(u, "coord") else u for u in updates]


def target_distribution(freqs, measure):
    """Exact {G(f_i)/F_G}; freqs is a coord -> frequency dict."""
    freqs = {i: f for i, f in freqs.items() if f != 0}
    if not freqs:
        return ExactDistribution(mass_bottom=Fraction(1))
    gvals = {}
    for i, f in freqs.items():
        v = measure.g_exact(f)
        if v is None:
            raise ValueError("irrational G(%d) for %s" % (f, measure.name))
        gvals[i] = v
    fg = sum(gvals.values(), Fraction(0))
    return ExactDistribution(probs={i: v / fg for i, v in gvals.items()})


def target_float(freqs, measure):
    freqs = {i: f for i, f in freqs.items() if f != 0}
    gvals = {i: measure.g_float(f) for i, f in freqs.items()}
    fg = sum(gvals.values())
    return {i: v / fg for i, v in gvals.items()}


class _ForkingRandom(random.Random):
    """A substream whose uniform integer draws fork; other draws raise.  It
    keeps no state, so one instance serves every substream of a run."""

    def __init__(self, tree):
        super().__init__(0)
        self._tree = tree

    def _randbelow(self, n):
        return self._tree.fork(n, lambda i: (i, 1, n))

    def random(self):
        raise UnforkedDraw("random() has no exact fork")

    def getrandbits(self, k):
        raise UnforkedDraw("getrandbits() is forked only inside bernoulli_fraction")


def _unforked(name):
    def draw(*args, **kwargs):
        raise UnforkedDraw("%s has no exact fork" % name)
    return draw


class _Tree:
    """Depth-first walk over the leaves of a run's choice tree, by replay.

    A run takes the recorded branch at each choice point it reaches and
    branch 0 at each new one; next() moves to the following leaf.  The
    run's probability is kept as an integer fraction num / den.
    """

    def __init__(self, horizon):
        self.horizon = horizon  # the stream length, for skip
        self.path = []  # per choice point: [branch taken, number of branches]
        self.depth = 0
        self.num = self.den = 1
        self.rng = _ForkingRandom(self)

    def fork(self, n, branch):
        """The value of this run's branch among n > 0, where branch(i) gives
        branch i as (value, a, b) with probability a/b > 0; the n
        probabilities sum to 1."""
        if n == 1:
            return branch(0)[0]
        if self.depth == len(self.path):
            self.path.append([0, n])
        value, a, b = branch(self.path[self.depth][0])
        self.depth += 1
        self.num *= a
        self.den *= b
        return value

    def next(self):
        """Start the next leaf; False after the last one."""
        path = self.path
        while path and path[-1][0] + 1 == path[-1][1]:
            path.pop()
        if not path:
            return False
        path[-1][0] += 1
        self.depth, self.num, self.den = 0, 1, 1
        return True

    def skip(self, r, rng):
        h = self.horizon
        if h is None:
            raise UnforkedDraw("skip needs the stream length")

        def branch(i):
            j = r + 1 + i
            return (j, r, j * (j - 1)) if j <= h else (j, r, h)

        return self.fork(max(1, h - r + 1), branch)

    def bernoulli_fraction(self, q, rng):
        if q <= 0 or q >= 1:
            return q >= 1
        a, b = q.numerator, q.denominator
        return self.fork(2, lambda i: (True, a, b) if i == 0 else (False, b - a, b))

    def weighted_index(self, weights, rng):
        total = sum(weights)
        live = [i for i, w in enumerate(weights) if w]
        return self.fork(len(live), lambda k: (live[k], weights[live[k]], total))

    def substream(self, seed, *ids):
        return self.rng

    def stand_ins(self):
        """What replaces each exactrand primitive during the runs.  subseed
        keeps its values, memoized: it is a function of its arguments alone,
        and every substream it seeds is forked anyway."""
        return {"skip": self.skip, "bernoulli_fraction": self.bernoulli_fraction,
                "weighted_index": self.weighted_index, "substream": self.substream,
                "subseed": functools.lru_cache(None)(exactrand.subseed),
                "bernoulli_bounds": _unforked("bernoulli_bounds"),
                "np_substream": _unforked("np_substream")}


@contextmanager
def _swapped(stand_ins):
    """Bind each named exactrand primitive to stand_ins[name] at every
    exactsamp module that binds it, and put the originals back afterwards."""
    prefix = __name__.rpartition(".")[0]
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == prefix or k.startswith(prefix + "."))]
    saved = []
    try:
        for name, stand_in in stand_ins.items():
            original = getattr(exactrand, name)
            for mod in modules:
                if mod.__dict__.get(name) is original:
                    saved.append((mod, name, original))
                    setattr(mod, name, stand_in)
        yield
    finally:
        for mod, name, original in saved:
            setattr(mod, name, original)


def enumerate_law(run, horizon=None):
    """The exact law of run(), a call that returns a SampleResult, over every
    branch of its random choices.

    horizon is the stream length, which the reservoir skip needs.  Raises
    UnforkedDraw on a random draw with no exact fork and BranchBudgetExceeded
    above BRANCH_BUDGET leaves.
    """
    tree = _Tree(horizon)
    law = ExactDistribution()
    leaves = 0
    with _swapped(tree.stand_ins()):
        while True:
            leaves += 1
            _budget(leaves)
            res = run()
            w = Fraction(tree.num, tree.den)
            if res.outcome == INDEX:
                law.probs[res.index] = law.probs.get(res.index, 0) + w
            elif res.outcome == FAIL:
                law.mass_fail += w
            else:
                law.mass_bottom += w
            if not tree.next():
                break
    law.check()
    return law


def sampler_law(make, updates):
    """The exact law of one draw of the sampler make() builds, after it has
    processed updates."""
    updates = list(updates)

    def run():
        sampler = make()
        sampler.process(updates)
        return sampler.draw()

    return enumerate_law(run, len(updates))


def _strict_after_counts(coords):
    """Per position, occurrences of the same coordinate strictly after it."""
    seen = defaultdict(int)
    out = [0] * len(coords)
    for t in range(len(coords) - 1, -1, -1):
        out[t] = seen[coords[t]]
        seen[coords[t]] += 1
    return out


def gsampler_coefficients(updates, inclusive=False):
    """Symbolic law: coord -> {x: coeff} meaning
    law[coord] * (m * zeta) = sum coeff[x] * G(x).  Exact telescoping holds
    iff this equals {f_coord: 1} per coordinate (G(0) terms dropped)."""
    coords = _coords(updates)
    m = len(coords)
    out = defaultdict(lambda: defaultdict(Fraction))
    for coord, after in zip(coords, _strict_after_counts(coords)):
        c = after + 1 if inclusive else after
        out[coord][c + 1] += 1
        out[coord][c] -= 1
    return {i: {x: v for x, v in d.items() if v != 0 and x != 0}
            for i, d in out.items()}


def matrix_coefficients(updates, d):
    """Symbolic law over the basis {G(v)} for row vectors v (as tuples):
    law[row] * (m * zeta) = sum coeff[v] * G(v); telescoping holds iff this
    equals {row vector of row: 1} (zero vectors dropped)."""
    ups = [(u.coord, u.col) for u in updates]
    out = defaultdict(lambda: defaultdict(Fraction))
    for t, (row, col) in enumerate(ups):
        v = [0] * d
        for r2, c2 in ups[t + 1:]:
            if r2 == row:
                v[c2 - 1] += 1
        plus = list(v)
        plus[col - 1] += 1
        out[row][tuple(plus)] += 1
        out[row][tuple(v)] -= 1
    return {r: {vec: cf for vec, cf in dd.items() if cf != 0 and any(vec)}
            for r, dd in out.items()}


def sw_lp_law(updates, W, p, F):
    """One SlidingLpSampler repetition with normalizer F given: a uniform
    position of the checkpoint bank the draw reads (it starts at
    active_bank_start), live when inside the window, accepted with
    probability ((c+1)^p - c^p)/(p F^{p-1}); integer p and rational F only
    (the exact battery's regime)."""
    p = int(p)
    F = Fraction(F)
    coords = _coords(updates)
    t_end = len(coords)
    if t_end == 0:
        return ExactDistribution(mass_bottom=Fraction(1))
    start = active_bank_start(t_end, W)
    sub = coords[start - 1:]
    L = len(sub)
    _budget(L * L)
    after = _strict_after_counts(sub)
    den = p * F ** (p - 1)
    law = defaultdict(Fraction)
    per_pos = Fraction(1, L)
    cutoff = t_end - W
    for idx, coord in enumerate(sub):
        if start + idx <= cutoff:
            continue
        c = after[idx]
        acc = (Fraction(c + 1) ** p - Fraction(c) ** p) / den
        assert acc <= 1, "F below the window L_p"
        law[coord] += per_pos * acc
    dist = ExactDistribution(probs=dict(law))
    dist.mass_fail = 1 - sum(law.values(), Fraction(0))
    dist.check()
    return dist


def _arrangements(freqs):
    pool = []
    count = math.factorial(sum(freqs.values()))
    for i in sorted(freqs):
        pool.extend([i] * freqs[i])
        count //= math.factorial(freqs[i])
    _budget(count)
    arrs = set(itertools.permutations(pool))
    assert len(arrs) == count
    return arrs


def pair_l2_law(freqs, W):
    """Law of the designated first pair, averaged over all random orders.

    Under a uniform order Pr[harvest j] = f_j^2 / W^2 exactly; the multi-pair
    merge is only asymptotically unbiased, so the single-repetition contract
    is per pair.
    """
    total = sum(freqs.values())
    if total == 0:
        return ExactDistribution(mass_bottom=Fraction(1))
    if total != W or W < 2:
        raise ValueError("pair law needs the full window (W >= 2) as input")
    arrs = _arrangements(freqs)
    weight = Fraction(1, len(arrs))
    law = defaultdict(Fraction)
    inv_w = Fraction(1, W)
    for arr in arrs:
        x, y = arr[0], arr[1]
        q = inv_w + (1 - inv_w) * (1 if x == y else 0)
        law[x] += weight * q
    dist = ExactDistribution(probs=dict(law))
    dist.mass_fail = 1 - sum(law.values(), Fraction(0))
    dist.check()
    return dist


def block_lp_law(freqs, W, p):
    """Expected harvest mass of the designated first p-tuple (positions
    1..p of the first block), averaged over random orders.  Masses total
    F_p / W^p; the conditional is the sampler's per-tuple law."""
    p = int(p)
    total = sum(freqs.values())
    if total == 0:
        return ExactDistribution(mass_bottom=Fraction(1))
    if total != W or W < p:
        raise ValueError("block law needs the full window (W >= p) as input")
    alphas = alpha_coeffs(p, W)
    arrs = _arrangements(freqs)
    weight = Fraction(1, len(arrs))
    law = defaultdict(Fraction)
    for arr in arrs:
        head = arr[:p]
        for q in range(1, p + 1):
            if all(h == head[0] for h in head[:q]):
                law[head[0]] += weight * alphas[q - 1]
    dist = ExactDistribution(probs=dict(law))
    dist.mass_fail = 1 - sum(law.values(), Fraction(0))
    dist.check()
    return dist


@dataclass
class GofReport:
    n_samples: int
    statistic: float
    dof: int
    pvalue: float
    tv: float
    pooled_cells: int


def gof_test(histogram, target, min_expected=50):
    """Chi-square goodness of fit plus total-variation distance.

    histogram: coord -> observed count; target: coord -> probability
    (Fraction or float).  Cells with expected count below min_expected are
    pooled into one.
    """
    if not histogram or sum(histogram.values()) == 0:
        raise ValueError("empty histogram")
    n = sum(histogram.values())
    keys = set(histogram) | set(target)
    obs, exp = [], []
    tv = 0.0
    for k in sorted(keys):
        p = float(target.get(k, 0.0))
        o = histogram.get(k, 0)
        tv += abs(o / n - p)
        if p == 0.0:
            if o:
                return GofReport(n, float("inf"), 0, 0.0, tv / 2, 0)
            continue
        obs.append(o)
        exp.append(p * n)
    # Pool small expected cells.
    big_o, big_e, pool_o, pool_e = [], [], 0.0, 0.0
    for o, e in sorted(zip(obs, exp), key=lambda t: t[1]):
        if e < min_expected:
            pool_o += o
            pool_e += e
        else:
            big_o.append(o)
            big_e.append(e)
    if pool_e > 0:
        big_o.append(pool_o)
        big_e.append(pool_e)
    # Normalize tiny float drift in expected totals.
    scale = n / sum(big_e)
    big_e = [e * scale for e in big_e]
    dof = len(big_o) - 1
    if dof <= 0:
        return GofReport(n, 0.0, 0, 1.0, tv / 2, len(big_o))
    stat = sum((o - e) ** 2 / e for o, e in zip(big_o, big_e))
    from scipy.stats import chi2  # here, so that importing the package skips scipy

    return GofReport(n, stat, dof, float(chi2.sf(stat, dof)), tv / 2, len(big_o))
