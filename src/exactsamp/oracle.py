"""Exact laws of the shipped samplers on tiny inputs, by branch enumeration.

enumerate_law runs a real sampler -- build it, feed it the stream, draw --
once per leaf of the tree of its random choices.  During the runs the random
primitives of exactrand are swapped, at every exactsamp module that binds
them, for forks at their exact laws:

* skip(r) forks over the updates still to come, Pr[J = j] = r/(j (j-1)),
  plus one branch for "beyond the stream" (Pr[J > last] = r/last), which
  every later outcome shares.  sampler_law feeds one update per process
  call and tells the enumerator the stream time t, so a bank at position r
  forks over r+1 .. last = r + (m - t) alone, however late it started;
* bernoulli_fraction(q) forks with weights q and 1 - q;
* binomial(M, q) forks over 0 .. M with weights C(M, j) q^j (1 - q)^(M - j);
* uniform_subset(N, K) forks over the C(N, K) subsets, each 1/C(N, K);
* weighted_index(w) forks over the indices of positive weight, index i with
  weight w_i / sum(w), one branch per index instead of one per unit of mass
  (the real weighted_index is one randrange over the total, which the
  forking substream below enumerates just as exactly);
* substream returns a random.Random whose uniform integer draws (randrange,
  sample -- by the pool method at every population size --, ...) fork
  uniformly, and whose random() and getrandbits() raise;
* bernoulli_bounds and np_substream raise: an irrational coin or a numpy
  generator cannot be forked with rational weights.

The skip, the binomial and the subset fork at the laws that exactrand.skip,
exactrand.binomial and exactrand.uniform_subset themselves draw exactly,
from getrandbits words, so a leaf's weight is the shipped sampler's
probability of that path.

Each run replays one path of the tree and weighs its outcome by the product
of the branch probabilities along it, so the law returned is the sampler's
own law with every primitive exact, and the exactness claim -- conditional
law G(f_i)/F_G, zero tolerance -- is checked on the code that ships.  Any
random draw the enumerator cannot fork raises UnforkedDraw; the names are put
back when the enumeration ends.

order_law runs a sampler of the random-order model the same way, on a
uniformly random order of a multiset that forks item by item (the next item
is coordinate i with probability f/r, with r items left of which f are i),
so the random-order contracts are checked on the real PairL2Sampler: f^2/W^2
per pair, and the law merged over all pairs (7/10 against f^2/F_2 = 2/3 on
the heavy coordinate at f = (2,1,1), W = 4).

Hand-written laws remain only where the enumerator cannot run a sampler:
gsampler_coefficients and matrix_coefficients, symbolic laws over the basis
{G(x)} (resp. G of row vectors), where telescoping is an identity between
coefficient vectors and holds for every measure, irrational G included.

target_distribution is the exact target {G(f_i)/F_G} of rational G.
gof_test, a chi-square and total-variation report, serves the tests that
draw from a real sampler; no float restatement of a sampler, or of G, is
kept.
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
from types import ModuleType

from . import exactrand
from .core import FAIL, INDEX

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


class _ForkingRandom(random.Random):
    """A substream whose uniform integer draws fork; other draws raise.  It
    keeps no state, so one instance serves every substream of a run."""

    def __init__(self, tree):
        super().__init__(0)
        self._tree = tree

    def _randbelow(self, n):
        return self._tree.fork(n, lambda i: (i, 1, n))

    def sample(self, population, k):
        """random.sample by its pool method at every population size: the
        same law, one fork per pick.  random.sample switches to redrawing a
        repeated pick above a set-size threshold, and the replay, which takes
        branch 0 at each new choice point, would redraw it forever."""
        pool = list(population)
        n = len(pool)
        if not 0 <= k <= n:
            raise ValueError("Sample larger than population or is negative")
        result = []
        for i in range(k):
            j = self._randbelow(n - i)
            result.append(pool[j])
            pool[j] = pool[n - i - 1]
        return result

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
        self.time = None  # the time of the update being fed, where told
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
        """J forked over r+1 .. last, plus one branch beyond, where last is r
        plus the updates still to come after the one at self.time.  With no
        time told, the bank is taken to have started with the stream
        (time = r)."""
        if self.horizon is None:
            raise UnforkedDraw("skip needs the stream length")
        last = r + self.horizon - (r if self.time is None else self.time)

        def branch(i):
            j = r + 1 + i
            return (j, r, j * (j - 1)) if j <= last else (j, r, last)

        return self.fork(last - r + 1, branch)

    def bernoulli_fraction(self, q, rng):
        if q <= 0 or q >= 1:
            return q >= 1
        a, b = q.numerator, q.denominator
        return self.fork(2, lambda i: (True, a, b) if i == 0 else (False, b - a, b))

    def binomial(self, M, q, rng):
        if q <= 0 or q >= 1:
            return M if q >= 1 else 0
        a, b = q.numerator, q.denominator
        den = b ** M
        return self.fork(M + 1, lambda j: (j, math.comb(M, j) * a ** j * (b - a) ** (M - j), den))

    def uniform_subset(self, N, K, rng):
        subsets = list(itertools.combinations(range(N), K))
        return set(self.fork(len(subsets), lambda i: (subsets[i], 1, len(subsets))))

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
                "binomial": self.binomial, "uniform_subset": self.uniform_subset,
                "weighted_index": self.weighted_index,
                "substream": self.substream,
                "subseed": functools.lru_cache(None)(exactrand.subseed),
                "bernoulli_bounds": _unforked("bernoulli_bounds"),
                "np_substream": _unforked("np_substream")}


@contextmanager
def _swapped(stand_ins):
    """Bind each named exactrand primitive to stand_ins[name] at every
    exactsamp module that binds it, and put the originals back afterwards.
    The modules are the package and its loaded submodules, each bound on
    the package as an attribute by its import."""
    package = sys.modules[__package__]
    modules = [package] + [m for m in vars(package).values() if isinstance(m, ModuleType)
                           and m.__name__.startswith(__package__ + ".")]
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
    return _law(run, _Tree(horizon))


def _law(run, tree):
    """enumerate_law on the choice tree given."""
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
    processed updates, one per process call, each at its stream time."""
    updates = list(updates)
    tree = _Tree(len(updates))

    def run():
        sampler = make()
        for t, update in enumerate(updates, 1):
            tree.time = t
            sampler.process((update,))
        return sampler.draw()

    return _law(run, tree)


def order_law(make, freqs, length=None):
    """The exact law of one draw of the sampler make() builds, after it has
    processed the first length items (all of them by default) of a
    uniformly random order of the multiset freqs (coord -> count).  The
    order forks item by item: with r items left, of which f are coordinate
    i, the next item is i with probability f/r."""
    total = sum(freqs.values())
    length = total if length is None else length
    tree = _Tree(length)

    def run():
        left = dict(sorted(freqs.items()))
        sampler = make()
        for t in range(length):
            keys = [i for i, f in left.items() if f]
            coord = tree.fork(len(keys), lambda k: (keys[k], left[keys[k]], total - t))
            left[coord] -= 1
            tree.time = t + 1
            sampler.process((coord,))
        return sampler.draw()

    return _law(run, tree)


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
