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
* bernoulli_ratio(num, den) forks with weights num/den and 1 - num/den, and
  so does bernoulli_fraction(q), which draws through it;
* binomial(M, q) forks over 0 .. M with weights C(M, j) q^j (1 - q)^(M - j);
* uniform_subset(N, K) forks over the C(N, K) subsets, each 1/C(N, K);
* weighted_index(w) forks over the indices of positive weight, index i with
  weight w_i / sum(w), one branch per index instead of one per unit of mass
  (the real weighted_index is one randrange over the total, which the
  forking substream below enumerates just as exactly);
* substream returns a random.Random whose uniform integer draws
  (randrange, randint, choice, ...) fork uniformly, and whose random() and
  getrandbits() raise.  Its sample() is not forked: above a set-size
  threshold it redraws a repeated pick, which the replay below would redraw
  forever, so the samplers draw subsets with uniform_subset;
* bernoulli_bounds raises: an irrational coin cannot be forked with
  rational weights -- except the acceptance coin of symbolic_law below.

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

symbolic_law and symbolic_sampler_law run a sampler the same way with its
acceptance coin kept symbolic, so the samplers whose coin is irrational
(Fair, L1-L2, L_p at fractional p, L2 rows) are checked on the code that
ships too.  gsampler.acceptance is swapped, wherever it is bound, for a
stand-in that returns the coin of state c, x_c = (G(after) - G(before))/zeta
with (before, after) = measure.step(c), left unevaluated; bernoulli_bounds
forks that coin into accept and reject, weighted x_c and 1 - x_c.  At R = 1
a leaf meets at most one coin (a second one raises UnforkedDraw), so the law
of each outcome is a linear form over the x_c, and in_g_basis writes zeta
times it over the basis {G(x)}.  Every leaf must read one zeta.  A sampler
reads G only through its coins, so one enumeration per stream certifies
every measure whose zeta comes from the same source: GSampler's index i is
{f_i: 1/m} for Fair (a static zeta) and for L_{3/2} (Misra-Gries) alike.
That zeta bounds every increment is a separate condition, which the
stand-in does not check.

target_distribution is the exact target {G(f_i)/F_G} of rational G.  No
float restatement of a sampler, or of G, is kept; the chi-square report for
the tests that draw from a real sampler many times lives with the tests.
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

from . import exactrand, gsampler
from .core import BOTTOM, FAIL, INDEX

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

    def random(self):
        raise UnforkedDraw("random() has no exact fork")

    def getrandbits(self, k):
        raise UnforkedDraw("getrandbits() is forked only inside bernoulli_ratio")


ONE = "1"  # the constant term of a linear form over the acceptance coins


class _Coin:
    """What symbolic acceptance returns in place of a refine: the coin x_c of
    state c at zeta = (zeta_exact, zeta_bounds), which the enumerator's
    bernoulli_bounds forks.  It has no bracket to give."""

    __slots__ = ("c", "zeta")

    def __init__(self, c, zeta):
        self.c, self.zeta = c, zeta

    def __call__(self, k):
        raise UnforkedDraw("the symbolic coin of state %r has no bracket" % (self.c,))


class _Tree:
    """Depth-first walk over the leaves of a run's choice tree, by replay.

    A run takes the recorded branch at each choice point it reaches and
    branch 0 at each new one; next() moves to the following leaf.  The
    run's probability is kept as an integer fraction num / den.
    """

    def __init__(self, horizon, symbolic=False):
        self.horizon = horizon  # the stream length, for skip
        self.symbolic = symbolic  # whether acceptance returns a _Coin
        self.time = None  # the time of the update being fed, where told
        self.path = []  # per choice point: [branch taken, number of branches]
        self.depth = 0
        self.num = self.den = 1
        self.coin = None  # this leaf's (state c, accepted), once it meets a coin
        self.zeta = None  # the zeta of every coin
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
        self.depth, self.num, self.den, self.coin = 0, 1, 1, None
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

    def bernoulli_ratio(self, num, den, rng):
        if num <= 0 or num >= den:
            return num >= den
        return self.fork(2, lambda i: (True, num, den) if i == 0 else (False, den - num, den))

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

    def acceptance(self, measure, c, zeta_exact, zeta_bounds):
        return _Coin(c, (zeta_exact, zeta_bounds))

    def bernoulli_bounds(self, refine, rng):
        """The symbolic coin forks into accept and reject at weight 1 each:
        its weight, x_c or 1 - x_c, goes into the leaf's form (see _law).
        Any other refine, and a second coin on one leaf, whose form would
        not be linear in the x_c, raise UnforkedDraw."""
        if not isinstance(refine, _Coin):
            raise UnforkedDraw("bernoulli_bounds has no exact fork")
        if self.coin is not None:
            raise UnforkedDraw("a second acceptance coin on one leaf")
        if self.zeta is None:
            self.zeta = refine.zeta
        assert refine.zeta == self.zeta, "coins at zeta %r and %r" % (self.zeta, refine.zeta)
        accepted = self.fork(2, lambda i: (i == 0, 1, 1))
        self.coin = refine.c, accepted
        return accepted

    def stand_ins(self):
        """What replaces each primitive during the runs, under the module
        that defines it.  subseed keeps its values, memoized: it is a
        function of its arguments alone, and every substream it seeds is
        forked anyway."""
        swaps = {exactrand: {
            "skip": self.skip, "bernoulli_ratio": self.bernoulli_ratio,
            "binomial": self.binomial, "uniform_subset": self.uniform_subset,
            "weighted_index": self.weighted_index, "substream": self.substream,
            "subseed": functools.lru_cache(None)(exactrand.subseed),
            "bernoulli_bounds": self.bernoulli_bounds}}
        if self.symbolic:
            swaps[gsampler] = {"acceptance": self.acceptance}
        return swaps


@contextmanager
def _swapped(stand_ins):
    """Bind each name of stand_ins, {home module: {name: stand-in}}, to its
    stand-in at every exactsamp module that binds the home module's
    original, and put the originals back afterwards.  The modules are the
    package and its loaded submodules, each bound on the package as an
    attribute by its import."""
    package = sys.modules[__package__]
    modules = [package] + [m for m in vars(package).values() if isinstance(m, ModuleType)
                           and m.__name__.startswith(__package__ + ".")]
    saved = []
    try:
        for home, names in stand_ins.items():
            for name, stand_in in names.items():
                original = getattr(home, name)
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
    return _distribution(_law(run, _Tree(horizon)))


def symbolic_law(run, horizon=None):
    """enumerate_law with the acceptance coin kept symbolic: per outcome (an
    index, FAIL or BOTTOM) the linear form {term: weight} of its
    probability, where a term is ONE or the state c of a coin, read as x_c.
    A second coin on one leaf raises UnforkedDraw."""
    return _law(run, _Tree(horizon, symbolic=True))


def _law(run, tree):
    """The law of run() over every leaf of tree, as symbolic_law gives it.
    A leaf adds its weight w to its outcome's form: at ONE when it met no
    coin, w x_c when it met coin c and accepted, w (1 - x_c) when it
    rejected.  Zero terms are dropped."""
    forms = defaultdict(lambda: defaultdict(Fraction))
    leaves = 0
    with _swapped(tree.stand_ins()):
        while True:
            leaves += 1
            _budget(leaves)
            res = run()
            w = Fraction(tree.num, tree.den)
            form = forms[res.index if res.outcome == INDEX else res.outcome]
            c, accepted = tree.coin or (ONE, True)
            form[c] += w if accepted else -w
            if not accepted:
                form[ONE] += w
            if not tree.next():
                break
    return {outcome: {term: w for term, w in form.items() if w}
            for outcome, form in forms.items()}


def _distribution(forms):
    """The ExactDistribution of a law that met no coin."""
    law = ExactDistribution()
    for outcome, form in forms.items():
        (w,) = form.values()  # the term ONE alone
        if outcome == FAIL:
            law.mass_fail = w
        elif outcome == BOTTOM:
            law.mass_bottom = w
        else:
            law.probs[outcome] = w
    law.check()
    return law


def in_g_basis(form, measure):
    """zeta times a form of coins, over the basis {G(x)}: x -> coefficient.

    Coin c is x_c = (G(after) - G(before))/zeta with (before, after) =
    measure.step(c), a scalar or a row vector (a tuple here).  Terms in
    G(0) = 0 and zero coefficients are dropped; a constant term raises
    ValueError, having no form over {G(x)}."""
    out = defaultdict(Fraction)
    for c, w in form.items():
        if c == ONE:
            raise ValueError("a constant term has no G-basis form")
        before, after = measure.step(c)
        out[tuple(after) if isinstance(after, list) else after] += w
        out[before] -= w
    return {x: w for x, w in out.items() if w and (any(x) if isinstance(x, tuple) else x)}


def _fed(make, updates, symbolic):
    """_law of one draw of the sampler make() builds, after it has processed
    updates, one per process call, each at its stream time."""
    updates = list(updates)
    tree = _Tree(len(updates), symbolic)

    def run():
        sampler = make()
        for t, update in enumerate(updates, 1):
            tree.time = t
            sampler.process((update,))
        return sampler.draw()

    return _law(run, tree)


def sampler_law(make, updates):
    """The exact law of one draw of the sampler make() builds, after it has
    processed updates, one per process call, each at its stream time."""
    return _distribution(_fed(make, updates, False))


def symbolic_sampler_law(make, updates):
    """sampler_law with the acceptance coin kept symbolic, as symbolic_law
    gives it."""
    return _fed(make, updates, True)


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

    return _distribution(_law(run, tree))
