"""Exact-rational enumeration of sampler branch trees on tiny inputs.

The telescoping proofs behind every sampler here reduce to finite sums over
(reservoir position, acceptance) branches.  This module mechanizes those sums
with exact rationals, producing the unconditional law of a single repetition,
so the headline exactness claim -- conditional law equals G(f_i)/F_G with
zero tolerance -- is directly falsifiable.

For measures whose G takes irrational values the same enumeration runs
symbolically: laws are returned as rational coefficient vectors over the
basis {G(0), G(1), ...} (resp. G of row vectors), where telescoping is an
identity between coefficient vectors and needs no numeric evaluation.

A counter-convention switch reproduces the literal-pseudocode mutant (the
counter includes the sampled occurrence itself); its law telescopes to
G(f_i + 1) - G(1) instead of G(f_i), and the exactness battery must reject
it.
"""

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .randomorder import alpha_coeffs
from .sliding import active_bank_start

BRANCH_BUDGET = 10 ** 6


class BranchBudgetExceeded(Exception):
    pass


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


def _g_table(measure, top):
    tab = []
    for x in range(top + 1):
        v = measure.g_exact(x)
        if v is None:
            raise ValueError("G(%d) is irrational for %s; use the symbolic "
                             "enumeration instead" % (x, measure.name))
        tab.append(v)
    return tab


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


def _strict_after_counts(coords):
    """Per position, occurrences of the same coordinate strictly after it."""
    seen = defaultdict(int)
    out = [0] * len(coords)
    for t in range(len(coords) - 1, -1, -1):
        out[t] = seen[coords[t]]
        seen[coords[t]] += 1
    return out


def gsampler_law(updates, measure, zeta, inclusive=False):
    coords = _coords(updates)
    m = len(coords)
    if m == 0:
        return ExactDistribution(mass_bottom=Fraction(1))
    _budget(m)
    zeta = Fraction(zeta)
    gtab = _g_table(measure, max(_strict_after_counts(coords)) + 2 + (1 if inclusive else 0))
    law = defaultdict(Fraction)
    per_pos = Fraction(1, m)
    for t, (coord, after) in enumerate(zip(coords, _strict_after_counts(coords))):
        c = after + 1 if inclusive else after
        law[coord] += per_pos * (gtab[c + 1] - gtab[c]) / zeta
    dist = ExactDistribution(probs=dict(law))
    dist.mass_fail = 1 - sum(law.values(), Fraction(0))
    dist.check()
    return dist


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


def matrix_law(updates, measure, zeta=None):
    """updates: iterable of Update with coord=row, col set. Requires rational
    G along the branch tree (use matrix_coefficients otherwise)."""
    ups = [(u.coord, u.col) for u in updates]
    m = len(ups)
    if m == 0:
        return ExactDistribution(mass_bottom=Fraction(1))
    _budget(m * m)
    zeta = Fraction(zeta if zeta is not None else measure.zeta)
    law = defaultdict(Fraction)
    per_pos = Fraction(1, m)
    for t, (row, col) in enumerate(ups):
        v = defaultdict(int)
        for r2, c2 in ups[t + 1:]:
            if r2 == row:
                v[c2] += 1
        cols = sorted(set(v) | {col})
        vec = [v[c] for c in cols]
        plus = [v[c] + (1 if c == col else 0) for c in cols]
        ga, gb = measure.g_exact(plus), measure.g_exact(vec)
        if ga is None or gb is None:
            raise ValueError("irrational row G; use matrix_coefficients")
        law[row] += per_pos * (ga - gb) / zeta
    dist = ExactDistribution(probs=dict(law))
    dist.mass_fail = 1 - sum(law.values(), Fraction(0))
    dist.check()
    return dist


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


def sw_gsampler_law(updates, W, measure, zeta, inclusive=False):
    """Law of one repetition of the bank used by a draw at stream end."""
    coords = _coords(updates)
    t_end = len(coords)
    if t_end == 0:
        return ExactDistribution(mass_bottom=Fraction(1))
    start = active_bank_start(t_end, W)
    sub = coords[start - 1:]
    L = len(sub)
    _budget(L * L)
    zeta = Fraction(zeta)
    after = _strict_after_counts(sub)
    gtab = _g_table(measure, max(after) + 2 + (1 if inclusive else 0))
    law = defaultdict(Fraction)
    per_pos = Fraction(1, L)
    cutoff = t_end - W
    for idx, coord in enumerate(sub):
        if start + idx <= cutoff:
            continue  # expired sample: rejected
        c = after[idx] + 1 if inclusive else after[idx]
        law[coord] += per_pos * (gtab[c + 1] - gtab[c]) / zeta
    dist = ExactDistribution(probs=dict(law))
    dist.mass_fail = 1 - sum(law.values(), Fraction(0))
    dist.check()
    return dist


def sw_lp_law(updates, W, p, F):
    """Sliding L_p repetition with acceptance ((c+1)^p - c^p)/(p F^{p-1});
    integer p and rational F only (the exact battery's regime)."""
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


def _chunk_q(n, g, K):
    """Chunks per cell: ceil(n^g), at least 2, raised until q^K >= n."""
    import math
    if g >= 1:
        return n
    q = max(2, math.ceil(n ** g - 1e-9))
    while q ** K < n:
        q += 1
    return q


def _chunk_intervals(lo, hi, q):
    size = hi - lo + 1
    step = -(-size // q)
    out = []
    a = lo
    while a <= hi:
        out.append((a, min(a + step - 1, hi)))
        a = out[-1][1] + 1
    return out


def _interval_mass(freqs, lo, hi):
    return sum(f for i, f in freqs.items() if lo <= i <= hi)


def multipass_chain_prob(freqs, n, gamma, coord):
    """Product of chunk-selection probabilities along coord's chain."""
    import math
    g = float(gamma)
    K = math.ceil(1.0 / g - 1e-12)
    q = _chunk_q(n, g, K)
    lo, hi = 1, n
    prob = Fraction(1)
    for _ in range(K):
        parts = _chunk_intervals(lo, hi, q)
        total = _interval_mass(freqs, lo, hi)
        if total == 0:
            return Fraction(0)
        for a, b in parts:
            if a <= coord <= b:
                prob *= Fraction(_interval_mass(freqs, a, b), total)
                lo, hi = a, b
                break
    assert lo == hi == coord or prob == 0
    return prob


def multipass_z(freqs, n, gamma, p):
    """Mirror of the heavy-chunk narrowing, computed from the vector."""
    import math
    g = float(gamma)
    K = math.ceil(1.0 / g - 1e-12)
    q = _chunk_q(n, g, K)
    m = sum(freqs.values())
    k = max(1, math.ceil(n ** (1.0 - 1.0 / float(p)) - 1e-9))
    thr = Fraction(m, k) if m else Fraction(0)
    if thr == 0:
        return Fraction(0)
    candidates = [(1, n)]
    best = 0
    for _ in range(K):
        parts = []
        for lo, hi in candidates:
            parts.extend(_chunk_intervals(lo, hi, q))
        candidates = []
        for a, b in parts:
            s = _interval_mass(freqs, a, b)
            if s >= thr:
                candidates.append((a, b))
                if a == b:
                    best = max(best, s)
        if not candidates:
            break
    return max(Fraction(best), thr)


def multipass_law(freqs, n, gamma, p=1):
    """Single-chain law of the multipass sampler (p = 1 or 2)."""
    freqs = {i: f for i, f in freqs.items() if f != 0}
    if not freqs:
        return ExactDistribution(mass_bottom=Fraction(1))
    _budget(sum(freqs.values()) * len(freqs))
    law = {}
    if p == 1:
        for i in freqs:
            law[i] = multipass_chain_prob(freqs, n, gamma, i)
        dist = ExactDistribution(probs=law)
        dist.mass_fail = 1 - sum(law.values(), Fraction(0))
        dist.check()
        return dist
    if p != 2:
        raise ValueError("multipass law implemented for p in {1, 2}")
    Z = multipass_z(freqs, n, gamma, p)
    zeta = 2 * Z
    for i, f in freqs.items():
        chain = multipass_chain_prob(freqs, n, gamma, i)
        acc = Fraction(0)
        for j in range(1, f + 1):
            c = f - j
            acc += Fraction(1, f) * Fraction((c + 1) ** 2 - c ** 2) / zeta
        law[i] = chain * acc
    dist = ExactDistribution(probs=law)
    dist.mass_fail = 1 - sum(law.values(), Fraction(0))
    dist.check()
    return dist


def enumerate_single_repetition(updates, spec):
    """Dispatch on spec['kind']; see the per-kind functions for parameters."""
    kind = spec["kind"]
    if kind == "gsampler":
        return gsampler_law(updates, spec["measure"], spec["zeta"],
                            inclusive=spec.get("inclusive", False))
    if kind == "matrixsampler":
        return matrix_law(updates, spec["measure"], spec.get("zeta"))
    if kind == "sw_gsampler":
        return sw_gsampler_law(updates, spec["W"], spec["measure"], spec["zeta"],
                               inclusive=spec.get("inclusive", False))
    if kind == "sw_lp":
        return sw_lp_law(updates, spec["W"], spec["p"], spec["F"])
    if kind == "pair_l2":
        return pair_l2_law(spec["freqs"], spec["W"])
    if kind == "block_lp":
        return block_lp_law(spec["freqs"], spec["W"], spec["p"])
    if kind == "multipass":
        return multipass_law(spec["freqs"], spec["n"], spec["gamma"],
                             spec.get("p", 1))
    raise ValueError("unknown sampler kind %r" % kind)


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
