"""Exactness checkers, one per sampler family, and the battery they run.

A checker takes one input -- a stream, a (stream, W) pair, matrix cells, a
random-order window, or a frequency vector -- runs the shipped sampler on it
(at R = 1 where it has repetitions) through the branch enumerator, and
returns a VerifyReport that compares the law against its target:

* exact rationals (oracle.sampler_law, order_law, enumerate_law) where the
  acceptance coin is rational: the conditional law must equal the target,
  and where a fail-mass rule is known (GSampler, MatrixSampler, the
  checkpointed and sliding L_p samplers, multipass L_p, F0, Tukey, the
  first pair's harvest) the fail mass must meet it and the bottom mass be
  0.  A rule's zeta is derived from the input, never read back from the
  sampler: a sampler that reads a larger zeta keeps its conditional law
  and fails more often, which only the fail mass shows;
* the coin kept symbolic (oracle.symbolic_sampler_law, symbolic_law) where
  it is not: index i's form, times zeta over the basis {G(x)}, must be
  kappa G(f_i), with kappa = 1/m (1/L over a window's bank of L
  positions) where the sampler fixes it and one kappa > 0 for every i
  elsewhere.

QUICK is the battery `exactsamp verify` runs: (report name, input id,
checker, input) rows, mapped through the checkers.  The Tier-1 exact-law
sweeps call the same checkers on every tiny input.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from . import oracle
from .core import BOTTOM, FAIL, Update, fair_measure, huber_measure, lp_measure, tukey_measure
from .f0sampler import F0Sampler, F0State, TukeySampler
from .gsampler import GSampler, lp_zeta
from .heavyhitters import MGSummary, mg_budget, z_ratio
from .matrixsampler import L1RowMeasure, L2RowMeasure, MatrixSampler
from .multipass import ReplayableStream, multipass_l1_draw, multipass_lp_draw, narrow_z
from .oracle import target_distribution
from .randomorder import PairL2Sampler
from .sliding import CheckpointedSampler, SlidingLpSampler, active_bank_start

N = 3  # the tiny streams' coordinates are 1..N


@dataclass
class VerifyReport:
    sampler: str
    stream_id: str
    conditional_law: dict  # index -> probability, or its G-basis form
    target_law: dict
    ok: bool
    checks: str = "draw"  # the law checked: draw()'s, or a named component's
    mass_fail: Fraction = None  # None where the coin is symbolic
    mass_fail_target: Fraction = None  # where a fail-mass rule is known

    def to_json(self):
        def fmt(v):
            if isinstance(v, dict):
                return {str(k): fmt(w) for k, w in sorted(v.items())}
            return None if v is None else str(v) if isinstance(v, Fraction) else float(v)
        return {
            "sampler": self.sampler,
            "stream_id": self.stream_id,
            "checks": self.checks,
            "conditional_law": fmt(self.conditional_law),
            "target_law": fmt(self.target_law),
            "mass_fail": fmt(self.mass_fail),
            "mass_fail_target": fmt(self.mass_fail_target),
            "ok": self.ok,
        }


def verify_exact(law, target, fail_target=None, checks="draw"):
    """Compare an enumerated ExactDistribution, conditioned on an index,
    against the target law (probs summing to 1) and, where given, its fail
    mass against fail_target with no bottom mass."""
    cond = law.conditional()
    ok = cond == target.probs and (fail_target is None
                                   or (law.mass_fail, law.mass_bottom) == (fail_target, 0))
    return VerifyReport("", "", cond, target.probs, ok, checks, law.mass_fail, fail_target)


def verify_symbolic(forms, measure, freqs, kappa=None):
    """Compare a symbolic law against kappa G(f_i) for every index i of
    freqs (a row vector, for a row measure), with no other index and no
    bottom mass; kappa defaults to the first index's coefficient of G(f_i)."""
    got = {i: oracle.in_g_basis(form, measure) for i, form in forms.items()
           if i not in (FAIL, BOTTOM)}
    if kappa is None:
        i = next(iter(freqs))
        kappa = got.get(i, {}).get(freqs[i], 0)
    want = {i: {f: kappa} for i, f in freqs.items()}
    return VerifyReport("", "", got, want, kappa > 0 and got == want and BOTTOM not in forms)


def _window(coords, W=None):
    return Counter(coords[max(0, len(coords) - W):] if W else coords)


def _fail_mass(measure, freqs, zeta, length):
    """1 - F_G/(zeta length), F_G over freqs: the fail mass of one
    repetition whose sample is a uniform one of length positions, when the
    acceptance probabilities of i's live positions telescope to
    G(f_i)/zeta."""
    return 1 - sum(measure.g_exact(f) for f in freqs.values()) / (zeta * length)


def _with_fail_mass(make, measure, updates, freqs, length, zeta):
    """verify_exact of one draw of the sampler make() builds, after updates,
    against G over freqs, with fail mass _fail_mass at R = 1, zeta the one
    the checker derives from the input."""
    return verify_exact(oracle.sampler_law(make, updates), target_distribution(freqs, measure),
                        _fail_mass(measure, freqs, zeta, length))


def gsampler(measure, coords, n=N):
    """GSampler at rational G, its fail mass 1 - F_G/(zeta m) at the zeta of
    the input: the measure's static zeta, or for L_p with p > 1, p Z^{p-1}
    at the Z of a Misra-Gries summary of the sampler's budget fed the
    stream, a function of the stream alone."""
    zeta = measure.zeta
    if zeta is None:
        mg = MGSummary(mg_budget(measure.p, n))
        mg.extend((c, 1) for c in coords)
        zeta = Fraction(*lp_zeta(z_ratio(mg), measure.p))
    return _with_fail_mass(lambda: GSampler(measure, n, len(coords), repetitions=1), measure,
                           coords, Counter(coords), len(coords), zeta)


def gsampler_symbolic(measure, coords, n=N):
    """GSampler at any G: index i's form is G(f_i)/m."""
    forms = oracle.symbolic_sampler_law(
        lambda: GSampler(measure, n, len(coords), repetitions=1), coords)
    return verify_symbolic(forms, measure, Counter(coords), Fraction(1, len(coords)))


def _cells(cells):
    return [Update(r, col=c) for r, c in cells]


def matrix(cells, n=N, d=N):
    """MatrixSampler with L1 rows: row r with its share of the updates, and
    fail mass 1 - F_G(rows)/(zeta m) at the row measure's zeta, 0 for L1
    rows, whose G(row vector) is the row's count."""
    measure = L1RowMeasure()
    return _with_fail_mass(lambda: MatrixSampler(measure, n, d, len(cells), repetitions=1),
                           lp_measure(1), _cells(cells), Counter(r for r, _ in cells),
                           len(cells), measure.zeta)


def matrix_symbolic(cells, n=N, d=N):
    """MatrixSampler with L2 rows: row r's form is G(row vector of r)/m."""
    rows = {}
    for r, c in cells:
        rows.setdefault(r, [0] * d)[c - 1] += 1
    forms = oracle.symbolic_sampler_law(
        lambda: MatrixSampler(L2RowMeasure(), n, d, len(cells), repetitions=1), _cells(cells))
    return verify_symbolic(forms, L2RowMeasure(), {r: tuple(v) for r, v in rows.items()},
                           Fraction(1, len(cells)))


def _bank_length(coords, W):
    """L = t - b + 1, the positions seen by the bank a draw at t =
    len(coords) reads, the one started at b = active_bank_start(t, W).  Its
    unit holds a uniform one of them only if the bank's horizon is at most
    L: a later horizon leaves the unit unplaced with positive probability,
    which raises the fail mass and leaves the conditional law exact."""
    t = len(coords)
    return t - active_bank_start(t, W) + 1


def checkpointed(measure, coords, W):
    """CheckpointedSampler at rational G, its fail mass 1 - F_G(window)/(zeta L)
    at the measure's static zeta."""
    return _with_fail_mass(lambda: CheckpointedSampler(measure, W, N, repetitions=1), measure,
                           coords, _window(coords, W), _bank_length(coords, W), measure.zeta)


def checkpointed_symbolic(measure, coords, W):
    """CheckpointedSampler at any G: index i's form is G(f_i(window))/L."""
    forms = oracle.symbolic_sampler_law(
        lambda: CheckpointedSampler(measure, W, N, repetitions=1), coords)
    return verify_symbolic(forms, measure, _window(coords, W),
                           Fraction(1, _bank_length(coords, W)))


def sliding_lp(p, coords, W):
    """SlidingLpSampler at integer p, its fail mass 1 - F_p(window)/(zeta L) at
    zeta = p max_f^{p-1}, max_f the window's largest frequency."""
    window = _window(coords, W)
    return _with_fail_mass(lambda: SlidingLpSampler(p, W, N, repetitions=1), lp_measure(p),
                           coords, window, _bank_length(coords, W),
                           p * max(window.values()) ** (p - 1))


def sliding_lp_symbolic(p, coords, W):
    """SlidingLpSampler at any p: index i's form is f_i(window)^p/L."""
    forms = oracle.symbolic_sampler_law(
        lambda: SlidingLpSampler(p, W, N, repetitions=1), coords)
    return verify_symbolic(forms, lp_measure(p), _window(coords, W),
                           Fraction(1, _bank_length(coords, W)))


def pair_l2(window, n):
    """The first pair of PairL2Sampler, over every order of the window,
    harvests j with probability f_j^2/W^2 (not draw()'s law, which is
    biased: test_randomorder pins it)."""
    W = sum(window.values())
    law = oracle.order_law(lambda: PairL2Sampler(n, W), window, length=2)
    f2 = sum(f * f for f in window.values())
    return verify_exact(law, target_distribution(window, lp_measure(2)), 1 - Fraction(f2, W * W),
                        checks="first-pair harvest")


def _replayable(fv):
    return ReplayableStream([Update(i) for i in sorted(fv) for _ in range(fv[i])])


def multipass_l1(fv, n, gamma):
    stream = _replayable(fv)
    law = oracle.enumerate_law(lambda: multipass_l1_draw(stream, gamma, n)[0])
    return verify_exact(law, target_distribution(fv, lp_measure(1)))


def multipass_lp(p, fv, n, gamma):
    """One chain of multipass_lp_draw at integer p, its fail mass
    1 - F_p/(zeta m) at zeta = p Z^{p-1}, Z = narrow_z of the input: the
    chain's sample is a uniform one of the m updates, and its test
    telescopes over the f_i occurrences of i to f_i^p/zeta."""
    stream, measure = _replayable(fv), lp_measure(p)
    law = oracle.enumerate_law(
        lambda: multipass_lp_draw(stream, gamma, p, n, repetitions=1))
    Z = narrow_z(stream, gamma, p, n)
    zeta = Fraction(*lp_zeta((Z.numerator, Z.denominator), p))
    return verify_exact(law, target_distribution(fv, measure),
                        _fail_mass(measure, fv, zeta, sum(fv.values())))


def multipass_lp_symbolic(p, fv, n, gamma):
    stream = _replayable(fv)
    forms = oracle.symbolic_law(lambda: multipass_lp_draw(stream, gamma, p, n, repetitions=1))
    return verify_symbolic(forms, lp_measure(p), fv)


def support(measure, n, coords, W=None):
    """F0Sampler (measure None), uniform over the (window) support, or
    TukeySampler, G(f_i)/F_G; the instance's random subset S is forked too.

    With s the support size and K = |S|, the draw reads S only when s >=
    cap, and S misses the support with probability q0 = C(n - s, K)/C(n, K).
    So F0 fails with q0 (0 below cap), and Tukey, which keeps a uniform hit
    i with probability G(f_i)/G(tau), with 1 - (1 - q0) F_G/(s G(tau))."""
    freqs, state = _window(coords, W), F0State(n, ())  # for cap and K = |S|
    s, K = len(freqs), state.size
    fail = Fraction(math.comb(n - s, K) if s >= state.cap else 0, math.comb(n, K))
    if measure is None:
        make = lambda: F0Sampler(n, window=W, repetitions=1)
        target = oracle.ExactDistribution(probs={i: Fraction(1, s) for i in freqs})
    else:
        make = lambda: TukeySampler(measure, n, window=W, repetitions=1)
        target = target_distribution(freqs, measure)
        fg = sum(measure.g_exact(f) for f in freqs.values())
        fail = 1 - (1 - fail) * fg / (s * measure.g_exact(measure.tau))
    return verify_exact(oracle.sampler_law(make, coords), target, fail)


CHECKERS = (gsampler, gsampler_symbolic, matrix, matrix_symbolic, checkpointed,
            checkpointed_symbolic, sliding_lp, sliding_lp_symbolic, pair_l2, multipass_l1,
            multipass_lp, multipass_lp_symbolic, support)

_STREAMS = {"s1": [1, 1, 2], "s2": [1, 2, 2, 3, 3, 3], "s3": [2, 2, 2, 2, 1]}
_MULTIPASS = {1: 3, 3: 1, 4: 2}
_M5 = [(1, 1), (2, 2), (1, 1), (1, 2), (2, 2)]  # rows (2, 1) and (0, 2), masses 3 and 2
_HALF, _L32 = Fraction(1, 2), Fraction(3, 2)

# Exact targets need rational G, so the numeric rows stick to L1, L2 (zeta =
# 2Z from Misra-Gries) and Huber; Fair and L_{3/2} keep the coin symbolic.
QUICK = [
    *[("gsampler/" + tag, sid, check, (meas, coords))
      for sid, coords in _STREAMS.items()
      for tag, meas, check in (("l1", lp_measure(1), gsampler), ("l2", lp_measure(2), gsampler),
                               ("huber", huber_measure(2), gsampler),
                               ("fair", fair_measure(2), gsampler_symbolic),
                               ("l3/2", lp_measure(_L32), gsampler_symbolic))],
    *[(name, "%s/W=%d" % (sid, W), check, (arg, coords, W))
      for sid, coords in _STREAMS.items() for W in (2, 4)
      for name, check, arg in (("sw-gsampler/l1", checkpointed, lp_measure(1)),
                               ("sw-gsampler/fair", checkpointed_symbolic, fair_measure(2)),
                               ("sliding-lp/l1", sliding_lp, 1),
                               ("sliding-lp/l2", sliding_lp, 2),
                               ("sliding-lp/l3/2", sliding_lp_symbolic, _L32))],
    ("matrix/l1-row", "m5", matrix, (_M5, 2, 2)),
    ("matrix/l2-row", "m5", matrix_symbolic, (_M5, 2, 2)),
    ("f0", "n=7/[1,1]", support, (None, 7, [1, 1])),
    ("f0", "n=9/[1,2,3]", support, (None, 9, [1, 2, 3])),
    ("tukey", "n=4/[1,1,2]", support, (tukey_measure(2), 4, [1, 1, 2])),
    ("tukey", "n=9/[1,2,2,3]", support, (tukey_measure(2), 9, [1, 2, 2, 3])),
    ("pair-l2", "win4", pair_l2, ({1: 2, 2: 1, 3: 1}, 3)),
    ("multipass-l1", "g=1/2", multipass_l1, (_MULTIPASS, 4, _HALF)),
    ("multipass-l1", "g=1", multipass_l1, (_MULTIPASS, 4, Fraction(1))),
    ("multipass-l2", "g=1/2", multipass_lp, (2, _MULTIPASS, 4, _HALF)),
    ("multipass-l3/2", "g=1/2", multipass_lp_symbolic, (_L32, _MULTIPASS, 4, _HALF)),
]


def default_battery():
    """QUICK, each row's checker run on its input."""
    return [replace(check(*args), sampler=name, stream_id=sid) for name, sid, check, args in QUICK]


def run_battery():
    reports = default_battery()
    return reports, all(r.ok for r in reports)


def dump_reports(reports, fh):
    json.dump([r.to_json() for r in reports], fh, indent=2)
    fh.write("\n")
