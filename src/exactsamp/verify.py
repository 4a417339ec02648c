"""Verification battery: exact-law checks with JSON reports.

Each check compares a sampler law against its target.  The standing
battery is exact: it enumerates the shipped samplers over every branch of
their random choices (oracle.sampler_law, oracle.enumerate_law, and
oracle.order_law over the random orders of a window) and demands equality.
"""

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .core import Update, huber_measure, lp_measure, tukey_measure
from .f0sampler import F0Sampler, TukeySampler
from .gsampler import GSampler
from .matrixsampler import L1RowMeasure, MatrixSampler
from .multipass import ReplayableStream, multipass_l1_draw, multipass_lp_draw
from .randomorder import PairL2Sampler
from .sliding import CheckpointedSampler, SlidingLpSampler


@dataclass
class VerifyReport:
    sampler: str
    stream_id: str
    conditional_law: dict
    target_law: dict
    ok: bool

    def to_json(self):
        def fmt(d):
            return {str(k): (str(v) if isinstance(v, Fraction) else float(v))
                    for k, v in d.items()}
        return {
            "sampler": self.sampler,
            "stream_id": self.stream_id,
            "conditional_law": fmt(self.conditional_law),
            "target_law": fmt(self.target_law),
            "ok": self.ok,
        }


def verify_exact(sampler, stream_id, law, target):
    """Compare an enumerated ExactDistribution against the target law."""
    cond = law.conditional()
    tcond = target.conditional()
    return VerifyReport(sampler, stream_id, cond, tcond, cond == tcond)


def default_battery():
    """A small standing battery, each check an enumeration of a shipped
    sampler (at R = 1 where it has repetitions): GSampler, the sliding
    samplers, MatrixSampler, F0Sampler, TukeySampler, PairL2Sampler and the
    multipass draws.  BlockLpSampler is checked in the test suite only,
    where its harvest counts are enumerated; smallp is approximate."""
    reports = []
    l1 = lp_measure(1)
    l2 = lp_measure(2)
    streams = {
        "s1": [1, 1, 2],
        "s2": [1, 2, 2, 3, 3, 3],
        "s3": [2, 2, 2, 2, 1],
    }

    # Exact targets need rational G, so the numeric battery sticks to L1,
    # L2 (zeta = 2Z from Misra-Gries) and Huber; the test suite checks the
    # irrational measures on the same samplers with the acceptance coin kept
    # symbolic (oracle.symbolic_sampler_law).
    for sid, coords in streams.items():
        freqs = Counter(coords)
        for name, meas in (("l1", l1), ("l2", l2), ("huber", huber_measure(2))):
            law = oracle.sampler_law(
                lambda: GSampler(meas, 3, len(coords), repetitions=1), coords)
            target = oracle.target_distribution(freqs, meas)
            reports.append(verify_exact("gsampler/%s" % name, sid, law, target))

    # SlidingLpSampler's zeta = p max_f^{p-1} is rational at integer p.
    windowed = (("sw-gsampler/l1", l1, lambda W: CheckpointedSampler(l1, W, 3, repetitions=1)),
                ("sliding-lp/l1", l1, lambda W: SlidingLpSampler(1, W, 3, repetitions=1)),
                ("sliding-lp/l2", l2, lambda W: SlidingLpSampler(2, W, 3, repetitions=1)))
    for sid, coords in streams.items():
        for W in (2, 4):
            freqs = Counter(coords[max(0, len(coords) - W):])
            for name, meas, make in windowed:
                law = oracle.sampler_law(lambda: make(W), coords)
                target = oracle.target_distribution(freqs, meas)
                reports.append(verify_exact(name, "%s/W=%d" % (sid, W), law, target))

    # Matrix rows by L1 norm: rows (2, 1) and (0, 2), masses 3 and 2.
    cells = [(1, 1), (2, 2), (1, 1), (1, 2), (2, 2)]
    law = oracle.sampler_law(lambda: MatrixSampler(L1RowMeasure(), 2, 2, len(cells),
                                                   repetitions=1),
                             [Update(r, col=c) for r, c in cells])
    target = oracle.target_distribution(Counter(r for r, _ in cells), l1)
    reports.append(verify_exact("matrix/l1-row", "m5", law, target))

    # Support samplers, R = 1, the instance's random subset S forked too (at
    # n = 7 it holds 6, so it can miss coordinate 1).  F0 is uniform over the
    # support; Tukey is G(f_i)/F_G.
    law = oracle.sampler_law(lambda: F0Sampler(7, repetitions=1), [1, 1])
    target = oracle.ExactDistribution(probs={1: Fraction(1)})
    reports.append(verify_exact("f0", "n=7/[1,1]", law, target))
    tukey = tukey_measure(2)
    law = oracle.sampler_law(lambda: TukeySampler(tukey, 4, repetitions=1), [1, 1, 2])
    target = oracle.target_distribution(Counter([1, 1, 2]), tukey)
    reports.append(verify_exact("tukey", "n=4/[1,1,2]", law, target))

    # Random order: the first pair of the real PairL2Sampler, over every
    # order of the window, harvests j with probability f_j^2/W^2.
    win = {1: 2, 2: 1, 3: 1}
    law = oracle.order_law(lambda: PairL2Sampler(3, 4), win, length=2)
    target = oracle.ExactDistribution(
        probs={i: Fraction(f * f, 16) for i, f in win.items()})
    reports.append(verify_exact("pair-l2", "win4", law, target))

    # Multipass exact laws, one chain.
    freqs = {1: 3, 3: 1, 4: 2}
    stream = ReplayableStream([Update(i) for i in sorted(freqs) for _ in range(freqs[i])])
    for gamma in (Fraction(1, 2), 1):
        law = oracle.enumerate_law(lambda: multipass_l1_draw(stream, gamma, 4)[0])
        target = oracle.target_distribution(freqs, l1)
        reports.append(verify_exact("multipass-l1", "g=%s" % gamma, law, target))
    law = oracle.enumerate_law(
        lambda: multipass_lp_draw(stream, Fraction(1, 2), 2, 4, repetitions=1))
    target = oracle.target_distribution(freqs, l2)
    reports.append(verify_exact("multipass-l2", "g=1/2", law, target))

    return reports


def run_battery():
    reports = default_battery()
    return reports, all(r.ok for r in reports)


def dump_reports(reports, fh):
    json.dump([r.to_json() for r in reports], fh, indent=2)
    fh.write("\n")
