import io
import json
from collections import Counter
from fractions import Fraction

from exactsamp import montecarlo, oracle, verify
from exactsamp.core import lp_measure
from exactsamp.gsampler import GSampler
from exactsamp.reservoir import SamplerBank
from exactsamp.sliding import CheckpointedSampler


def gsampler_law(coords, meas, zeta):
    """Law of one draw of the real GSampler at R = 1."""
    return oracle.sampler_law(
        lambda: GSampler(meas, 2, len(coords), zeta=zeta, repetitions=1), coords)


def test_mc_gsampler_twin_matches_oracle_law():
    coords = [1, 1, 2]
    meas = lp_measure(2)
    zeta = 3
    law = gsampler_law(coords, meas, zeta)
    assert law.probs == {1: Fraction(4, 9), 2: Fraction(1, 9)}
    hist, fails = montecarlo.mc_gsampler(coords, meas, zeta, 200000, seed=4)
    rep = oracle.gof_test(hist, {k: float(v) for k, v in law.conditional().items()})
    assert rep.pvalue > 1e-4
    # Unconditional fail mass is 4/9.
    total = sum(hist.values()) + fails
    assert abs(fails / total - 4 / 9) < 0.01


def test_mc_gsampler_inclusive_mutant_diverges(monkeypatch):
    coords = [1, 1, 2]
    meas = lp_measure(2)
    # zeta = 9 keeps the (broken) per-coordinate masses below 1 so the
    # enumeration still yields a distribution; the conditional law is what
    # diverges from the correct target.
    hist, _ = montecarlo.mc_gsampler(coords, meas, 9, 200000, seed=7,
                                     inclusive=True)
    effective = SamplerBank.effective

    def inclusive(self, i):  # the counter also counts the sampled occurrence
        s, t_s, c = effective(self, i)
        return s, t_s, c + 1

    monkeypatch.setattr(SamplerBank, "effective", inclusive)
    law = gsampler_law(coords, meas, 9)
    rep = oracle.gof_test(hist, {k: float(v) for k, v in law.conditional().items()})
    assert rep.pvalue > 1e-4
    # And the mutant law is NOT the correct target.
    target = oracle.target_distribution({1: 2, 2: 1}, meas)
    assert law.conditional() != target.probs


def test_mc_sliding_twin():
    coords = [1, 1, 2, 3, 3, 1]
    meas = lp_measure(1)
    law = oracle.sampler_law(lambda: CheckpointedSampler(meas, 4, 3, repetitions=1), coords)
    hist, _ = montecarlo.mc_gsampler(coords, meas, meas.zeta, 100000, seed=2, W=4)
    rep = oracle.gof_test(hist, {k: float(v) for k, v in law.conditional().items()})
    assert rep.pvalue > 1e-4


def test_verify_exact_pass_and_fail():
    a = oracle.ExactDistribution(probs={1: Fraction(1, 2), 2: Fraction(1, 4)},
                                 mass_fail=Fraction(1, 4))
    b = oracle.ExactDistribution(probs={1: Fraction(1, 2), 2: Fraction(1, 2)})
    good = verify.verify_exact("s", "x", a, a)
    assert good.ok and good.exact_match
    bad = verify.verify_exact("s", "x", a, b)
    assert not bad.ok and bad.exact_match is False


def test_verify_statistical_flags_wrong_target():
    hist = {1: 7500, 2: 2500}
    ok = verify.verify_statistical("s", "x", hist, {1: 0.75, 2: 0.25})
    assert ok.ok
    bad = verify.verify_statistical("s", "x", hist, {1: 0.5, 2: 0.5})
    assert not bad.ok


def test_report_json_round_trips():
    rep = verify.VerifyReport("s", "x", {1: Fraction(1, 2)}, {1: 0.5},
                              exact_match=True, ok=True)
    blob = json.dumps(rep.to_json())
    back = json.loads(blob)
    assert back["sampler"] == "s" and back["ok"] is True
    assert back["conditional_law"] == {"1": "1/2"}


def test_default_battery_all_ok():
    reports, ok = verify.run_battery(seed=1, trials=20000)
    assert ok, [r.to_json() for r in reports if not r.ok]
    fams = {r.sampler.split("/")[0] for r in reports}
    assert {"gsampler", "sw-gsampler", "sliding-lp", "pair-l2", "multipass-l1"} <= fams
    # Sliding L_p is checked exactly at p = 1 and p = 2 on every stream and W.
    sliding = {(r.sampler, r.stream_id) for r in reports if r.exact_match}
    assert {(name, "%s/W=%d" % (sid, W)) for name in ("sliding-lp/l1", "sliding-lp/l2")
            for sid in ("s1", "s2", "s3") for W in (2, 4)} <= sliding
    buf = io.StringIO()
    verify.dump_reports(reports, buf)
    assert json.loads(buf.getvalue())
