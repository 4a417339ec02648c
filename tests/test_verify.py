import io
import json
from fractions import Fraction

from exactsamp import oracle, verify


def test_verify_exact_pass_and_fail():
    a = oracle.ExactDistribution(probs={1: Fraction(1, 2), 2: Fraction(1, 4)},
                                 mass_fail=Fraction(1, 4))
    b = oracle.ExactDistribution(probs={1: Fraction(1, 2), 2: Fraction(1, 2)})
    good = verify.verify_exact("s", "x", a, a)
    assert good.ok
    bad = verify.verify_exact("s", "x", a, b)
    assert not bad.ok


def test_report_json_round_trips():
    rep = verify.VerifyReport("s", "x", {1: Fraction(1, 2)}, {1: 0.5}, ok=True)
    blob = json.dumps(rep.to_json())
    back = json.loads(blob)
    assert back["sampler"] == "s" and back["ok"] is True
    assert back["conditional_law"] == {"1": "1/2"}


def test_default_battery_all_ok():
    reports, ok = verify.run_battery()
    assert ok, [r.to_json() for r in reports if not r.ok]
    fams = {r.sampler.split("/")[0] for r in reports}
    assert {"gsampler", "sw-gsampler", "sliding-lp", "pair-l2", "multipass-l1", "f0",
            "tukey"} <= fams
    # Sliding L_p is checked exactly at p = 1 and p = 2 on every stream and W.
    sliding = {(r.sampler, r.stream_id) for r in reports}
    assert {(name, "%s/W=%d" % (sid, W)) for name in ("sliding-lp/l1", "sliding-lp/l2")
            for sid in ("s1", "s2", "s3") for W in (2, 4)} <= sliding
    buf = io.StringIO()
    verify.dump_reports(reports, buf)
    assert json.loads(buf.getvalue())
