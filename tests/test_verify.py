import ast
import inspect
import io
import json
import os
from fractions import Fraction

from exactsamp import oracle, verify


def test_verify_exact_pass_and_fail():
    a = oracle.ExactDistribution(probs={1: Fraction(1, 2), 2: Fraction(1, 4)},
                                 mass_fail=Fraction(1, 4))
    b = oracle.ExactDistribution(probs={1: Fraction(1, 2), 2: Fraction(1, 2)})
    c = oracle.ExactDistribution(probs={1: Fraction(2, 3), 2: Fraction(1, 3)})
    assert verify.verify_exact(a, c).ok
    assert verify.verify_exact(a, c, fail_target=Fraction(1, 4)).ok
    assert not verify.verify_exact(a, b).ok
    # The fail mass is checked where a rule gives its target.
    assert not verify.verify_exact(a, c, fail_target=Fraction(1, 3)).ok
    rep = verify.verify_exact(a, c, checks="first-pair harvest")
    assert (rep.checks, rep.mass_fail, rep.mass_fail_target) == \
        ("first-pair harvest", Fraction(1, 4), None)


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


def test_quick_runs_every_checker_and_the_sweeps_call_them():
    # Every function verify defines, but the report and battery helpers, is
    # a checker; exactsamp verify runs every checker, and so do the exact-law
    # sweeps of test_acceptance, so neither can drop a family.
    defined = {f for name, f in vars(verify).items() if inspect.isfunction(f)
               and f.__module__ == verify.__name__ and not name.startswith("_")}
    assert defined - set(verify.CHECKERS) == {
        verify.verify_exact, verify.verify_symbolic, verify.default_battery,
        verify.run_battery, verify.dump_reports}
    assert {check for _, _, check, _ in verify.QUICK} == set(verify.CHECKERS)
    path = os.path.join(os.path.dirname(__file__), "test_acceptance.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    called = {node.attr for test in tree.body if isinstance(test, ast.FunctionDef)
              and test.name.startswith(("test_exact_laws_", "test_fidelity_"))
              for node in ast.walk(test) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "verify"}
    assert {check.__name__ for check in verify.CHECKERS} <= called
