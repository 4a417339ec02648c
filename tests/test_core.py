import copy
import decimal
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactsamp.core import (
    SampleResult,
    StreamConfig,
    StreamError,
    Update,
    builtin_measures,
    fair_measure,
    frequencies,
    huber_measure,
    l1l2_measure,
    lp_measure,
    parse_stream,
    tukey_measure,
    validate_stream,
    write_stream,
)
from exactsamp.exactrand import log_scaled, scaled
from exactsamp.f0sampler import F0Sampler, TukeySampler
from exactsamp.gsampler import GSampler
from exactsamp.randomorder import BlockLpSampler, PairL2Sampler
from exactsamp.sliding import CheckpointedSampler, SlidingLpSampler
from exactsamp import gsampler
from exactsamp.gsampler import lp_zeta
from exactsamp.matrixsampler import L2RowMeasure
from exactsamp.sliding import SlidingLpSampler


def test_package_import_skips_scipy():
    # scipy is loaded only by the goodness-of-fit test that needs it.
    import exactsamp

    src = os.path.dirname(os.path.dirname(os.path.abspath(exactsamp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c",
                    "import exactsamp, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True, timeout=120)


def test_huber_value():
    assert huber_measure(2).g_exact(1) == Fraction(1, 4)
    assert huber_measure(2).g_exact(3) == 2  # x - tau/2 branch


def test_g_zero_is_zero():
    for meas in builtin_measures():
        lo, hi = meas.g_bounds(0, 20)
        assert lo == hi == 0


def test_l1l2_value():
    # G(2) = 2 (sqrt(3) - 1) = sqrt(12) - 2: the bracket at 2^-40 holds it,
    # compared in integers as (lo + 2^41)^2 <= 12 4^40 <= (hi + 2^41)^2.
    m = l1l2_measure()
    lo, hi = m.g_bounds(2, 40)
    assert 0 <= hi - lo <= 2
    assert (lo + (2 << 40)) ** 2 <= 12 << 80 <= (hi + (2 << 40)) ** 2
    assert m.increment_bounds(1, 40)[1] < 3 << 40


@pytest.mark.parametrize("meas", builtin_measures())
def test_increments_within_zeta(meas):
    zeta = meas.zeta
    slack = Fraction(1, 1 << 25)
    xs = list(range(1, 50)) + [10 ** 3, 10 ** 6]
    for x in xs:
        lo, hi = meas.increment_bounds(x - 1, 30)
        hi = Fraction(hi, 1 << 30)
        assert hi >= -slack  # G non-decreasing
        if zeta is not None:
            assert hi <= zeta + slack


def test_lp_zeta_rules():
    assert lp_measure(Fraction(1, 2)).zeta == 1
    assert lp_measure(1).zeta == 1
    assert lp_measure(2).zeta is None


def test_measure_rejects_bad_params():
    with pytest.raises(ValueError):
        lp_measure(0)
    with pytest.raises(ValueError):
        fair_measure(0)
    with pytest.raises(ValueError):
        tukey_measure(-1)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=20))
@settings(max_examples=50)
def test_fg_lower_bound_never_exceeds_true_fg(coords):
    freq = {}
    for c in coords:
        freq[c] = freq.get(c, 0) + 1
    m = len(coords)
    for meas in builtin_measures():
        fg = sum(Fraction(meas.g_bounds(f, 40)[1], 1 << 40) for f in freq.values())
        assert meas.fg_lower_bound(m) <= fg + Fraction(1, 1 << 20)


def test_validate_insertion_only():
    cfg = StreamConfig(n=4)
    assert validate_stream(cfg, [Update(1), Update(2)]) is None
    err = validate_stream(cfg, [Update(1, delta=2)])
    assert isinstance(err, StreamError) and err.position == 1


def test_validate_strict_turnstile():
    cfg = StreamConfig(n=4, model="strict_turnstile")
    err = validate_stream(cfg, [Update(1, delta=1), Update(1, delta=-2)])
    assert err is not None and err.position == 2
    assert validate_stream(cfg, [Update(1, 1), Update(1, -1)]) is None


def test_validate_coordinate_range():
    cfg = StreamConfig(n=2)
    err = validate_stream(cfg, [Update(3)])
    assert err is not None and "outside" in err.message


def test_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(n=0)
    with pytest.raises(ValueError):
        StreamConfig(n=2, model="sliding_window")
    with pytest.raises(ValueError):
        StreamConfig(n=2, model="matrix")
    with pytest.raises(ValueError):
        StreamConfig(n=2, model="bogus")


WINDOWED = {
    "pair": lambda W: PairL2Sampler(5, W),
    "block": lambda W: BlockLpSampler(5, W, 3),
    "sliding_lp": lambda W: SlidingLpSampler(2, W, 5),
    "checkpointed": lambda W: CheckpointedSampler(huber_measure(2), W, 5),
    "f0": lambda W: F0Sampler(5, window=W),
    "tukey": lambda W: TukeySampler(tukey_measure(2), 5, window=W),
}


@pytest.mark.parametrize("W", [0, -3])
@pytest.mark.parametrize("name", sorted(WINDOWED))
def test_windowed_constructors_reject_a_window_below_one(name, W):
    # A window of no updates was a ZeroDivisionError, a complex-power
    # TypeError, a "zero F_G lower bound", or a sampler that drew BOTTOM or
    # FAIL on a nonempty stream.
    with pytest.raises(ValueError, match="window W must be >= 1"):
        WINDOWED[name](W)


# Each record class: a positional construction, the same record by keyword,
# the fields in order with their defaults filled in, and its repr.
RECORDS = [
    (Update, (3,), dict(coord=3), (3, 1, 0, None),
     "Update(coord=3, delta=1, time=0, col=None)"),
    (Update, (2, -1, 5, 4), dict(col=4, time=5, delta=-1, coord=2), (2, -1, 5, 4),
     "Update(coord=2, delta=-1, time=5, col=4)"),
    (StreamConfig, (7,), dict(n=7), (7, "insertion_only", None, 0, None),
     "StreamConfig(n=7, model='insertion_only', W=None, seed=0, d=None)"),
    (StreamConfig, (7, "sliding_window", 3, 9), dict(W=3, seed=9, model="sliding_window", n=7),
     (7, "sliding_window", 3, 9, None),
     "StreamConfig(n=7, model='sliding_window', W=3, seed=9, d=None)"),
    (SampleResult, ("fail",), dict(outcome="fail"), ("fail", None, None, None),
     "SampleResult(outcome='fail', index=None, frequency=None, repetition=None)"),
    (SampleResult, ("index", 4, 2, 0), dict(repetition=0, frequency=2, index=4, outcome="index"),
     ("index", 4, 2, 0), "SampleResult(outcome='index', index=4, frequency=2, repetition=0)"),
    (StreamError, (3, "zero delta"), dict(message="zero delta", position=3), (3, "zero delta"),
     "StreamError(position=3, message='zero delta')"),
]


@pytest.mark.parametrize("cls, args, kwargs, fields, text", RECORDS)
def test_records_keep_frozen_dataclass_semantics(cls, args, kwargs, fields, text):
    rec = cls(*args)
    assert rec == cls(**kwargs) == cls(*fields)
    assert tuple(getattr(rec, name) for name in cls.__slots__) == fields
    assert hash(rec) == hash(cls(**kwargs)) and len({rec, cls(**kwargs)}) == 1
    assert repr(rec) == text
    assert rec != fields and not rec == fields  # a record is not its tuple
    for other_cls, other_args, *_ in RECORDS:
        if other_cls is not cls:
            assert rec != other_cls(*other_args)
    name = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(rec, name, 1)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, name) == fields[0]
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is cls and twin == rec and repr(twin) == text


def test_records_differ_by_value():
    assert Update(1) != Update(2) and Update(1) != Update(1, time=1)
    assert SampleResult.fail() != SampleResult.bottom()
    assert SampleResult.of(2, repetition=1) == SampleResult("index", 2, None, 1)
    assert StreamError(1, "a") != StreamError(2, "a")


def test_frequencies_window():
    cfg = StreamConfig(n=3, model="sliding_window", W=2)
    ups = [Update(1), Update(1), Update(2)]
    assert frequencies(cfg, ups) == {1: 1, 2: 1}
    cfg2 = StreamConfig(n=3)
    assert frequencies(cfg2, ups) == {1: 2, 2: 1}


def test_stream_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "s.txt")
    cfg = StreamConfig(n=5, model="sliding_window", W=3)
    ups = [Update(1, time=1), Update(4, time=2)]
    write_stream(path, cfg, ups)
    cfg2, ups2 = parse_stream(path)
    assert cfg2.n == 5 and cfg2.model == "sliding_window" and cfg2.W == 3
    assert [(u.coord, u.delta) for u in ups2] == [(1, 1), (4, 1)]


def test_matrix_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "m.txt")
    cfg = StreamConfig(n=2, model="matrix", d=3)
    ups = [Update(1, col=2, time=1), Update(2, col=3, time=2)]
    write_stream(path, cfg, ups)
    cfg2, ups2 = parse_stream(path)
    assert cfg2.d == 3
    assert [(u.coord, u.col) for u in ups2] == [(1, 2), (2, 3)]


def test_parse_rejects_garbage(tmp_path):
    path = os.path.join(tmp_path, "bad.txt")
    with open(path, "w") as fh:
        fh.write("nonsense header\n")
    with pytest.raises(ValueError):
        parse_stream(path)


def _unit_delta_samplers():
    import exactsamp as es

    return {
        "gsampler": lambda: es.GSampler(huber_measure(2), 5, 5),
        "f0": lambda: es.F0Sampler(5),
        "tukey": lambda: es.TukeySampler(tukey_measure(2), 5),
        "checkpointed": lambda: es.CheckpointedSampler(huber_measure(2), 4, 5),
        "sliding_lp": lambda: es.SlidingLpSampler(2, 4, 5),
        "pair": lambda: es.PairL2Sampler(5, 4),
        "block": lambda: es.BlockLpSampler(5, 8, 3),
        "smallp": lambda: es.DuplicatedExpState(0.5, 16),
    }


@pytest.mark.parametrize("family", sorted(_unit_delta_samplers()))
def test_process_rejects_deletions(family):
    # A deletion is not an insertion: samplers of unit-delta streams refuse it
    # instead of counting it as one more occurrence.
    s = _unit_delta_samplers()[family]()
    s.process([Update(1), 2])
    with pytest.raises(ValueError, match="delta -1"):
        s.process([Update(1, delta=-1)])


def _out_of_range_feeds():
    """(sampler, update that lies outside its universe) per family."""
    import exactsamp as es

    return {
        "lp_sampler_high": (lambda: es.lp_sampler(2, 3, 5), 7),
        "lp_sampler_zero": (lambda: es.lp_sampler(2, 3, 5), 0),
        "gsampler": (lambda: es.GSampler(huber_measure(2), 5, 5), 6),
        "f0": (lambda: es.F0Sampler(4), 9),
        "tukey": (lambda: es.TukeySampler(tukey_measure(2), 4), 5),
        "pair": (lambda: es.PairL2Sampler(5, 4), 6),
        "block": (lambda: es.BlockLpSampler(5, 8, 3), 0),
        "checkpointed": (lambda: es.CheckpointedSampler(huber_measure(2), 4, 5), 6),
        "sliding_lp": (lambda: es.SlidingLpSampler(2, 4, 5), -1),
        "matrix_row": (lambda: es.MatrixSampler(L2RowMeasure(), 2, 3, 5), Update(3, col=1)),
        "matrix_col_zero": (lambda: es.MatrixSampler(L2RowMeasure(), 2, 3, 5), Update(1, col=0)),
        "matrix_col_high": (lambda: es.MatrixSampler(L2RowMeasure(), 2, 3, 5), Update(1, col=4)),
    }


@pytest.mark.parametrize("family", sorted(_out_of_range_feeds()))
def test_process_rejects_coordinates_outside_universe(family):
    # A coordinate outside [1, n] (or a column outside [1, d]) is not in the
    # stream model: the samplers refuse it instead of sampling it.
    make, bad = _out_of_range_feeds()[family]
    s = make()
    s.process([Update(1, col=1) if family.startswith("matrix") else 1])
    with pytest.raises(ValueError, match="outside"):
        s.process([bad])


@pytest.mark.parametrize("args, kwargs, text", [
    ((1.5,), {}, "coordinate 1.5 is not an integer"),
    ((2.0,), {}, "coordinate 2.0 is not an integer"),
    (("a",), {}, "coordinate 'a' is not an integer"),
    ((1,), {"col": 2.5}, "column 2.5 is not an integer"),
    ((1,), {"col": "b"}, "column 'b' is not an integer"),
])
def test_update_rejects_a_non_integer_coordinate_or_column(args, kwargs, text):
    with pytest.raises(ValueError, match="^%s$" % text):
        Update(*args, **kwargs)


def test_non_integer_coordinates_are_rejected_not_sampled():
    # A bare float or str is refused by process and by update, as an Update
    # holding one is refused when built; the sampler is left as it was.
    np = pytest.importorskip("numpy")
    s = GSampler(huber_measure(2), 5, 8, seed=1)
    for bad in ([1.5, 2], [2, "a"]):
        with pytest.raises(ValueError, match="is not an integer"):
            s.process(bad)
    for bad in (1.5, "a"):
        with pytest.raises(ValueError, match="is not an integer"):
            s.update(bad)
    assert s.bank.r_seen == 0
    # An integer of another type (bool, numpy's) is still a coordinate.
    s.process([np.int64(2), True, Update(np.int64(3), col=np.int64(1))])
    assert s.bank.r_seen == 3


def _dec(x):
    return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)


def _lp_ref(p):
    return lambda x: _dec(Fraction(x)) ** _dec(Fraction(p))


def _l1l2_ref(x):
    return (decimal.Decimal(4 + 2 * x * x)).sqrt() - 2


def _fair_ref(tau):
    t = _dec(Fraction(tau))
    return lambda x: t * x - t * t * (1 + decimal.Decimal(x) / t).ln()


def _bracket_cases():
    """(name, bounds(k), reference value as a Decimal) for every shipped
    producer of scaled-integer bounds."""
    xs = [0, 1, 2, 3, 7, 10 ** 6 + 3]
    for p in (Fraction(1, 2), Fraction(3, 2), Fraction(2)):
        meas, ref = lp_measure(p), _lp_ref(p)
        for x in xs:
            yield "lp(%s) G(%d)" % (p, x), lambda k, m=meas, x=x: m.g_bounds(x, k), ref(x)
            yield ("lp(%s) inc(%d)" % (p, x), lambda k, m=meas, x=x: m.increment_bounds(x, k),
                   ref(x + 1) - ref(x))
    l1l2 = l1l2_measure()
    for x in xs:
        yield "l1l2 G(%d)" % x, lambda k, x=x: l1l2.g_bounds(x, k), _l1l2_ref(x)
        yield ("l1l2 inc(%d)" % x, lambda k, x=x: l1l2.increment_bounds(x, k),
               _l1l2_ref(x + 1) - _l1l2_ref(x))
    for tau in (Fraction(2), Fraction(1, 3)):
        fair, ref = fair_measure(tau), _fair_ref(tau)
        for x in xs[1:5]:
            yield "fair(%s) G(%d)" % (tau, x), lambda k, m=fair, x=x: m.g_bounds(x, k), ref(x)
            yield ("fair(%s) inc(%d)" % (tau, x), lambda k, m=fair, x=x: m.increment_bounds(x, k),
                   ref(x + 1) - ref(x))
    for y in (Fraction(3, 2), Fraction(1, 40), Fraction(10 ** 9 + 7), Fraction(7, 10 ** 6)):
        yield "log(%s)" % y, lambda k, y=y: log_scaled(y, k), _dec(y).ln()
    row = L2RowMeasure()
    for v, col in (([0, 0], 1), ([1, 0], 2), ([3, 5, 2], 3), ([1000, 1, 0], 1)):
        norm = lambda u: decimal.Decimal(sum(a * a for a in u)).sqrt()
        plus = [a + (i == col - 1) for i, a in enumerate(v)]
        yield "l2_row G(%s)" % v, lambda k, v=v: row.g_bounds(v, k), norm(v)
        yield ("l2_row inc(%s, %d)" % (v, col), lambda k, c=(v, col): row.increment_bounds(c, k),
               norm(plus) - norm(v))
    for Z in (Fraction(10 ** 6 + 3), Fraction(7, 3), Fraction(4)):
        for p in (Fraction(3, 2), Fraction(5, 4)):
            exact, bounds = lp_zeta(Z, p)
            ref = _dec(p) * _dec(Z) ** _dec(p - 1)
            if bounds is None:
                yield "lp_zeta(%s, %s)" % (Z, p), lambda k, e=exact: scaled(e, e, k), ref
            else:
                yield "lp_zeta(%s, %s)" % (Z, p), bounds, ref
    for p in (Fraction(3, 2), Fraction(5, 2)):
        s = SlidingLpSampler(p, W=15, seed=1, repetitions=4)
        s.process([1, 2, 2, 3, 3, 3, 4, 1, 2, 2] * 3)
        max_f = s.counter.max_f
        exact, bounds = s._zeta_at_draw()
        assert bounds is not None, (p, max_f)  # max_f is no perfect square here
        yield "sliding zeta p=%s" % p, bounds, _dec(p) * _dec(max_f) ** _dec(p - 1)


def _accept_refine(measure, c, zeta_exact, zeta_bounds):
    """The refine(k) that accept_increment hands to bernoulli_bounds."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gsampler, "bernoulli_bounds", lambda refine, rng: seen.append(refine))
        gsampler.accept_increment(measure, c, zeta_exact, zeta_bounds, None)
    return seen[0]


def _accept_cases():
    """(name, refine(k), reference acceptance probability) of accept_increment
    with an irrational increment, an irrational zeta, or both."""
    d = decimal.Decimal
    F2 = 10 ** 6 + 3
    yield ("accept lp(1/2)", _accept_refine(lp_measure(Fraction(1, 2)), 5, Fraction(1), None),
           d(6).sqrt() - d(5).sqrt())
    yield ("accept lp(2), zeta 3/2 sqrt(F2)",
           _accept_refine(lp_measure(2), 500, *lp_zeta(Fraction(F2), Fraction(3, 2))),
           d(1001) / (d(1.5) * d(F2).sqrt()))
    yield ("accept lp(3/2), zeta 3/2 sqrt(7/3)",
           _accept_refine(lp_measure(Fraction(3, 2)), 7, *lp_zeta(Fraction(7, 3), Fraction(3, 2))),
           (d(8) ** d(1.5) - d(7) ** d(1.5)) / (d(1.5) * (d(7) / d(3)).sqrt()))
    yield ("accept l1l2", _accept_refine(l1l2_measure(), 4, Fraction(3), None),
           (_l1l2_ref(5) - _l1l2_ref(4)) / 3)
    yield ("accept fair(2)", _accept_refine(fair_measure(2), 3, Fraction(2), None),
           (_fair_ref(2)(4) - _fair_ref(2)(3)) / 2)
    yield ("accept l2_row", _accept_refine(L2RowMeasure(), ([3, 5, 2], 3), Fraction(1), None),
           d(43).sqrt() - d(38).sqrt())


def test_scaled_brackets_hold_for_every_producer():
    # lo <= value 2^k <= hi against a 80-digit reference, with hi - lo at
    # most a small constant at every precision.
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        cases = list(_bracket_cases()) + list(_accept_cases())
        tol = decimal.Decimal(10) ** -30
        for name, bounds, ref in cases:
            for k in (16, 32, 64, 128):
                lo, hi = bounds(k)
                assert isinstance(lo, int) and isinstance(hi, int), name
                v = ref * (1 << k)
                assert lo <= v + tol and v - tol <= hi, (name, k, lo, hi, v)
                assert hi - lo <= 8, (name, k, hi - lo)
