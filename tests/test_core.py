import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactsamp.core import (
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
    m = l1l2_measure()
    v = m.g_float(2)
    assert abs(v - (2 * (math.sqrt(3) - 1))) < 1e-12
    assert m.g_float(2) - m.g_float(1) < 3


@pytest.mark.parametrize("meas", builtin_measures())
def test_increments_within_zeta(meas):
    zeta = meas.zeta
    slack = Fraction(1, 1 << 25)
    xs = list(range(1, 50)) + [10 ** 3, 10 ** 6]
    for x in xs:
        lo, hi = meas.increment_bounds(x - 1, 30)
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
        fg = sum(Fraction(meas.g_bounds(f, 40)[1]) for f in freq.values())
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
