"""A draw's integer tests and acceptance tables change no outcome.

A rational test -- a rational zeta and a measure whose increments are all
rational (L_p at integer p, Huber, Tukey, L1 rows), and Tukey's keep --
runs on integer pairs: each test computes its pair afresh and decides it
with bernoulli_ratio, so such a draw builds no Fraction and no table.  The
draws whose tests take brackets (an irrational zeta, or irrational
increments: L_{1/2}, Fair, L1-L2, L2 rows) keep one table per sampler, from
each distinct state c to its probability, across their draws while zeta is
the same (an equal rational, or the bounds function that lp_zeta memoizes
per (Z, p)), and pass it to every accept_increment call.

The references below are the draw loops without either: one exact test per
live repetition, each computing its probability afresh as a Fraction with
_accept_without_table (accept_increment as it was before the table, reading
no memo of increments) and deciding it with bernoulli_fraction, and a
SampleResult built for every candidate.  Run on the same fed sampler with a
clone of its draw generator taken before the draw, both must return the same
result, draw after draw.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactsamp.core import (SampleResult, fair_measure, huber_measure, l1l2_measure, lp_measure,
                            tukey_measure, Update)
from exactsamp.exactrand import bernoulli_bounds, bernoulli_fraction, substream
from exactsamp.f0sampler import TukeySampler
from exactsamp.gsampler import GSampler, first_accepted, lp_sampler, lp_zeta
from exactsamp.heavyhitters import mg_budget
from exactsamp.matrixsampler import L2RowMeasure, MatrixSampler
from exactsamp.multipass import ReplayableStream, _narrow, multipass_lp_draw
from exactsamp.sliding import CheckpointedSampler, SlidingLpSampler


def _clone(s):
    """A copy of the sampler's draw generator in its current state."""
    rng = random.Random()
    rng.setstate(s.draw_state.rng.getstate())
    return rng


def _increment(measure, c):
    """G(c+1) - G(c) as a Fraction, or None, computed afresh."""
    before, after = measure.step(c)
    a, b = measure.g_exact(after), measure.g_exact(before)
    return None if a is None or b is None else a - b


def _accept_without_table(measure, c, zeta_exact, zeta_bounds, rng):
    """The exact increment test computing its probability on every call."""
    inc = _increment(measure, c)
    if inc is not None and zeta_exact is not None:
        return bernoulli_fraction(inc / zeta_exact, rng)

    def refine(k):
        if inc is None:
            ilo, ihi = measure.increment_bounds(c, k)
            iden = 1 << k
        else:
            ilo = ihi = inc.numerator
            iden = inc.denominator
        if zeta_exact is None:
            zlo, zhi = zeta_bounds(k)
            zden = 1 << k
        else:
            zlo = zhi = zeta_exact.numerator
            zden = zeta_exact.denominator
        num = zden << k
        return ilo * num // (iden * zhi), -(-ihi * num // (iden * zlo))

    return bernoulli_bounds(refine, rng)


def _eager(candidates, accept):
    """first_accepted over candidates whose SampleResults are all built."""
    return first_accepted(list(candidates), accept) or SampleResult.fail()


def _gsampler_reference(s):
    if s.bank.r_seen == 0:
        return SampleResult.bottom()
    rng = _clone(s)
    zeta_exact, zeta_bounds = s._zeta_at_draw()
    live = ((SampleResult.of(x, repetition=i), c)
            for i, (x, _, c) in enumerate(map(s.bank.effective, range(s.R))) if x is not None)
    return _eager(live, lambda c: _accept_without_table(s.measure, c, zeta_exact, zeta_bounds, rng))


def _checkpointed_reference(s):
    if s.t == 0:
        return SampleResult.bottom()
    bank = s._draw_bank()
    rng = _clone(s)
    cutoff = s.t - s.W
    live = ((SampleResult.of(x, repetition=i), c)
            for i, (x, t_x, c) in enumerate(map(bank.effective, range(s.R)))
            if x is not None and t_x > cutoff)
    return _eager(live, lambda c: _accept_without_table(s.measure, c, s.zeta, None, rng))


def _sliding_lp_reference(s):
    if s.t == 0:
        return SampleResult.bottom()
    bank = s._draw_bank()
    rng = _clone(s)
    cutoff = s.t - s.W
    zeta_exact, zeta_bounds = s._zeta_at_draw()
    live = ((SampleResult.of(x, repetition=i), c)
            for i, (x, t_x, c) in enumerate(map(bank.effective, range(s.R)))
            if x is not None and t_x > cutoff)
    return _eager(live, lambda c: _accept_without_table(s.measure, c, zeta_exact, zeta_bounds, rng))


def _matrix_reference(s):
    if s.bank.r_seen == 0:
        return SampleResult.bottom()
    rng = _clone(s)
    live = ((SampleResult.of(row, repetition=i), (list(s.after(i)), s.unit_col[i]))
            for i, row in enumerate(s.bank.unit_s) if row is not None)
    return _eager(live, lambda c: _accept_without_table(s.measure, c, s.measure.zeta, None, rng))


def _tukey_reference(s):
    if not s.state.t:
        return SampleResult.bottom()
    rng = _clone(s)
    g_cap = s.measure.tau * s.measure.tau / 6
    for k in range(s.R):
        res = s.state.draw(k, rng)
        if res.outcome == "index" and bernoulli_fraction(
                Fraction(s.measure.g_exact(res.frequency)) / g_cap, rng):
            return res
    return SampleResult.fail()


def _same_draws(sampler, reference, coords, chunk=7):
    """Feed coords in chunks; before each draw, the reference predicts it."""
    for k in range(0, len(coords), chunk):
        sampler.process(coords[k:k + chunk])
        for _ in range(2):
            want = reference(sampler)
            assert sampler.draw() == want


COORDS = st.lists(st.integers(1, 6), min_size=1, max_size=60)
SEED = st.integers(0, 10 ** 6)


@given(COORDS, SEED, st.sampled_from(["huber", "l2", "lp_half", "fair"]))
@settings(max_examples=40, deadline=None)
def test_gsampler_draws_equal_per_call_tests(coords, seed, name):
    # Rational zeta: Huber (rational increments) and L2 (zeta = 2Z from the
    # Misra-Gries Z).  Irrational increments: L_{1/2} and Fair.
    make = {
        "huber": lambda: GSampler(huber_measure(2), n=6, m=len(coords), seed=seed, repetitions=12),
        "l2": lambda: lp_sampler(2, n=6, m=len(coords), seed=seed, repetitions=12),
        "lp_half": lambda: lp_sampler(Fraction(1, 2), n=6, m=len(coords), seed=seed,
                                      repetitions=12),
        "fair": lambda: GSampler(fair_measure(2), n=6, m=len(coords), seed=seed, repetitions=12),
    }[name]
    _same_draws(make(), _gsampler_reference, coords)


@given(COORDS, SEED, st.integers(2, 12))
@settings(max_examples=30, deadline=None)
def test_checkpointed_l1l2_draws_equal_per_call_tests(coords, seed, W):
    s = CheckpointedSampler(l1l2_measure(), W=W, seed=seed, repetitions=10)
    _same_draws(s, _checkpointed_reference, coords)


@given(COORDS, SEED, st.integers(3, 15))
@settings(max_examples=20, deadline=None)
def test_sliding_l2_draws_equal_per_call_tests(coords, seed, W):
    s = SlidingLpSampler(2, W=W, seed=seed, repetitions=10)
    _same_draws(s, _sliding_lp_reference, coords)


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=50), SEED)
@settings(max_examples=30, deadline=None)
def test_matrix_draws_equal_per_call_tests(pairs, seed):
    # The reference holds v as a list; the draw keys its table with v as a
    # tuple.
    s = MatrixSampler(L2RowMeasure(), n=4, d=3, m=len(pairs), seed=seed, repetitions=12)
    s.process([Update(r, col=c) for r, c in pairs])
    for _ in range(3):
        want = _matrix_reference(s)
        assert s.draw() == want


@given(COORDS, SEED, st.sampled_from([None, 5]))
@settings(max_examples=30, deadline=None)
def test_tukey_draws_equal_per_call_tests(coords, seed, window):
    s = TukeySampler(tukey_measure(3), n=6, seed=seed, window=window, repetitions=6)
    _same_draws(s, _tukey_reference, coords)


def _multipass_lp_reference(updates, gamma, p, n, seed, R):
    stream = ReplayableStream(updates)
    chains, m, Z = _narrow(stream, gamma, n, R, substream(seed, "chains"), mg_budget(p, n))
    if m == 0:
        return SampleResult.bottom()
    zeta_exact, zeta_bounds = lp_zeta(Z, p)
    measure = lp_measure(p)
    rng = substream(seed, "accept")

    def accept(f):
        c = f - (rng.randrange(f) + 1)
        return _accept_without_table(measure, c, zeta_exact, zeta_bounds, rng)

    live = ((SampleResult.of(coord, repetition=i), f) for i, (coord, f) in enumerate(chains))
    return _eager(live, accept)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=60), SEED,
       st.sampled_from([Fraction(2), Fraction(3, 2)]))
@settings(max_examples=25, deadline=None)
def test_multipass_lp_draws_equal_per_call_tests(coords, seed, p):
    # Each chain's c is a uniform strictly-after count, drawn before its test.
    updates = [Update(c) for c in coords]
    got = multipass_lp_draw(ReplayableStream(updates), Fraction(1, 2), p, 9, seed=seed,
                            repetitions=10)
    assert got == _multipass_lp_reference(updates, Fraction(1, 2), p, 9, seed, 10)


def _counting(monkeypatch):
    """Record the state c of every gsampler.acceptance call."""
    from exactsamp import gsampler

    computed = []
    real = gsampler.acceptance

    def counting_acceptance(measure, c, *args):
        computed.append(c)
        return real(measure, c, *args)

    monkeypatch.setattr(gsampler, "acceptance", counting_acceptance)
    return computed


def test_draw_computes_each_distinct_probability_once(monkeypatch):
    # L_{3/2}: 400 distinct coordinates once each, so nearly every
    # repetition holds c = 0 and a draw runs many tests.  Its increments
    # (c+1)^{3/2} - c^{3/2} are irrational, so the tests read a table, and
    # Z, hence zeta = (3/2) sqrt(Z), is unchanged between the draws, so the
    # 20 draws share one table and compute each distinct c's probability
    # once, when it is first tested.
    from exactsamp import gsampler

    computed = _counting(monkeypatch)
    tested = []
    real_accept = gsampler.accept_increment

    def counting_accept(measure, c, *args):
        tested.append(c)
        return real_accept(measure, c, *args)

    monkeypatch.setattr(gsampler, "accept_increment", counting_accept)
    s = lp_sampler(Fraction(3, 2), n=1000, m=400, seed=5, repetitions=400)
    s.process(range(1, 401))
    for _ in range(20):
        s.draw()
    assert sorted(computed) == sorted(set(tested))
    assert len(tested) > 5


SHARED_TABLE_SAMPLERS = {
    "fair": lambda: GSampler(fair_measure(2), n=1000, m=400, seed=5, repetitions=400),
    "lp_half": lambda: lp_sampler(Fraction(1, 2), n=1000, m=400, seed=5, repetitions=400),
    "checkpointed": lambda: CheckpointedSampler(fair_measure(2), W=1000, seed=5,
                                                repetitions=400),
    "matrix": lambda: MatrixSampler(L2RowMeasure(), n=1000, d=1, m=400, seed=5,
                                    repetitions=400),
}


@pytest.mark.parametrize("name", sorted(SHARED_TABLE_SAMPLERS))
def test_draws_on_an_unchanged_state_share_one_table(monkeypatch, name):
    # 400 distinct coordinates (rows) once each: every repetition holds the
    # same state c, so a draw runs many tests of one probability, an
    # irrational one.  zeta is static, so the first draw computes that
    # probability once and the next 20 compute none.
    s = SHARED_TABLE_SAMPLERS[name]()
    if name == "matrix":
        s.process([Update(r, col=1) for r in range(1, 401)])
    else:
        s.process(range(1, 401))
    computed = _counting(monkeypatch)
    s.draw()
    assert len(computed) == 1, computed
    for _ in range(20):
        s.draw()
    assert len(computed) == 1, computed
    assert len(s.draw_state.table) == 1


def test_irrational_zeta_keeps_its_table_while_z_is_unchanged(monkeypatch):
    # Sliding L_{3/2}: zeta = (3/2) sqrt(max_f) is irrational unless the
    # window's max_f is a perfect square.  lp_zeta returns one bounds
    # function per (Z, p), so the draws at an unchanged Z share one table
    # and no state c is computed twice among them.
    computed = _counting(monkeypatch)
    s = SlidingLpSampler(Fraction(3, 2), W=100, n=50, seed=1)
    rng = substream(5, "lp-zeta-memo")
    last_z, seen, repeats = None, set(), 0
    for _ in range(50):
        s.process([rng.randrange(1, 51) for _ in range(8)])
        z = s.counter.max_f
        if z != last_z:
            last_z, seen = z, set()
        elif math.isqrt(z) ** 2 != z:
            repeats += 1
        computed.clear()
        s.draw()
        assert len(computed) == len(set(computed)), computed
        assert not seen & set(computed), (z, seen & set(computed))
        seen |= set(computed)
    assert repeats >= 10, repeats


def test_tables_hold_at_most_R_entries(monkeypatch):
    # L_{1/2} at its static zeta = 1 over three coordinates: counts keep
    # growing, so later draws test states the table has not seen, and it is
    # cleared rather than grown past R.
    computed = _counting(monkeypatch)
    R = 8
    s = lp_sampler(Fraction(1, 2), n=3, m=600, seed=7, repetitions=R)
    sizes = []
    for k in range(200):
        s.process([k % 3 + 1] * 3)
        for _ in range(3):
            s.draw()
            sizes.append(len(s.draw_state.table))
    assert max(sizes) <= R
    assert len(set(computed)) > 4 * R, len(set(computed))


def test_increment_memo_is_bounded(monkeypatch):
    from exactsamp import core

    monkeypatch.setattr(core, "INCREMENT_MEMO", 16)
    for meas in (lp_measure(2), huber_measure(2), lp_measure(Fraction(1, 2))):
        for c in list(range(100)) + list(range(10)):
            ratio = meas.increment_ratio(c)
            assert (ratio and Fraction(*ratio)) == _increment(meas, c)
            assert len(meas._increments) <= 16


@contextmanager
def _fractions_built():
    """The arguments of every Fraction built inside the block."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counting_new))
        yield built


RATIONAL_SAMPLERS = {
    "l2": lambda: lp_sampler(2, n=100, m=300, seed=3, repetitions=60),
    "huber": lambda: GSampler(huber_measure(Fraction(21, 2)), n=100, m=300, seed=3,
                              repetitions=60),
    "sliding_l2": lambda: SlidingLpSampler(2, W=40, n=100, seed=3, repetitions=60),
    "tukey": lambda: TukeySampler(tukey_measure(Fraction(7, 2)), n=100, seed=3, repetitions=8),
}


def _skewed(seed, m):
    """m updates over [1, 100], heavy-tailed: clipped at 100, which takes
    about two fifths of them, then coordinates 1, 2, 3, ... in falling
    shares."""
    rng = random.Random(seed)
    return [min(int(rng.paretovariate(0.2)), 100) for _ in range(m)]


@pytest.mark.parametrize("name", sorted(RATIONAL_SAMPLERS))
def test_rational_draws_build_no_fraction_and_no_table(name):
    # Skewed updates over 100 coordinates, three draws after every 10: the
    # frequencies, so the tests' states c, keep growing, and the L2
    # samplers' Z (Misra-Gries or the window's max_f), hence zeta,
    # changes between draws.  The draws build no Fraction and no table.
    coords = _skewed(11, 300)
    s = RATIONAL_SAMPLERS[name]()
    zetas, results = set(), set()
    for k in range(0, len(coords), 10):
        s.process(coords[k:k + 10])
        if name in ("l2", "sliding_l2"):
            zetas.add(s._draw_zeta())
        with _fractions_built() as built:
            results |= {s.draw() for _ in range(3)}
        assert built == [], (k, built[:5])
    assert name not in ("l2", "sliding_l2") or len(zetas) > 5, zetas
    assert len(results) > 3, results
    assert s.draw_state.table is None


def test_multipass_rational_tests_build_no_fraction(monkeypatch):
    # multipass_lp_draw at p = 2: the narrowing passes give Z as a Fraction
    # (the value narrow_z reports); the chains' tests after them, at
    # zeta = 2Z taken as an integer pair, build none.
    from exactsamp import multipass

    narrow, new = multipass._narrow, Fraction.__new__
    narrowed_yet, built = [False], []

    def counting_new(cls, *args, **kwargs):
        if narrowed_yet[0]:
            built.append(args)
        return new(cls, *args, **kwargs)

    def narrowed(*args, **kwargs):
        got = narrow(*args, **kwargs)
        narrowed_yet[0] = True
        return got

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(multipass, "_narrow", narrowed)
    updates = [Update(c) for c in _skewed(12, 400)]
    indices = set()
    for seed in range(5):
        narrowed_yet[0] = False
        res = multipass_lp_draw(ReplayableStream(updates), Fraction(1, 2), 2, 100, seed=seed,
                                repetitions=40)
        assert narrowed_yet[0] and built == [], (seed, built[:5])
        indices.add(res.index)
    assert len(indices) > 1, indices
