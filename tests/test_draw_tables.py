"""A draw's acceptance table changes no outcome.

Each draw keeps one probability per distinct state c and passes the table to
every accept_increment call.  The references below are the draw loops
without it: one exact test per live repetition, each computing its
probability afresh with _accept_without_table (accept_increment as it was
before the table), and a SampleResult built for every candidate.  Run on the
same fed sampler with the same substream(seed, "draw", k), both must return
the same result, draw after draw.
"""

from fractions import Fraction

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
from exactsamp.smoothhist import DegradedEstimate


def _accept_without_table(measure, c, zeta_exact, zeta_bounds, rng):
    """The exact increment test computing its probability on every call."""
    inc = measure.increment_exact(c)
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
    rng = substream(s.seed, "draw", s.draws + 1)
    zeta_exact, zeta_bounds = s._zeta_at_draw()
    live = ((SampleResult.of(x, repetition=i), c)
            for i, (x, _, c) in enumerate(map(s.bank.effective, range(s.R))) if x is not None)
    return _eager(live, lambda c: _accept_without_table(s.measure, c, zeta_exact, zeta_bounds, rng))


def _checkpointed_reference(s):
    if s.t == 0:
        return SampleResult.bottom()
    bank = s._draw_bank()
    rng = substream(s.seed, "draw", s.draws + 1)
    cutoff = s.t - s.W
    live = ((SampleResult.of(x, repetition=i), c)
            for i, (x, t_x, c) in enumerate(map(bank.effective, range(s.R)))
            if x is not None and t_x > cutoff)
    return _eager(live, lambda c: _accept_without_table(s.measure, c, s.zeta, None, rng))


def _sliding_lp_reference(s):
    if s.t == 0:
        return SampleResult.bottom()
    bank = s._draw_bank()
    rng = substream(s.seed, "draw", s.draws + 1)
    cutoff = s.t - s.W
    try:
        zeta_exact, zeta_bounds = s._zeta_at_draw()
        live = ((SampleResult.of(x, repetition=i), c)
                for i, (x, t_x, c) in enumerate(map(bank.effective, range(s.R)))
                if x is not None and t_x > cutoff)
        return _eager(live, lambda c: _accept_without_table(s.measure, c, zeta_exact,
                                                            zeta_bounds, rng))
    except DegradedEstimate:
        return SampleResult.fail()


def _matrix_reference(s):
    if s.bank.r_seen == 0:
        return SampleResult.bottom()
    rng = substream(s.seed, "draw", s.draws + 1)
    live = ((SampleResult.of(row, repetition=i), (list(s.after(i)), s.unit_col[i]))
            for i, row in enumerate(s.bank.unit_s) if row is not None)
    return _eager(live, lambda c: _accept_without_table(s.measure, c, s.measure.zeta, None, rng))


def _tukey_reference(s):
    if not s.state._freq:
        return SampleResult.bottom()
    rng = substream(s.seed, "draw", s.draws + 1)
    g_cap = s.measure.tau * s.measure.tau / 6
    for S in s.subsets:
        res = s.state.draw(S, rng)
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
    rngs = [substream(seed, "chain", i) for i in range(R)]
    chains, m, Z = _narrow(stream, gamma, n, rngs, mg_budget(p, n))
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


def test_draw_computes_each_distinct_probability_once(monkeypatch):
    # 400 distinct coordinates once each: nearly every repetition holds
    # c = 0, so a draw runs many tests and computes one probability per
    # distinct c.
    from exactsamp import gsampler

    computed, tested = [], []
    real_acceptance, real_accept = gsampler.acceptance, gsampler.accept_increment

    def counting_acceptance(measure, c, *args):
        computed.append(c)
        return real_acceptance(measure, c, *args)

    def counting_accept(measure, c, *args):
        tested.append(c)
        return real_accept(measure, c, *args)

    monkeypatch.setattr(gsampler, "acceptance", counting_acceptance)
    monkeypatch.setattr(gsampler, "accept_increment", counting_accept)
    s = lp_sampler(2, n=1000, m=400, seed=5, repetitions=400)
    s.process(range(1, 401))
    for _ in range(20):
        computed.clear()
        tested.clear()
        s.draw()
        assert sorted(computed) == sorted(set(tested))
    assert len(tested) > 5
