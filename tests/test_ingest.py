"""Batched ingest: process() hands a batch to one loop per state structure.

Feeding a stream in any split -- one coordinate per call, the whole stream at
once, or pieces that straddle the checkpoint banks' boundaries -- leaves every
sampler in the same state and gives the same seeded draws.  A batch that is
rejected raises before any of it is fed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_reservoir import _naive_units

import exactsamp as es
from exactsamp.core import UnitUpdates, Update, huber_measure, tukey_measure
from exactsamp.matrixsampler import L2RowMeasure

N, W, M, D = 8, 4, 40, 3  # universe, window, longest stream, matrix columns

SAMPLERS = {
    "gsampler": lambda: es.GSampler(huber_measure(2), N, M, seed=1),
    "gsampler_R2": lambda: es.GSampler(huber_measure(2), N, M, seed=2, repetitions=2),
    "lp2": lambda: es.lp_sampler(2, N, M, seed=3),
    "checkpointed": lambda: es.CheckpointedSampler(huber_measure(2), W, N, seed=4),
    "sliding_lp": lambda: es.SlidingLpSampler(2, W, N, seed=5, repetitions=8),
    "f0": lambda: es.F0Sampler(N, seed=6),
    "f0_window": lambda: es.F0Sampler(N, seed=7, window=W),
    "tukey_window": lambda: es.TukeySampler(tukey_measure(2), N, seed=8, window=W),
    "pair": lambda: es.PairL2Sampler(N, 2 * W, seed=9),
    "block": lambda: es.BlockLpSampler(N, 2 * W, 3, seed=10),
    "smallp": lambda: es.DuplicatedExpState(0.5, 16, seed=11),
    "matrix": lambda: es.MatrixSampler(L2RowMeasure(), N, D, M, seed=12, repetitions=3),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_roster_covers_every_sampler_class():
    built = {type(make()) for make in SAMPLERS.values()}
    assert set(_subclasses(UnitUpdates)) | {es.MatrixSampler} <= built


def _banks(s):
    """(start time, bank) of every reservoir bank the sampler keeps."""
    if hasattr(s, "bank"):
        return [(1, s.bank)]
    return list(getattr(s, "banks", ()))


def _fingerprint(s):
    """Everything a draw can read, and the generators' states."""
    out = {"banks": [(start, b.r_seen, b.snapshot(), b.rng.getstate())
                     for start, b in _banks(s)]}
    if isinstance(s, es.MatrixSampler):
        out["after"] = [(s.after(i), s.unit_col[i]) if row is not None else None
                        for i, row in enumerate(s.bank.unit_s)]
    if getattr(s, "mg", None) is not None:
        out["mg"] = (s.mg.counts, s.mg.offset, s.mg.m_seen, s.mg.top)
    if hasattr(s, "counter"):
        c = s.counter
        out["counter"] = (c.t, list(c.ring), c.counts, c.tally, c.max_f)
    if hasattr(s, "state"):
        st_ = s.state
        out["f0"] = (st_.t, st_._freq, st_.T, list(st_._ring or ()), st_.U)
    for attr in ("t", "S", "_pending", "_group_end", "_outright", "_block", "_block_len",
                 "_block_start"):
        if hasattr(s, attr):
            out[attr] = getattr(s, attr)
    if hasattr(s, "rng"):
        out["rng"] = s.rng.getstate()
    if hasattr(s, "np_rng"):
        state = s.np_rng.bit_generator.state["state"]
        out["np_rng"] = {k: v.tolist() for k, v in state.items()}
    return out


def _draws(s):
    return [s.draw() for _ in range(3)]


def _feed_one_by_one(s, pairs):
    for row, col in pairs:
        if isinstance(s, es.MatrixSampler):
            s.update(row, col)
        else:
            s.update(row)


def _batches(seq, sizes):
    out, k, i = [], 0, 0
    while k < len(seq):
        out.append(seq[k:k + sizes[i % len(sizes)]])
        k += sizes[i % len(sizes)]
        i += 1
    return out


@given(st.lists(st.tuples(st.integers(1, N), st.integers(1, D)), max_size=M),
       st.lists(st.integers(1, 2 * W + 1), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_batch_splits_match_one_call_per_coordinate(pairs, cuts):
    # Splits: one update per batch, the whole stream, W - 1 per batch (every
    # checkpoint boundary falls inside a batch) and random sizes.
    updates = [Update(r, time=t, col=c) for t, (r, c) in enumerate(pairs, 1)]
    bare = [r for r, _ in pairs]
    for name, make in SAMPLERS.items():
        ref = make()
        _feed_one_by_one(ref, pairs)
        want, want_draws = _fingerprint(ref), _draws(ref)
        matrix = name == "matrix"
        for sizes in ([1], [max(1, len(pairs))], [W - 1], cuts):
            s = make()
            # Bare coordinates for the random split, Update objects otherwise.
            feed = bare if sizes is cuts and not matrix else updates
            fed = 0
            for batch in _batches(feed, sizes):
                s.process(batch)
                fed += len(batch)
                # Each bank against its reference, at its own horizon.
                for start, bank in _banks(s):
                    assert len(bank.counters) <= 2 * bank.R + 1, (name, sizes)
                    assert bank.snapshot() == _naive_units(
                        bank.R, bank.seed, bare[start - 1:fed], start, bank.horizon), (name, fed)
            assert _fingerprint(s) == want, (name, sizes)
            assert _draws(s) == want_draws, (name, sizes)


def _bad_updates(name):
    """(update, the error's text) per way a batch can be out of the model."""
    if name == "matrix":
        return [(Update(2, col=1, delta=-1), "delta -1"), (Update(N + 1, col=1), "outside"),
                (Update(2, col=D + 1), "outside"), (Update(2, col=0), "outside")]
    if name == "smallp":  # takes any coordinate
        return [(Update(2, delta=-1), "delta -1"), (Update(2, delta=2), "delta 2")]
    return [(Update(2, delta=-1), "delta -1"), (N + 1, "outside"), (0, "outside"),
            (Update(N + 1), "outside")]


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_rejected_batch_leaves_the_sampler_as_it_was(name):
    make = SAMPLERS[name]
    pairs = [(c % N + 1, c % D + 1) for c in range(0, 60, 7)]
    updates = [Update(r, col=c) for r, c in pairs]
    prefix, rest = updates[:5], updates[5:]
    for bad, text in _bad_updates(name):
        s, ref = make(), make()
        s.process(prefix)
        ref.process(prefix)
        with pytest.raises(ValueError, match=text):
            s.process(rest[:2] + [bad] + rest[2:])
        assert _fingerprint(s) == _fingerprint(ref), bad
        s.process(rest)
        ref.process(rest)
        assert _fingerprint(s) == _fingerprint(ref), bad
        assert _draws(s) == _draws(ref), bad


@pytest.mark.parametrize("name", ["gsampler", "matrix"])
def test_rejection_names_the_first_bad_update(name):
    # The error is the one the first offending update of the batch raised
    # when updates were fed one at a time.
    deletion, outside = (_bad_updates(name)[i][0] for i in (0, 1))
    s = SAMPLERS[name]()
    with pytest.raises(ValueError, match="delta -1"):
        s.process([deletion, outside])
    with pytest.raises(ValueError, match="outside"):
        s.process([outside, deletion])


def _first_rejection(s, batch):
    """The message of the first update of batch out of the sampler's model,
    None when there is none: a delta other than 1, a coordinate that is not
    an int, or one outside [1, n] when the sampler has an n."""
    for u in batch:
        delta, coord = getattr(u, "delta", 1), getattr(u, "coord", u)
        if delta != 1:
            return "%s takes unit insertions, got delta %d" % (type(s).__name__, delta)
        if not isinstance(coord, int):
            return "coordinate %r is not an integer" % (coord,)
        if s.n is not None and not 1 <= coord <= s.n:
            return "coordinate %r outside [1, %d]" % (coord, s.n)
    return None


BATCHES = {
    "ints": [1, 5, 2, N],
    "ints_below": [1, 0, 2],
    "ints_above": [3, N + 1, 2],
    "updates": [Update(1), Update(5), Update(N)],
    "updates_delta": [Update(1), Update(5, delta=2), Update(N + 1)],
    "updates_outside": [Update(1), Update(N + 1), Update(5, delta=0)],
    "mixed": [1, Update(5), N, Update(2)],
    "mixed_delta": [1, Update(5, delta=-1), N + 1],
    "mixed_outside": [Update(1), 0, Update(5, delta=2)],
    "mixed_outside_update": [4, Update(N + 1), Update(5, delta=2)],
    "float": [1, 1.5, 2],
    "float_integral": [1, 2.0],
    "str": ["a"],
    "mixed_float": [Update(1), 2.5, Update(N + 1)],
    "mixed_str_after_delta": [Update(2), Update(5, delta=2), "a"],
}


@pytest.mark.parametrize("kind", sorted(BATCHES))
def test_every_batch_kind_is_checked_alike(kind):
    # Bare ints, Update objects and batches that mix them, bare non-integers
    # among them: an accepted batch leaves the sampler as one update(coord)
    # per item does, and a rejected one raises the message of its first bad
    # update (a float or a str is one) and changes nothing.
    batch = BATCHES[kind]
    for name, make in SAMPLERS.items():
        if name == "matrix":
            continue
        s, ref = make(), make()
        s.process([3, 4])
        ref.process([3, 4])
        want = _first_rejection(s, batch)
        if want is None:
            s.process(batch)
            s.process(tuple(batch))
            for u in batch * 2:
                ref.update(getattr(u, "coord", u))
        else:
            with pytest.raises(ValueError) as err:
                s.process(batch)
            assert str(err.value) == want, (name, kind)
        assert _fingerprint(s) == _fingerprint(ref), (name, kind)
        assert _draws(s) == _draws(ref), (name, kind)


def count_substream_calls(monkeypatch):
    """A list that collects the arguments of every exactrand.substream call
    from now on, whichever exactsamp module binds it."""
    import sys

    from exactsamp import exactrand

    calls = []

    def counting_substream(*args):
        calls.append(args)
        return real(*args)

    real = exactrand.substream
    for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "exactsamp"]:
        if getattr(mod, "substream", None) is real:
            monkeypatch.setattr(mod, "substream", counting_substream)
    return calls


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_draws_seed_no_generator(monkeypatch, name):
    # A sampler builds its draw generator once: after construction, draws
    # make no exactrand.substream call, whichever module binds it.
    s = SAMPLERS[name]()
    pairs = [(c % N + 1, c % D + 1) for c in range(0, 60, 7)]
    if name == "matrix":
        s.process([Update(r, col=c) for r, c in pairs])
    else:
        s.process([r for r, _ in pairs])
    calls = count_substream_calls(monkeypatch)
    for _ in range(5):
        s.draw()
    assert not calls, calls
