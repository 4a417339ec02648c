import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactsamp.core import Update
from exactsamp.exactrand import substream
from exactsamp.matrixsampler import L1RowMeasure, L2RowMeasure, MatrixSampler, RowMeasure
from exactsamp import oracle


def ups(pairs):
    return [Update(r, col=c) for r, c in pairs]


def run_hist(measure, n, d, pairs, trials):
    hist = Counter()
    outcomes = Counter()
    for t in range(trials):
        s = MatrixSampler(measure, n, d, len(pairs), seed=500 + t)
        s.process(ups(pairs))
        res = s.draw()
        outcomes[res.outcome] += 1
        if res.outcome == "index":
            hist[res.index] += 1
    return hist, outcomes


def test_empty_bottom():
    s = MatrixSampler(L1RowMeasure(), 2, 2, 0)
    assert s.draw().outcome == "bottom"


def test_l1_rows_even_split():
    # rows (1,1) and (2,0): masses 2 and 2.
    pairs = [(1, 1), (1, 2), (2, 1), (2, 1)]
    hist, _ = run_hist(L1RowMeasure(), 2, 2, pairs, 2500)
    frac = hist[1] / (hist[1] + hist[2])
    assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / 2500)


def test_l2_rows_pythagorean():
    # rows (3,4) and (0,5): both norm 5.
    pairs = [(1, 1)] * 3 + [(1, 2)] * 4 + [(2, 2)] * 5
    hist, _ = run_hist(L2RowMeasure(), 2, 2, pairs, 1500)
    frac = hist[1] / (hist[1] + hist[2])
    assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / 1500)


def test_single_row():
    pairs = [(2, 1), (2, 2), (2, 1)]
    hist, _ = run_hist(L2RowMeasure(), 3, 2, pairs, 200)
    assert set(hist) == {2}


class _SquaredRowMeasure(RowMeasure):
    """G(x) = ||x||_2^2: rational, and its increments 2 v_col + 1 depend on
    every column count of the strictly-after vector v."""

    name = "squared_row"

    def __init__(self, zeta):
        self.zeta = Fraction(zeta)

    def g_exact(self, vec):
        return Fraction(sum(x * x for x in vec))


def test_oracle_exactness_small_battery():
    import itertools
    l1 = L1RowMeasure()
    for n, d in [(2, 2), (3, 2)]:
        cells = [(r, c) for r in range(1, n + 1) for c in range(1, d + 1)]
        for m in range(1, 4):
            for combo in itertools.product(cells, repeat=m):
                law = oracle.sampler_law(
                    lambda: MatrixSampler(l1, n, d, m, repetitions=1), ups(combo))
                rows = Counter(r for r, _ in combo)
                target = oracle.target_distribution(dict(rows), _RowAsScalar(l1, d, combo))
                assert law.conditional() == target.probs, combo
                sq = _SquaredRowMeasure(2 * m)
                law = oracle.sampler_law(
                    lambda: MatrixSampler(sq, n, d, m, repetitions=1), ups(combo))
                vecs = {}
                for r, c in combo:
                    vecs.setdefault(r, Counter())[c] += 1
                g = {r: sum(x * x for x in v.values()) for r, v in vecs.items()}
                assert law.conditional() == {r: Fraction(x, sum(g.values()))
                                             for r, x in g.items()}, combo


class _RowAsScalar:
    """Adapter: for L1 rows, G(row i) equals the row's update count, so the
    scalar target oracle applies with G(x) = x."""

    name = "l1-row-as-scalar"

    def __init__(self, measure, d, combo):
        self.measure = measure
        self.d = d

    def g_exact(self, x):
        return Fraction(x)


def test_oracle_symbolic_l2_rows():
    # The real sampler with its L2-row coin kept symbolic: zeta times row
    # r's probability is ||row r||_2 / m, over the basis of row vectors.
    combos = [
        [(1, 1), (1, 2), (2, 1)],
        [(1, 1), (2, 2), (2, 2), (1, 1)],
    ]
    l2 = L2RowMeasure()
    for combo in combos:
        forms = oracle.symbolic_sampler_law(
            lambda: MatrixSampler(l2, 2, 2, len(combo), repetitions=1), ups(combo))
        rows = {}
        for r, c in combo:
            v = rows.setdefault(r, [0, 0])
            v[c - 1] += 1
        assert {r: oracle.in_g_basis(forms[r], l2) for r in rows} == \
            {r: {tuple(v): Fraction(1, len(combo))} for r, v in rows.items()}, combo


def test_fail_rate_bounded():
    pairs = [(1, 1), (2, 2), (3, 1)] * 2
    _, outcomes = run_hist(L2RowMeasure(), 3, 2, pairs, 400)
    assert outcomes["fail"] <= 400 * 0.1 + 4 * math.sqrt(400 * 0.1)


@given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 3)), max_size=60),
       st.integers(1, 8), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_unit_vectors_match_recount(pairs, R, seed):
    # Unit i's strictly-after vector is a recount of its row's updates after
    # its sampled time, at every step, and sums to the bank's scalar count.
    s = MatrixSampler(L2RowMeasure(), 8, 3, len(pairs), seed=seed, repetitions=R)
    for t, (row, col) in enumerate(pairs, start=1):
        s.update(row, col)
        for i in range(R):
            r, t_s, c = s.bank.effective(i)
            want = [0, 0, 0]
            for rr, cc in pairs[t_s:t]:
                if rr == r:
                    want[cc - 1] += 1
            assert list(s.after(i)) == want
            assert sum(want) == c
        # Every tracked row has counts, and untracked ones are pruned.
        assert set(s.bank.counters) <= set(s.counts)
        assert len(s.counts) <= 2 * len(s.bank.counters)


def test_deletion_rejected():
    s = MatrixSampler(L1RowMeasure(), 2, 2, 2)
    with pytest.raises(ValueError):
        s.process([Update(1, col=1), Update(1, col=1, delta=-1)])


def test_update_without_column_rejected():
    # A row-only update raises ValueError, not TypeError, and the batch
    # leaves the sampler as it was.
    s = MatrixSampler(L1RowMeasure(), 2, 2, 4, repetitions=3)
    s.process(ups([(1, 1), (2, 2)]))
    before = (s.bank.r_seen, s.bank.snapshot(), s.bank.rng.getstate(), s.counts, list(s.unit_col),
              list(s.unit_snap))
    with pytest.raises(ValueError, match="no column"):
        s.process([Update(1, col=2), Update(2)])
    assert (s.bank.r_seen, s.bank.snapshot(), s.bank.rng.getstate(), s.counts, s.unit_col,
            s.unit_snap) == before


def test_ingest_flat_in_repetitions():
    # d = 8 columns, Zipf-like rows: an update must not cost O(R).
    rng = substream(3, "matrix-flat")
    pairs = [(min(int(1 / (1 - rng.random())), 1000), rng.randrange(8) + 1)
             for _ in range(100000)]
    ups_ = ups(pairs)

    def best_ingest(R):
        best = float("inf")
        for k in range(3):
            s = MatrixSampler(L2RowMeasure(), 1000, 8, len(pairs), seed=k, repetitions=R)
            t0 = time.perf_counter()
            s.process(ups_)
            best = min(best, time.perf_counter() - t0)
        return best

    t16 = best_ingest(16)
    t2048 = best_ingest(2048)
    print("matrix ingest: R=16 %.2e s, R=2048 %.2e s (ratio %.2f)" % (t16, t2048, t2048 / t16))
    assert t2048 <= 3.0 * t16, (t16, t2048)
