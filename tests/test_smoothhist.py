from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactsamp.exactrand import substream
from exactsamp.smoothhist import ExactSuffixFp, SmoothHistogram


def test_exact_estimator_integer_p():
    est = ExactSuffixFp(2)
    for c in [1, 1, 2]:
        est.update(c)
    assert est.value == 5
    assert est.max_f == 2


def test_exact_estimator_fractional_p():
    # At non-integer p the running value is a float sum of the increments.
    est = ExactSuffixFp(Fraction(3, 2))
    for c in [1, 1, 2]:
        est.update(c)
    assert abs(est.value - (2 ** 1.5 + 1)) <= 1e-12
    assert est.max_f == 2


def test_l1_counter():
    hist = SmoothHistogram(1, W=5)
    for _ in range(5):
        hist.update(1)
    assert hist.bracket().est.value == 5


def test_bracketing_invariant():
    W = 6
    hist = SmoothHistogram(2, W=W)
    rng = substream(1, "s")
    for t in range(1, 100):
        hist.update(rng.randrange(3) + 1)
        rows = hist.rows
        ws = hist.t - W + 1
        assert rows[0].t_start <= max(ws, 1)
        if len(rows) > 1 and ws >= 1:
            assert rows[1].t_start > ws


@given(st.lists(st.integers(1, 4), min_size=1, max_size=60),
       st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_factor_two_window_estimate(coords, W):
    # The bracket row's suffix covers the window within the factor-2 contract
    # on L_2: F_2(window) <= F_2(bracket suffix) <= 4 F_2(window).
    hist = SmoothHistogram(2, W=W)
    for c in coords:
        hist.update(c)
    f2_window = sum(f * f for f in Counter(coords[-W:]).values())
    assert f2_window <= hist.bracket().est.value <= 4 * f2_window


def test_histogram_stays_small():
    hist = SmoothHistogram(2, W=64)
    rng = substream(2, "s")
    for _ in range(2000):
        hist.update(rng.randrange(8) + 1)
    assert len(hist.rows) <= 80  # far below one row per update


def test_bracket_row_counts_track_suffix():
    # Row j's estimator has ingested exactly the suffix from t_j: its counts
    # equal a recount of that suffix, and its running max_f their maximum,
    # for the bracketing row and every other.
    coords = [substream(4, "s").randrange(4) + 1 for _ in range(120)]
    hist = SmoothHistogram(2, W=7)
    for t, c in enumerate(coords, 1):
        hist.update(c)
        assert hist.bracket() is hist.rows[0]
        for row in hist.rows:
            assert row.est.counts == Counter(coords[row.t_start - 1:t]), (t, row.t_start)
            assert row.est.max_f == max(row.est.counts.values())


class _RepeatedPassHistogram:
    """The histogram as it pruned before the single pass: every row keeps a
    float F_p, and passes over the rows repeat until one deletes nothing."""

    def __init__(self, p, W):
        self.pf = float(p)
        self.beta = (0.5 ** self.pf) / (self.pf ** self.pf)
        self.W = W
        self.t = 0
        self.rows = []  # [t_start, counts, float F_p]

    def update(self, coord):
        self.t += 1
        self.rows.append([self.t, {}, 0.0])
        for row in self.rows:
            f = row[1].get(coord, 0)
            row[1][coord] = f + 1
            row[2] += (f + 1) ** self.pf - f ** self.pf
        rows = self.rows
        changed = True
        while changed:
            changed = False
            i = 1
            while i < len(rows) - 1:
                if rows[i + 1][2] >= (1.0 - self.beta) * rows[i - 1][2]:
                    del rows[i]
                    changed = True
                else:
                    i += 1
        ws = self.t - self.W + 1
        while len(rows) >= 2 and rows[1][0] <= ws:
            del rows[0]


@given(st.lists(st.integers(1, 20), max_size=30), st.integers(0, 150),
       st.lists(st.integers(1, 5), max_size=10), st.integers(1, 200),
       st.sampled_from([1, 2, 3, Fraction(3, 2)]))
@example(prefix=[19, 8, 16, 2, 2, 8, 2, 2, 2, 1, 20, 1, 2, 1, 3], run=49, tail=[], W=200, p=3)
@settings(max_examples=60, deadline=None)
def test_single_pass_prune_matches_repeated_passes(prefix, run, tail, W, p):
    # One pass reaches the repeated loop's fixed point: the rows, their
    # starts and their counts agree after every update.  A long run of a new
    # coordinate after a varied prefix brings the rows' values together, so
    # that neighbouring rows become deletable in the same pass (the example).
    coords = prefix + [21] * run + tail
    hist, ref = SmoothHistogram(p, W=W), _RepeatedPassHistogram(p, W)
    for c in coords:
        hist.update(c)
        ref.update(c)
        assert [(r.t_start, r.est.counts) for r in hist.rows] == [(t, cs) for t, cs, _ in ref.rows]
