import time
from collections import Counter

from exactsamp.core import huber_measure, lp_measure
from exactsamp.exactrand import substream
from exactsamp.sliding import CheckpointedSampler, SlidingLpSampler, active_bank_start
from exactsamp.smoothhist import SmoothHistogram
from exactsamp import oracle


def test_active_bank_start():
    # Banks start at 1, W+1, 2W+1, ...; the draw uses the newest bank whose
    # start is at or before the window start.
    assert active_bank_start(3, 3) == 1
    assert active_bank_start(4, 3) == 1
    assert active_bank_start(6, 3) == 4
    assert active_bank_start(7, 3) == 4
    assert active_bank_start(10, 3) == 7


def _active_bank_start_by_scan(t, W):
    # Reference: scan every bank start 1, W+1, ... <= t.
    best = 1
    for s in range(1, t + 1, W):
        if s <= t - W + 1:
            best = s
    return best


def test_active_bank_start_matches_scan():
    for W in range(1, 16):
        for t in range(0, 401):
            assert active_bank_start(t, W) == _active_bank_start_by_scan(t, W), (t, W)


def test_active_bank_start_flat_in_t():
    # Closed form: a call at t = 10^7 costs about what one at t = 10^3 does
    # (a scan over the bank starts made it O(t/W)).
    def best(t):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(2000):
                active_bank_start(t, 10)
            times.append(time.perf_counter() - t0)
        return min(times)

    small, large = best(10 ** 3), best(10 ** 7)
    assert large <= 3 * small, (large, small)


def test_bottom_on_empty():
    s = CheckpointedSampler(lp_measure(1), W=3)
    assert s.draw().outcome == "bottom"


def test_single_active_support():
    s = CheckpointedSampler(lp_measure(1), W=3, seed=2)
    s.process([1, 1, 1, 2, 2, 2])
    res = s.draw()
    if res.outcome == "index":
        assert res.index == 2


def test_expiry_safety_fuzz():
    W = 3
    for t in range(300):
        s = CheckpointedSampler(huber_measure(2), W=W, seed=t)
        stream = [substream(t, "f").randrange(3) + 1 for _ in range(7)]
        s.process(stream)
        res = s.draw()
        if res.outcome == "index":
            assert res.index in stream[-W:]


def test_window_covers_stream_matches_gsampler_law():
    # W >= stream length: conditional law equals the insertion-only target.
    coords = [1, 1, 2, 3]
    hist = Counter()
    for t in range(3000):
        s = CheckpointedSampler(lp_measure(1), W=8, seed=t, repetitions=8)
        s.process(coords)
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    rep = oracle.gof_test(dict(hist), {1: 0.5, 2: 0.25, 3: 0.25})
    assert rep.pvalue > 1e-4


def test_conditional_law_matches_window_target():
    coords = [1, 1, 2, 3, 3, 1]
    W = 4  # active window [3..6]: f = {2:1, 3:2, 1:1}
    hist = Counter()
    for t in range(3000):
        s = CheckpointedSampler(huber_measure(2), W=W, seed=t, repetitions=8)
        s.process(coords)
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    meas = huber_measure(2)
    g = {i: float(meas.g_exact(f)) for i, f in {2: 1, 3: 2, 1: 1}.items()}
    tot = sum(g.values())
    rep = oracle.gof_test(dict(hist), {i: v / tot for i, v in g.items()})
    assert rep.pvalue > 1e-4


def test_sliding_lp_conditional_law():
    coords = [2, 1, 1, 3, 1, 2]
    W = 3  # active f = {3:1, 1:1, 2:1}... last three: [3, 1, 2]
    hist = Counter()
    fails = 0
    for t in range(1500):
        s = SlidingLpSampler(2, W=W, seed=t, repetitions=8)
        s.process(coords)
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
        else:
            fails += 1
    rep = oracle.gof_test(dict(hist), {1: 1 / 3, 2: 1 / 3, 3: 1 / 3})
    assert rep.pvalue > 1e-4


def test_sliding_lp_skewed_window():
    coords = [1, 1, 2]
    W = 3  # f = (2,1), p=2: conditional (4/5, 1/5)
    hist = Counter()
    for t in range(2000):
        s = SlidingLpSampler(2, W=W, seed=t, repetitions=8)
        s.process(coords)
        res = s.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    rep = oracle.gof_test(dict(hist), {1: 0.8, 2: 0.2})
    assert rep.pvalue > 1e-4


def test_sliding_lp_expiry_safety():
    W = 4
    for t in range(150):
        s = SlidingLpSampler(2, W=W, seed=t, repetitions=8)
        stream = [substream(t, "g").randrange(3) + 1 for _ in range(9)]
        s.process(stream)
        res = s.draw()
        if res.outcome == "index":
            assert res.index in stream[-W:]


def test_sliding_lp_p1_always_accepts():
    s = SlidingLpSampler(1, W=4, seed=0, repetitions=8)
    s.process([1, 2, 3, 4])
    assert s.draw().outcome == "index"


def test_sliding_lp_draw_reads_units_lazily(monkeypatch):
    # zeta is read from the bracket row alone, so a draw reads repetitions
    # only up to the first that accepts: at p = 1 with every sample in the
    # window, that is repetition 0.
    s = SlidingLpSampler(1, W=50, seed=3, repetitions=400)
    s.process(range(1, 51))
    bank = s._draw_bank()
    reads = []
    real = bank.effective
    monkeypatch.setattr(bank, "effective", lambda i: reads.append(i) or real(i))
    assert s.draw().repetition == 0
    assert reads == [0]


def test_sliding_lp_ingest_within_ratio_of_bare_histogram():
    # Scaling guard as a ratio on one stream: all R units run in the two
    # checkpoint banks, O(R log W / W) expected skips per update, so ingest
    # stays within a constant factor of the histogram alone (per-row banks
    # made it ~350x at R=512).
    coords = [c % 100 + 1 for c in range(400)]
    substream(21, "ratio").shuffle(coords)

    def best(make):
        times = []
        for _ in range(3):
            x = make()
            t0 = time.perf_counter()
            for c in coords:
                x.update(c)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_hist = best(lambda: SmoothHistogram(2, 50))
    t_lp = best(lambda: SlidingLpSampler(2, W=50, repetitions=512))
    print("sliding L2 ingest / bare histogram: %.2f" % (t_lp / t_hist))
    assert t_lp <= 10 * t_hist, (t_lp, t_hist)
