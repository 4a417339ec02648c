import time
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactsamp.exactrand import substream
from exactsamp.smoothhist import SmoothHistogram, WindowCounter


def _entries(c):
    return len(c.ring) + len(c.counts) + len(c.tally)


@given(st.lists(st.integers(1, 5), max_size=120), st.lists(st.integers(1, 60), min_size=1),
       st.sampled_from([1, 2, 5, 50]))
@example(coords=[1] * 60 + [2] * 60, cuts=[7], W=50)  # max_f falls one step per update
@settings(max_examples=150, deadline=None)
def test_counter_matches_a_recount_after_every_batch(coords, cuts, W):
    # In any split, after every batch: the counts, the tallies and max_f
    # equal a recount of the last W coordinates, and the ring, the counts
    # and the tallies hold at most 3W + 1 entries.
    c, k, i = WindowCounter(W), 0, 0
    while k < len(coords):
        batch = coords[k:k + cuts[i % len(cuts)]]
        c.ingest(batch)
        k, i = k + len(batch), i + 1
        window = Counter(coords[max(0, k - W):k])
        assert c.counts == window, (k, W)
        assert c.max_f == max(window.values()), (k, W)
        tallies = Counter(window.values())
        assert [c.tally[f] for f in range(1, len(c.tally))] == [
            tallies[f] for f in range(1, len(c.tally))], (k, W)
        assert _entries(c) <= 3 * W + 1
    assert c.t == len(coords)


def test_per_call_update_is_a_batch_of_one():
    coords = [substream(4, "s").randrange(4) + 1 for _ in range(120)]
    one, batch = WindowCounter(7), WindowCounter(7)
    for x in coords:
        one.update(x)
    batch.ingest(coords)
    assert (one.ring, one.counts, one.tally, one.max_f) == (
        batch.ring, batch.counts, batch.tally, batch.max_f)
    assert SmoothHistogram is WindowCounter  # the name the layer tracer wraps


def _stream(W):
    rng = substream(1, "counter-scaling")
    return [rng.randrange(10 ** 5) + 1 for _ in range(3 * W)]


def test_counter_entries_stay_linear_in_the_window():
    # 3W uniform updates over n = 10^5: the ring holds W coordinates, the
    # counts at most W, and the tallies one per count up to max_f <= W.
    for W in (1000, 4000, 16000):
        c = WindowCounter(W)
        c.ingest(_stream(W))
        assert len(c.ring) == W
        assert _entries(c) <= 3 * W + 1, (W, _entries(c))


def test_counter_ingest_flat_in_the_window():
    # O(1) per update: ns/update at W = 16,000 within 2x of W = 1,000.
    def per_update(W):
        coords, times = _stream(W), []
        for _ in range(5):
            c = WindowCounter(W)
            t0 = time.perf_counter()
            c.ingest(coords)
            times.append(time.perf_counter() - t0)
        return min(times) / len(coords)

    small, large = per_update(1000), per_update(16000)
    print("window counter ns/update, W = 16000 / 1000: %.2f" % (large / small))
    assert large <= 2 * small, (large, small)
