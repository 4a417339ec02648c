import pytest

from statcheck import gof_test, np_substream


def test_np_substream_deterministic():
    assert np_substream(3, "a").random() == np_substream(3, "a").random()


def test_np_substream_pinned():
    # The simulations' seeds keep drawing the numbers they drew when the
    # generator lived in the package.
    assert np_substream(0, "gof").random() == 0.46936471762513066
    assert np_substream(53, "bench").integers(1, 1001, size=5).tolist() == [36, 787, 762, 992, 131]


def test_gof_calibration():
    # Histograms drawn from the target itself should pass most of the time.
    rng = np_substream(0, "gof")
    target = {1: 0.5, 2: 0.3, 3: 0.2}
    passes = 0
    for _ in range(40):
        draw = rng.multinomial(20000, [0.5, 0.3, 0.2])
        hist = {k + 1: int(v) for k, v in enumerate(draw)}
        if gof_test(hist, target).pvalue > 0.01:
            passes += 1
    assert passes >= 37


def test_gof_power():
    rng = np_substream(0, "gofp")
    draw = rng.multinomial(10 ** 6, [0.4, 0.4, 0.2])
    hist = {k + 1: int(v) for k, v in enumerate(draw)}
    rep = gof_test(hist, {1: 0.5, 2: 0.3, 3: 0.2})
    assert rep.pvalue < 1e-6
    assert rep.tv > 0.05


def test_gof_zero_prob_cell():
    rep = gof_test({1: 100, 2: 5}, {1: 1.0})
    assert rep.pvalue == 0.0


def test_gof_rejects_empty():
    with pytest.raises(ValueError):
        gof_test({}, {1: 1.0})


def test_gof_tv_identity():
    rep = gof_test({1: 500, 2: 500}, {1: 0.5, 2: 0.5})
    assert rep.tv == 0.0
