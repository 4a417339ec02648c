"""End-to-end acceptance battery.

Each test pins one headline guarantee at its stated tolerance:

 1. exact conditional laws (zero tolerance) on exhaustive tiny-stream
    batteries for every sampler family, enumerated over every branch of the
    real samplers' random choices at the zeta they ship with
    (oracle.sampler_law, and oracle.order_law over every order of a
    random-order window), plus the symbolic telescoping identities for every
    measure;
 2. per-repetition success probability: exactly F_G/(zeta m) at the
    sampler's own zeta on every tiny stream of item 1, and exact lower
    bounds on the shipped Misra-Gries and smooth-histogram zeta;
 3. fidelity at scale: at the zeta each measure ships with, every increment
    of a 100-coordinate Zipf(1.2) stream is accepted with probability at
    most 1, which is all the telescoping law needs beyond item 1; and the
    laws of the real F0 and Tukey samplers, enumerated exactly;
 4. deterministic frequency / normalizer bounds on fuzzed streams, zero
    violations;
 5. support-sampler failure rate <= 0.4;
 6. random-order failure rate <= 0.34 at window 10^4;
 7. shared-counter bank throughput at R=1024 within 2x of R=64;
 8. multipass pass counts exactly ceil(1/gamma);
 9. duplicated-exponential sampler TV <= 0.05;
10. the inclusive-counter mutant, injected into the real reservoir bank, is
    rejected by the exactness battery at the shipped zeta.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
from statcheck import np_substream

from exactsamp import oracle
from exactsamp.core import (
    Update,
    huber_measure,
    l1l2_measure,
    fair_measure,
    lp_measure,
    tukey_measure,
)
from exactsamp.exactrand import pow_bounds, substream
from exactsamp.f0sampler import F0Sampler, F0State, TukeySampler
from exactsamp.gsampler import GSampler, acceptance, lp_zeta
from exactsamp.matrixsampler import L1RowMeasure, MatrixSampler
from exactsamp.heavyhitters import MGSummary, mg_budget, z_bound
from exactsamp.multipass import ReplayableStream, multipass_l1_draw, multipass_lp_draw, passes_for
from exactsamp.randomorder import PairL2Sampler, alpha_coeffs, falling
from exactsamp.reservoir import SamplerBank
from exactsamp.smallp import DuplicatedExpState
from exactsamp.sliding import CheckpointedSampler, SlidingLpSampler
from exactsamp.smoothhist import SmoothHistogram


# ---------------------------------------------------------------------------
# shared stream builders


def zipf_freqs(n, scale, alpha=1.2):
    """Deterministic Zipf-like frequency vector: f_i = max(1, round(c/i^a))."""
    return {i: max(1, round(scale / i ** alpha)) for i in range(1, n + 1)}


def freq_stream(freqs, seed=0):
    """Coordinate list realizing freqs, in a seeded shuffled order."""
    coords = []
    for i in sorted(freqs):
        coords.extend([i] * freqs[i])
    substream(seed, "stream").shuffle(coords)
    return coords


def all_streams(n, m):
    return itertools.product(range(1, n + 1), repeat=m)


def freq_vectors(n, total_max):
    """All nonnegative coord->count dicts over [1, n] with 1 <= sum <= max."""
    for m in range(1, total_max + 1):
        for cuts in itertools.combinations(range(m + n - 1), n - 1):
            vec = []
            prev = -1
            for c in cuts + (m + n - 1,):
                vec.append(c - prev - 1)
                prev = c
            yield {i + 1: f for i, f in enumerate(vec) if f}


# ---------------------------------------------------------------------------
# 1. exact conditional laws, zero tolerance


def test_exact_laws_insertion_only_exhaustive():
    # Every insertion-only stream with m <= 6, n <= 3: the law of one draw of
    # the real GSampler at R = 1 and its shipped zeta (L_2's 2Z from
    # Misra-Gries), enumerated over every branch of its random choices, must
    # condition to G(f_i)/F_G as exact rationals.  Its one repetition must
    # succeed with probability exactly F_G/(zeta m), at the zeta the sampler
    # reads for its draw, and never return bottom on a nonempty stream.
    measures = (lp_measure(1), lp_measure(2), huber_measure(2))
    checked = 0
    for m in range(1, 7):
        for coords in all_streams(3, m):
            freqs = Counter(coords)
            for meas in measures:
                make = lambda: GSampler(meas, 3, m, repetitions=1)
                law = oracle.sampler_law(make, coords)
                target = oracle.target_distribution(freqs, meas)
                assert law.conditional() == target.probs, (coords, meas.name)
                sampler = make()
                sampler.process(coords)
                zeta, _ = sampler._zeta_at_draw()
                fg = sum(meas.g_exact(f) for f in freqs.values())
                assert law.mass_fail == 1 - fg / (zeta * m), (coords, meas.name)
                assert law.mass_bottom == 0, (coords, meas.name)
            checked += 1
    assert checked == sum(3 ** m for m in range(1, 7))


def test_exact_laws_symbolic_all_measures():
    # The same battery symbolically: law * (m * zeta) must equal {f_i: 1}
    # in the G-basis, which certifies exactness for every measure function
    # (including irrational G) at once.
    for m in range(1, 11):
        for coords in all_streams(3, m):
            coeffs = oracle.gsampler_coefficients(coords)
            freqs = Counter(coords)
            assert coeffs == {i: {f: Fraction(1)} for i, f in freqs.items()}, coords


def _matrix_updates(cells):
    return [Update(r, col=c) for r, c in cells]


def test_exact_laws_matrix():
    l1row = L1RowMeasure()

    def row_vectors(cells):
        vecs = {}
        for r, c in cells:
            vecs.setdefault(r, [0, 0, 0])[c - 1] += 1
        return vecs

    def check_law(cells):
        # One draw of the real MatrixSampler at R = 1, every branch.
        law = oracle.sampler_law(
            lambda: MatrixSampler(l1row, 3, 3, len(cells), repetitions=1),
            _matrix_updates(cells))
        rows = Counter(r for r, _ in cells)
        total = sum(rows.values())
        assert law.conditional() == {r: Fraction(f, total) for r, f in rows.items()}, cells

    def check_symbolic(cells):
        # Symbolic row-vector telescoping covers arbitrary row measures.
        coeffs = oracle.matrix_coefficients(_matrix_updates(cells), d=3)
        assert coeffs == {r: {tuple(v): Fraction(1)}
                          for r, v in row_vectors(cells).items()}, cells

    cellset = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    # Exhaustive over every order for m <= 4.
    for m in range(1, 5):
        for cells in itertools.product(cellset, repeat=m):
            check_law(list(cells))
            check_symbolic(list(cells))
    # Every frequency matrix with 5 <= m <= 8 in canonical order, plus seeded
    # random orders (the law is order-invariant; full order enumeration at
    # m = 8 is 9^8 streams and out of runtime budget).
    rng = substream(0, "matrix-orders")
    for fv in freq_vectors(9, 8):
        m = sum(fv.values())
        if m < 5:
            continue
        cells = []
        for k, f in fv.items():
            cells.extend([cellset[k - 1]] * f)
        check_symbolic(list(cells))
        for _ in range(2):
            rng.shuffle(cells)
            check_symbolic(list(cells))


def test_exact_laws_sliding_window():
    # One draw of the real CheckpointedSampler at R = 1, every branch, for
    # every stream with m <= 4 and W <= 6.
    l1 = lp_measure(1)
    hub = huber_measure(2)
    for m in range(1, 5):
        for coords in all_streams(3, m):
            for W in range(1, 7):
                winfreq = Counter(coords[max(0, m - W):])
                for meas in (l1, hub):
                    law = oracle.sampler_law(
                        lambda: CheckpointedSampler(meas, W, 3, repetitions=1), coords)
                    target = oracle.target_distribution(winfreq, meas)
                    assert law.conditional() == target.probs, (coords, W, meas.name)
    # The real SlidingLpSampler at R = 1 on the same streams, at p = 1, 2
    # and 3, whose zeta = p max_f^{p-1} of the bracket row is rational.
    checked = Counter()
    for m in range(1, 5):
        for coords in all_streams(3, m):
            for W in range(1, 7):
                winfreq = Counter(coords[max(0, m - W):])
                for p in (1, 2, 3):
                    law = oracle.sampler_law(
                        lambda: SlidingLpSampler(p, W, 3, repetitions=1), coords)
                    fp = sum(f ** p for f in winfreq.values())
                    want = {i: Fraction(f ** p, fp) for i, f in winfreq.items()}
                    assert law.conditional() == want, (coords, W, p)
                    checked[p] += 1
    assert checked == {1: 720, 2: 720, 3: 720}


def test_exact_laws_random_order():
    # The first pair of the real PairL2Sampler, over every order of the
    # window, harvests coordinate j with probability exactly f_j^2/W^2, for
    # every window composition with W <= 6.  (The per-tuple law of
    # BlockLpSampler is the alpha identity of test_randomorder, and its
    # harvest counts are enumerated on the real class there.)
    checked = 0
    for W in range(2, 7):
        for fv in freq_vectors(W, W):
            if sum(fv.values()) != W:
                continue
            law = oracle.order_law(lambda: PairL2Sampler(W, W), fv, length=2)
            assert law.probs == {i: Fraction(f * f, W * W) for i, f in fv.items()}, (fv, W)
            checked += 1
    assert checked == 636


def _freq_updates(fv):
    return [Update(i) for i in sorted(fv) for _ in range(fv[i])]


def test_exact_laws_multipass():
    # One draw of the real multipass samplers (one chain), every branch.
    gammas = (Fraction(1, 3), Fraction(1, 2), Fraction(1))
    for n in (2, 3, 4, 6, 8):
        for fv in freq_vectors(n, 6):
            m = sum(fv.values())
            stream = ReplayableStream(_freq_updates(fv))
            for gamma in gammas:
                law = oracle.enumerate_law(lambda: multipass_l1_draw(stream, gamma, n)[0])
                assert law.conditional() == {i: Fraction(f, m)
                                             for i, f in fv.items()}, (fv, gamma)
    for n in (2, 4):
        for fv in freq_vectors(n, 5):
            f2 = sum(f * f for f in fv.values())
            stream = ReplayableStream(_freq_updates(fv))
            law = oracle.enumerate_law(
                lambda: multipass_lp_draw(stream, Fraction(1, 2), 2, n, repetitions=1))
            assert law.conditional() == {i: Fraction(f * f, f2)
                                         for i, f in fv.items()}, fv


# ---------------------------------------------------------------------------
# 2. per-repetition success: exact lower bounds on the shipped zeta
#
# A repetition of the insertion-only sampler succeeds with probability
# exactly F_G/(zeta m) (item 1 enumerates it), and a live repetition of the
# sliding one with F_G(window)/(zeta W).  At p = 3/2 both sides are
# irrational and are compared as rational brackets at 2^-64, lower ends
# against upper ends; at p = 2 the brackets are exact.

PRECISION = 64


def _zeta_upper(zeta_exact, zeta_bounds):
    """A rational upper bound on lp_zeta's zeta, equal to it when rational."""
    if zeta_exact is not None:
        return zeta_exact
    return Fraction(zeta_bounds(PRECISION)[1], 1 << PRECISION)


def _lower(base, exp):
    """A rational lower bound on base**exp."""
    return pow_bounds(base, exp, PRECISION)[0]


def _fp_lower(freqs, p):
    """A rational lower bound on F_p of the frequencies freqs."""
    return sum(_lower(f, p) for f in freqs.values())


def _mg_zeta(coords, p, n):
    """lp_zeta at the Z of the Misra-Gries summary the sampler keeps."""
    mg = MGSummary(mg_budget(p, n))
    mg.extend((c, 1) for c in coords)
    return lp_zeta(z_bound(mg, p, n), p)


def _accepts_at_most_one(measure, c, zeta_exact, zeta_bounds):
    """Whether acceptance gives state c a probability of at most 1: a
    rational one (a quotient above 1 raises), or a bracket whose lower end
    at 2^-64 is at most 2^64."""
    try:
        q = acceptance(measure, c, zeta_exact, zeta_bounds)
    except ValueError:
        return False
    return q(PRECISION)[0] <= 1 << PRECISION if callable(q) else q <= 1


def test_success_bound_lp_above_one():
    # p in (1, 2] with the shipped zeta = p Z^{p-1}:
    # F_p/(zeta m) >= 1/(4 n^{1-1/p}), i.e. 4 F_p n^{1-1/p} >= zeta m.
    n = 100
    freqs = zipf_freqs(n, 300)
    coords = freq_stream(freqs, seed=2)
    m = len(coords)
    for p in (Fraction(3, 2), Fraction(2)):
        zeta_hi = _zeta_upper(*_mg_zeta(coords, p, n))
        lhs = 4 * _fp_lower(freqs, p) * _lower(n, 1 - 1 / p)
        assert lhs >= zeta_hi * m, (p, float(lhs), float(zeta_hi * m))


def test_success_bound_sliding_lp():
    # Sliding L_p with the shipped zeta = p max_f^{p-1} of the bracket row:
    # every state c < f of the window is accepted with probability at most
    # 1, and a live repetition succeeds with probability
    # F_p(window)/(zeta W) >= 1/(p 2^{p-1} W^{1-1/p}), i.e.
    # p 2^{p-1} W^{1-1/p} F_p(window) >= zeta W.
    W = 64
    freqs = zipf_freqs(10, 60)
    coords = freq_stream(freqs, seed=3) * 3  # length 3x window-ish suffixes
    window = Counter(coords[-W:])
    for p in (Fraction(3, 2), Fraction(2)):
        hist = SmoothHistogram(p, W)
        hist.ingest(coords)
        zeta = lp_zeta(Fraction(hist.bracket().est.max_f), p)
        meas = lp_measure(p)
        assert all(_accepts_at_most_one(meas, c, *zeta) for c in range(max(window.values())))
        zeta_hi = _zeta_upper(*zeta)
        lhs = p * _lower(2, p - 1) * _lower(W, 1 - 1 / p) * _fp_lower(window, p)
        assert lhs >= zeta_hi * W, (p, float(lhs), float(zeta_hi * W))


# ---------------------------------------------------------------------------
# 3. fidelity at scale, and the support samplers' exact laws


def test_fidelity_zipf_battery():
    # The law telescopes to G(f_i)/F_G for every measure and stream (item 1
    # enumerates it, and the symbolic battery covers irrational G) provided
    # zeta bounds every increment a repetition reads.  So at the zeta each
    # case ships with -- the measure's static zeta, or p Z^{p-1} from the
    # stream's Misra-Gries Z -- every state c < f_max = 300 of the stream
    # must be accepted with probability at most 1.
    n = 100
    freqs = zipf_freqs(n, 300)
    coords = freq_stream(freqs, seed=4)
    fmax = max(freqs.values())
    assert fmax == 300
    cases = [
        ("lp-0.5", lp_measure(Fraction(1, 2))),
        ("lp-1", lp_measure(1)),
        ("lp-1.5", lp_measure(Fraction(3, 2))),
        ("lp-2", lp_measure(2)),
        ("l1l2", l1l2_measure()),
        ("fair-1", fair_measure(1)),
        ("huber-1", huber_measure(1)),
        ("tukey-2", tukey_measure(2)),
    ]
    for tag, meas in cases:
        zeta = (meas.zeta, None) if meas.zeta is not None else _mg_zeta(coords, meas.p, n)
        above = [c for c in range(fmax) if not _accepts_at_most_one(meas, c, *zeta)]
        assert not above, (tag, above[:5])


def test_fidelity_f0_uniform_support():
    # One draw of the real F0Sampler and TukeySampler at R = 1, enumerated
    # over every branch, the instance's random subset S included (at n = 7,
    # |S| = 6, so S misses a coordinate).  F0 is uniform over the (window)
    # support, and Tukey's law is G(f_i)/F_G.
    tukey = tukey_measure(2)
    cases = [
        (None, 7, [1, 1], None),
        (None, 7, [1, 2, 3, 3, 4], None),
        (None, 7, [1, 2, 3, 3, 4, 5], 3),
        (tukey, 4, [1, 1, 2], None),
        (tukey, 5, [1, 2, 2, 2, 3, 4], None),
        (tukey, 5, [1, 2, 2, 2, 3, 4], 3),
    ]
    for meas, n, coords, W in cases:
        if meas is None:
            make = lambda: F0Sampler(n, window=W, repetitions=1)
        else:
            make = lambda: TukeySampler(meas, n, window=W, repetitions=1)
        law = oracle.sampler_law(make, coords)
        freqs = Counter(coords[len(coords) - W:] if W else coords)
        if meas is None:
            want = {i: Fraction(1, len(freqs)) for i in freqs}
        else:
            want = oracle.target_distribution(freqs, meas).probs
        assert law.conditional() == want, (meas, n, coords, W)


# ---------------------------------------------------------------------------
# 4. deterministic guarantees, zero violations over 1e4 fuzzed streams


def test_mg_bounds_fuzzed():
    rng = substream(31, "mg-fuzz")
    for t in range(10000):
        n = rng.randrange(2, 13)
        k = rng.randrange(1, 7)
        length = rng.randrange(1, 41)
        mg = MGSummary(k)
        freqs = Counter()
        m = 0
        for _ in range(length):
            c = rng.randrange(n) + 1
            w = rng.randrange(1, 4)
            mg.update(c, w)
            freqs[c] += w
            m += w
        for c in range(1, n + 1):
            est = mg.estimate(c)
            f = freqs.get(c, 0)
            assert est <= f, (t, c)
            assert est >= f - m / k, (t, c)


def test_z_bounds_fuzzed():
    rng = substream(37, "z-fuzz")
    for t in range(10000):
        p = Fraction(3, 2) if t % 2 else Fraction(2)
        n = rng.randrange(4, 30)
        length = rng.randrange(1, 41)
        mg = MGSummary(mg_budget(p, n))
        freqs = Counter()
        for _ in range(length):
            c = rng.randrange(n) + 1
            mg.update(c)
            freqs[c] += 1
        Z = z_bound(mg, p, n)
        fmax = max(freqs.values())
        slack = Fraction(length) / math.ceil(n ** (1.0 - 1.0 / float(p)) - 1e-9)
        assert fmax <= Z <= fmax + slack, (t, Z, fmax)


# ---------------------------------------------------------------------------
# 5. support-sampler failure rate


def test_f0_fail_rate_all_distinct():
    # All-distinct stream: the support contains every tracked subset member,
    # so a draw can never fail regardless of the subset choice.
    n = 10000
    st = F0State(n)
    S = st.subset(41)
    for c in range(1, n + 1):
        st.update(c)
    fails = sum(st.draw(S, substream(t, "d")).outcome == "fail"
                for t in range(10000))
    assert fails == 0


def test_f0_fail_rate_sqrt_support():
    # sqrt(n)-sized support: the subset misses it with probability about
    # e^{-2}; measured failure rate must stay below 0.4.
    n = 10000
    support = list(range(1, 101))  # sqrt(n) coordinates
    fails = 0
    trials = 10000
    for t in range(trials):
        st = F0State(n)
        for c in support:
            st.update(c)
        if st.draw(st.subset(100000 + t), substream(t, "d2")).outcome == "fail":
            fails += 1
    rate = fails / trials
    assert rate <= 0.4, rate
    # and the regime is the interesting one: failures do actually occur.
    assert rate >= 0.05, rate


# ---------------------------------------------------------------------------
# 6. random-order failure rate <= 0.34 at W = 1e4, p in {2, 3}


RO_TRIALS = 100000
RO_W = 10000


def _ro_window_pool():
    scale = RO_W / sum(1 / i ** 1.2 for i in range(1, 101))
    freqs = {i: max(1, round(scale / i ** 1.2)) for i in range(1, 101)}
    total = sum(freqs.values())
    freqs[1] += RO_W - total  # pad the head to hit the window size exactly
    pool = np.repeat(np.arange(100), [freqs[i + 1] for i in range(100)])
    assert len(pool) == RO_W
    return pool


def test_random_order_fail_rate_pairs():
    # Pair harvests fire on a 1/W coin or on a collision; with a Zipf window
    # collisions are abundant, so the empty-harvest probability is far below
    # the 1/3 allowance.
    pool = _ro_window_pool()
    rng = np_substream(43, "ro-pair")
    no_coin = (1.0 - 1.0 / RO_W) ** (RO_W // 2)
    fails = 0
    done = 0
    chunk = 200
    while done < RO_TRIALS:
        c = min(chunk, RO_TRIALS - done)
        mat = rng.permuted(np.tile(pool, (c, 1)), axis=1)
        collisions = (mat[:, ::2] == mat[:, 1::2]).sum(axis=1)
        # Fail requires zero collisions AND every 1/W coin to miss.
        maybe = collisions == 0
        fails += int((maybe & (rng.random(c) < no_coin)).sum())
        done += c
    assert fails / RO_TRIALS <= 0.34, fails


def test_random_order_fail_rate_blocks():
    # Block sampler, p = 3, B = 100: the harvest count is a sum of
    # binomial(T_q, alpha_q) draws over constant-prefix tuple counts; the
    # trial fails only when all of them are zero.
    p = 3
    B = 100
    n_blocks = RO_W // B
    pool = _ro_window_pool()
    alphas = [float(a) for a in alpha_coeffs(p, RO_W)]
    f1 = falling(B - 1, 2)
    f2 = falling(B - 2, 1)
    rng = np_substream(47, "ro-block")
    fails = 0
    done = 0
    chunk = 200
    offsets = None
    while done < RO_TRIALS:
        c = min(chunk, RO_TRIALS - done)
        mat = rng.permuted(np.tile(pool, (c, 1)), axis=1)
        blocks = mat.reshape(c * n_blocks, B)
        if offsets is None or len(offsets) != c * n_blocks:
            offsets = (np.arange(c * n_blocks) * 100)[:, None]
        g = np.bincount((blocks + offsets).ravel(),
                        minlength=c * n_blocks * 100).reshape(c, n_blocks, 100)
        gf = g.astype(np.float64)
        T1 = gf.sum(axis=(1, 2)) * f1
        T2 = (gf * (gf - 1)).sum(axis=(1, 2)) * f2
        T3 = (gf * (gf - 1) * (gf - 2)).sum(axis=(1, 2))
        log_fail = (T1 * math.log1p(-alphas[0]) + T2 * math.log1p(-alphas[1])
                    + T3 * math.log1p(-alphas[2]))
        fails += int((rng.random(c) < np.exp(log_fail)).sum())
        done += c
    assert fails / RO_TRIALS <= 0.34, fails


# ---------------------------------------------------------------------------
# 7. shared-counter bank: O(1) amortized updates in the repetition count


def test_bank_throughput_scales_flat():
    m = 10 ** 7
    coords = np_substream(53, "bench").integers(1, 1001, size=m).tolist()

    def run(R):
        bank = SamplerBank(R, seed=7)
        up = bank.update
        t0 = time.perf_counter()
        for c in coords:
            up(c)
        return time.perf_counter() - t0

    run(64)  # warm-up
    t64 = run(64)
    t1024 = run(1024)
    print("bank throughput: R=64 %.0f/s, R=1024 %.0f/s (ratio %.2f)"
          % (m / t64, m / t1024, t1024 / t64))
    assert t1024 <= 2.0 * t64, (t64, t1024)


# ---------------------------------------------------------------------------
# 8. multipass pass counts


def test_multipass_pass_counts():
    ups = [Update(i % 4 + 1) for i in range(12)]
    for gamma in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        want = math.ceil(1 / gamma)
        assert passes_for(gamma) == want
        for draw in (lambda s: multipass_l1_draw(s, gamma, 4, seed=0),
                     lambda s: multipass_lp_draw(s, gamma, 2, 4, seed=0)):
            stream = ReplayableStream(ups)
            draw(stream)
            assert stream.passes == want, gamma


# ---------------------------------------------------------------------------
# 9. duplicated-exponential sampler (additive-error regime)


def test_smallp_tv_bound():
    # p = 1/2, D = 256 duplicates, f = (1, 1): conditional law must be within
    # TV 0.05 of uniform over 1e5 trials.
    hist = Counter()
    trials = 100000
    for t in range(trials):
        st = DuplicatedExpState(0.5, D=256, seed=t)
        st.process([1, 2])
        res = st.draw()
        if res.outcome == "index":
            hist[res.index] += 1
    n_idx = hist[1] + hist[2]
    assert n_idx > 0
    tv = abs(hist[1] / n_idx - 0.5)
    assert tv <= 0.05, (dict(hist), tv)


# ---------------------------------------------------------------------------
# 10. mutation sensitivity: the inclusive-counter variant must be rejected


def test_inclusive_counter_mutant_fails_exactness(monkeypatch):
    # The literal-pseudocode counter also counts the sampled occurrence.
    # Injected into the real bank, the enumerated GSampler law at its shipped
    # zeta = 2Z must miss the target.
    effective = SamplerBank.effective

    def inclusive(self, i):
        s, t_s, c = effective(self, i)
        return s, t_s, c + 1

    monkeypatch.setattr(SamplerBank, "effective", inclusive)
    l2 = lp_measure(2)

    def law_of(coords):
        return oracle.sampler_law(
            lambda: GSampler(l2, 2, len(coords), repetitions=1), coords)

    rejected = 0
    for m in range(1, 7):
        for coords in all_streams(2, m):
            freqs = Counter(coords)
            target = oracle.target_distribution(freqs, l2)
            if law_of(coords).conditional() != target.probs:
                rejected += 1
    # Single-coordinate and symmetric streams can coincide; every stream with
    # two distinct frequencies must be rejected.
    assert rejected > 0
    law = law_of([1, 1, 2])
    # The mutant telescopes to G(f+1) - G(1): (8, 3)/11 instead of (4, 1)/5.
    assert law.conditional() == {1: Fraction(8, 11), 2: Fraction(3, 11)}
    assert law.conditional() != oracle.target_distribution({1: 2, 2: 1}, l2).probs
