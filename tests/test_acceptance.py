"""End-to-end acceptance battery.

Each test pins one headline guarantee at its stated tolerance:

 1. exact conditional laws (zero tolerance) on exhaustive tiny-stream
    batteries for every sampler family, by the checkers of exactsamp.verify
    that `exactsamp verify` runs too: each enumerates every branch of the
    real sampler's random choices at the zeta it ships with
    (oracle.sampler_law, and oracle.order_law over every order of a
    random-order window), or with the acceptance coin kept symbolic
    (oracle.symbolic_sampler_law), which covers the measures whose coin is
    irrational;
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
    rejected by the exactness battery at the shipped zeta and by the
    symbolic sweep.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
from statcheck import np_substream

from exactsamp import oracle, verify
from exactsamp.core import (
    Update,
    huber_measure,
    l1l2_measure,
    fair_measure,
    lp_measure,
    tukey_measure,
)
from exactsamp.exactrand import pow_bounds, substream
from exactsamp.f0sampler import F0State
from exactsamp.gsampler import acceptance, lp_zeta
from exactsamp.heavyhitters import MGSummary, mg_budget, z_bound
from exactsamp.multipass import ReplayableStream, multipass_l1_draw, multipass_lp_draw, passes_for
from exactsamp.randomorder import PairL2Sampler, alpha_coeffs, falling
from exactsamp.reservoir import SamplerBank
from exactsamp.smallp import DuplicatedExpState
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
            for meas in measures:
                assert verify.gsampler(meas, coords).ok, (coords, meas.name)
            checked += 1
    assert checked == sum(3 ** m for m in range(1, 7))


def test_exact_laws_symbolic_all_measures():
    # The real GSampler at R = 1 with its acceptance coin kept symbolic:
    # index i's probability, over the basis {G(x)} and times zeta, must be
    # exactly G(f_i)/m.  The sampler reads G only through its coins, so one
    # enumeration certifies every measure of the same zeta source,
    # irrational G included: a static zeta (Fair) and the Misra-Gries
    # p Z^{p-1} (L_{3/2}).  Every stream with m <= 6 over 3 coordinates,
    # and 20 seeded streams per m = 7..10.
    rng = substream(0, "symbolic-streams")
    streams = [coords for m in range(1, 7) for coords in all_streams(3, m)]
    streams += [[rng.randrange(3) + 1 for _ in range(m)] for m in range(7, 11) for _ in range(20)]
    for meas in (fair_measure(2), lp_measure(Fraction(3, 2))):
        for coords in streams:
            assert verify.gsampler_symbolic(meas, coords).ok, (coords, meas.name)


def test_exact_laws_matrix():
    # One draw of the real MatrixSampler at R = 1, every branch, with L1 rows
    # (row r with its share of the updates) and, its coin kept symbolic,
    # with L2 rows (row r's form is G(row vector of r)/m, for every row
    # measure of a static zeta).  Exhaustive over every order of 3 x 3 cells
    # for m <= 4, and 20 seeded orders per m = 5..8 symbolically.
    cellset = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    for m in range(1, 5):
        for cells in itertools.product(cellset, repeat=m):
            assert verify.matrix(list(cells)).ok, cells
            assert verify.matrix_symbolic(list(cells)).ok, cells
    rng = substream(0, "matrix-orders")
    for m in range(5, 9):
        for _ in range(20):
            cells = [cellset[rng.randrange(9)] for _ in range(m)]
            assert verify.matrix_symbolic(cells).ok, cells


def test_exact_laws_sliding_window():
    # One draw of the real CheckpointedSampler at R = 1, every branch, for
    # every stream with m <= 4 and W <= 6; at Fair its coin is kept symbolic,
    # and index i's form must be kappa G(f_i) over the window, with one
    # kappa > 0 for every i.  The real SlidingLpSampler at R = 1 on the same
    # streams, at p = 1, 2 and 3, whose zeta = p max_f^{p-1} of the bracket
    # row is rational, and symbolically at p = 3/2, where it is not.
    l1, hub, fair = lp_measure(1), huber_measure(2), fair_measure(2)
    checked = Counter()
    for m in range(1, 5):
        for coords in all_streams(3, m):
            for W in range(1, 7):
                for meas in (l1, hub):
                    assert verify.checkpointed(meas, coords, W).ok, (coords, W, meas.name)
                assert verify.checkpointed_symbolic(fair, coords, W).ok, (coords, W)
                for p in (1, 2, 3):
                    assert verify.sliding_lp(p, coords, W).ok, (coords, W, p)
                    checked[p] += 1
                assert verify.sliding_lp_symbolic(Fraction(3, 2), coords, W).ok, (coords, W)
                checked[Fraction(3, 2)] += 1
    assert checked == {1: 720, 2: 720, 3: 720, Fraction(3, 2): 720}


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
            assert verify.pair_l2(fv, W).ok, (fv, W)
            checked += 1
    assert checked == 636


def test_exact_laws_multipass():
    # One draw of the real multipass samplers (one chain), every branch.
    for n in (2, 3, 4, 6, 8):
        for fv in freq_vectors(n, 6):
            for gamma in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                assert verify.multipass_l1(fv, n, gamma).ok, (fv, gamma)
    # At p = 2, and symbolically at p = 3/2: index i's form must be
    # kappa G(f_i), with one kappa > 0 for every i.
    for n in (2, 4):
        for fv in freq_vectors(n, 5):
            assert verify.multipass_lp(2, fv, n, Fraction(1, 2)).ok, fv
            assert verify.multipass_lp_symbolic(Fraction(3, 2), fv, n, Fraction(1, 2)).ok, fv


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
    rational one, an integer pair (num, den) (a quotient above 1 raises), or
    a bracket whose lower end at 2^-64 is at most 2^64."""
    try:
        q = acceptance(measure, c, zeta_exact, zeta_bounds)
    except ValueError:
        return False
    return q(PRECISION)[0] <= 1 << PRECISION if callable(q) else q[0] <= q[1]


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
    # support, and Tukey's law is G(f_i)/F_G; both fail at the rule's mass.
    # At n = 9 (cap 3, |S| = 6) S misses a support of 3 with probability
    # 1/84, so the fail path is taken: F0 fails with 1/84, Tukey with
    # 779/2688.
    tukey = tukey_measure(2)
    cases = [
        (None, 7, [1, 1], None),
        (None, 7, [1, 2, 3, 3, 4], None),
        (None, 7, [1, 2, 3, 3, 4, 5], 3),
        (None, 9, [1, 2, 3], None),
        (tukey, 4, [1, 1, 2], None),
        (tukey, 5, [1, 2, 2, 2, 3, 4], None),
        (tukey, 5, [1, 2, 2, 2, 3, 4], 3),
        (tukey, 9, [1, 2, 2, 3], None),
    ]
    for case in cases:
        assert verify.support(*case).ok, case
    assert verify.support(None, 9, [1, 2, 3]).mass_fail == Fraction(1, 84)
    assert verify.support(tukey, 9, [1, 2, 2, 3]).mass_fail == Fraction(779, 2688)


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
    st = F0State(n, [41])
    for c in range(1, n + 1):
        st.update(c)
    fails = sum(st.draw(0, substream(t, "d")).outcome == "fail"
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
        st = F0State(n, [100000 + t])
        for c in support:
            st.update(c)
        if st.draw(0, substream(t, "d2")).outcome == "fail":
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


def _no_collision(fv):
    """Pr[no pair (2k - 1, 2k) of a uniformly random order of the multiset fv
    holds two equal items], counted over all W! orders."""
    items = [i for i in sorted(fv) for _ in range(fv[i])]
    orders = list(itertools.permutations(items))
    clean = sum(all(o[k] != o[k + 1] for k in range(0, len(o) - 1, 2)) for o in orders)
    return Fraction(clean, len(orders))


def test_random_order_fail_rate_pairs():
    # A pair sampler over a window of W items harvests on a collision or on
    # one of its floor(W/2) outright 1/W coins, which one group draws, so
    # Pr[fail] = Pr[no collision] (1 - 1/W)^floor(W/2).  The real
    # PairL2Sampler, enumerated over every order of every window with
    # W <= 5, and of two at W = 6 (all distinct, and f = (3, 2, 1)), fails
    # with exactly that probability.
    windows = [fv for W in range(2, 6) for fv in freq_vectors(W, W) if sum(fv.values()) == W]
    assert len(windows) == 174
    windows += [{i: 1 for i in range(1, 7)}, {1: 3, 2: 2, 3: 1}]
    for fv in windows:
        W = sum(fv.values())
        law = oracle.order_law(lambda: PairL2Sampler(W, W), fv)
        assert law.mass_fail == _no_collision(fv) * (1 - Fraction(1, W)) ** (W // 2), fv
    # On the Zipf window, no pair collides only if the f copies of the
    # heaviest coordinate fall in f distinct pairs, with probability
    # C(W/2, f) 2^f / C(W, f): an exact bound on the failure rate, far below
    # the 1/3 allowance.
    f = int(np.bincount(_ro_window_pool()).max())
    assert f == 2776
    half = RO_W // 2
    bound = (Fraction(math.comb(half, f) * 2 ** f, math.comb(RO_W, f))
             * (1 - Fraction(1, RO_W)) ** half)
    assert bound <= Fraction(34, 100), float(bound)


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

    def laws(check, measure, coords):
        rep = check(measure, coords, n=2)
        return rep.conditional_law, rep.target_law

    l2 = lp_measure(2)
    rejected = sum(got != want for got, want in (laws(verify.gsampler, l2, coords)
                                                 for m in range(1, 7)
                                                 for coords in all_streams(2, m)))
    # Single-coordinate and symmetric streams can coincide; every stream with
    # two distinct frequencies must be rejected.
    assert rejected > 0
    got, want = laws(verify.gsampler, l2, [1, 1, 2])
    # The mutant telescopes to G(f+1) - G(1): (8, 3)/11 instead of (4, 1)/5.
    assert got == {1: Fraction(8, 11), 2: Fraction(3, 11)} != want
    # The symbolic sweep rejects it on every stream, for every measure of a
    # static zeta at once: with the coin kept symbolic, index i's form is
    # (G(f_i + 1) - G(1))/m instead of G(f_i)/m.
    fair = fair_measure(2)
    for coords in all_streams(2, 3):
        got, want = laws(verify.gsampler_symbolic, fair, coords)
        assert got != want, coords
    got, _ = laws(verify.gsampler_symbolic, fair, [1, 1, 2])
    assert got[1] == {3: Fraction(1, 3), 1: Fraction(-1, 3)}
