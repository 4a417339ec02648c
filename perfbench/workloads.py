"""The benchmark's workloads: stream shape, sampler roster and draw schedule.

Each workload is one session: a single caller constructs the roster, feeds
the stream in `chunks` equal chunks and calls draw() on every sampler after
each chunk.  It hands a chunk to process() in batches of at most BATCH
updates, each timed on its own: the host-speed kernel runs after every timed
call (hostspeed.py), and short calls let it sample the host densely during
ingest too.  A sampler may ingest only a prefix of the stream (`Spec.m`),
spread over the same chunks, when it is orders of magnitude slower than the
rest of the roster.

Parameters are given at two scales: "full" is what the benchmark measures,
"tiny" is for the smoke test.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from loadgen import matrix_entries, rng_for, shuffled_multiset, uniform

DELTA = 0.1
TAU = 2
BATCH = 250


@dataclass
class Spec:
    tag: str  # "<module>.<sampler>", the prefix of its per-sampler rows
    build: Optional[Callable]  # (exactsamp, seed) -> sampler with process()/draw()
    m: int  # length of the stream prefix this sampler ingests
    window: Optional[int] = None  # reference is the last `window` updates
    # One-shot samplers (multipass) take the whole prefix at the last
    # checkpoint: (exactsamp, updates, seed) -> (SampleResult, stream passes).
    one_shot: Optional[Callable] = None
    R: Optional[Callable] = None  # sampler -> repetitions, when not `.R`


@dataclass
class Workload:
    name: str
    chunks: int
    entries: list  # (coord, col) pairs; col is None outside matrix streams
    specs: list


SCALES = {
    "insert-zipf": {
        "full": dict(n=1000, d=8, m=20000, alpha=1.1, chunks=8, D=32),
        "tiny": dict(n=50, d=4, m=600, alpha=1.1, chunks=3, D=16),
    },
    "draw-wide": {
        "full": dict(n=100000, d=8, m=5000, chunks=60, D=16),
        "tiny": dict(n=2000, d=4, m=300, chunks=6, D=16),
    },
    "window-shuffled": {
        "full": dict(n=100, m=30000, W_long=10000, W_short=50, m_short=200, chunks=30),
        "tiny": dict(n=20, m=600, W_long=200, W_short=10, m_short=40, chunks=4),
    },
}

# One line each, as recorded in BENCHMARK.json; full parameters are in SCALES.
WHY = {
    "insert-zipf": "ingest-heavy: 2e4 Zipf(1.1) entries of a 1000x8 matrix, 8 draws per sampler; "
                   "stresses bank updates, Misra-Gries hits, the O(R) matrix update and "
                   "multipass passes (over the first 5e3)",
    "draw-wide": "read-heavy: 5000 uniform updates over 1e5 coordinates, a draw after each of "
                 "60 chunks; stresses the exact Bernoulli accept loops, z_bound and evicting "
                 "Misra-Gries",
    "window-shuffled": "windowed: shuffled multiset, 3e4 updates over 100 values, W=1e4, 30 "
                       "draws per sampler (sliding L2: W=50 on 200 updates); stresses "
                       "smooth-histogram rows, the F0 ring, harvests",
}


def insert_zipf(seed, p):
    n, m, d = p["n"], p["m"], p["d"]
    entries = matrix_entries(rng_for(seed, "insert-zipf", "entries"), n, d, m, p["alpha"])
    D = p["D"]

    def multipass(es, updates, s):
        stream = es.ReplayableStream(updates)
        res = es.multipass_lp_draw(stream, Fraction(1, 2), 2, n, DELTA, s)
        return res, stream.passes

    specs = [
        Spec("gsampler.lp2", lambda es, s: es.lp_sampler(2, n, m, DELTA, s), m),
        Spec("gsampler.lp_half", lambda es, s: es.lp_sampler(Fraction(1, 2), n, m, DELTA, s), m),
        Spec("gsampler.huber", lambda es, s: es.GSampler(es.huber_measure(TAU), n, m, DELTA, s), m),
        Spec("matrixsampler.l2", lambda es, s: es.MatrixSampler(es.L2RowMeasure(), n, d, m, DELTA, s), m),
        Spec("f0sampler.f0", lambda es, s: es.F0Sampler(n, DELTA, s), m),
        Spec("smallp.dup", lambda es, s: es.DuplicatedExpState(0.5, D, s), m, R=lambda x: x.D),
        # multipass_lp_draw's default repetitions: ceil(4 n^(1-1/p) ln(1/delta)), p = 2.
        # It replays the first quarter of the stream, so that its one call, the
        # one timed call that cannot be split, stays short (~0.3 s) beside the
        # host-speed samples taken between calls.
        Spec("multipass.lp2", None, m // 4, one_shot=multipass,
             R=lambda _: math.ceil(4 * n ** 0.5 * math.log(1 / DELTA))),
    ]
    return entries, specs


def draw_wide(seed, p):
    n, m, d = p["n"], p["m"], p["d"]
    rng = rng_for(seed, "draw-wide", "entries")
    entries = list(zip(uniform(rng, n, m), uniform(rng, d, m)))
    D = p["D"]
    specs = [
        Spec("gsampler.lp2", lambda es, s: es.lp_sampler(2, n, m, DELTA, s), m),
        Spec("gsampler.lp_half", lambda es, s: es.lp_sampler(Fraction(1, 2), n, m, DELTA, s), m),
        Spec("gsampler.huber", lambda es, s: es.GSampler(es.huber_measure(TAU), n, m, DELTA, s), m),
        Spec("gsampler.fair", lambda es, s: es.GSampler(es.fair_measure(TAU), n, m, DELTA, s), m),
        Spec("matrixsampler.l2", lambda es, s: es.MatrixSampler(es.L2RowMeasure(), n, d, m, DELTA, s), m),
        Spec("f0sampler.f0", lambda es, s: es.F0Sampler(n, DELTA, s), m),
        Spec("smallp.dup", lambda es, s: es.DuplicatedExpState(0.5, D, s), m, R=lambda x: x.D),
    ]
    return entries, specs


def window_shuffled(seed, p):
    n, m = p["n"], p["m"]
    WL, WS = p["W_long"], p["W_short"]
    coords = shuffled_multiset(rng_for(seed, "window-shuffled", "entries"), n, m)
    entries = [(c, None) for c in coords]
    specs = [
        Spec("sliding.checkpointed",
             lambda es, s: es.CheckpointedSampler(es.l1l2_measure(), WL, n, DELTA, s), m, WL),
        Spec("sliding.lp2", lambda es, s: es.SlidingLpSampler(2, WS, n, DELTA, s),
             p["m_short"], WS),
        Spec("f0sampler.f0", lambda es, s: es.F0Sampler(n, DELTA, s, window=WL), m, WL),
        Spec("f0sampler.tukey",
             lambda es, s: es.TukeySampler(es.tukey_measure(TAU), n, DELTA, s, window=WL), m, WL),
        Spec("randomorder.pair", lambda es, s: es.PairL2Sampler(n, WL, s), m, WL, R=lambda _: 1),
        Spec("randomorder.block3", lambda es, s: es.BlockLpSampler(n, WL, 3, s), m, WL,
             R=lambda _: 1),
    ]
    return entries, specs


BUILDERS = {
    "insert-zipf": insert_zipf,
    "draw-wide": draw_wide,
    "window-shuffled": window_shuffled,
}

NAMES = list(BUILDERS)


def make(name, seed, scale="full"):
    """The workload's stream and roster for this seed; nothing is timed here."""
    params = SCALES[name][scale]
    entries, specs = BUILDERS[name](seed, params)
    return Workload(name, params["chunks"], entries, specs)
