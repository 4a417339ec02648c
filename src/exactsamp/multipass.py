"""Multi-pass strict-turnstile L_p sampling by universe chunking.

Each pass partitions the current universe interval into ceil(n^gamma) equal
chunks (last one ragged), accumulates exact chunk sums, and samples a chunk
proportionally to its sum; after exactly ceil(1/gamma) passes the interval is
a single coordinate and the chunk-selection probabilities telescope to
f_i / F_1.

For p in (1,2] the same machinery drives R parallel frequency-proportional
chains, a further ceil(1/gamma) passes narrow the universe to the chunks of
mass >= m/ceil(n^{1-1/p}) yielding a deterministic Z with
max f <= Z <= max f + m/ceil(n^{1-1/p}), and each chain's sample (i, f_i)
passes the usual acceptance ((c+1)^p - c^p) / (2 Z^{p-1}) with c a uniform
strictly-after occurrence count: the insertion-only samplers' exact test
(gsampler.accept_increment with the L_p measure and gsampler.lp_zeta).  The
chains are i.i.d., so the draw returns the first accepting one
(gsampler.first_accepted).
"""

import math
from fractions import Fraction

from .core import SampleResult, lp_measure, parse_stream
from .exactrand import substream
from .gsampler import accept_increment, first_accepted, lp_zeta


class ReplayableStream:
    """Re-iterable update source (in-memory list or stream file)."""

    def __init__(self, source):
        self._path = None
        self._updates = None
        if isinstance(source, str):
            self._path = source
        else:
            self._updates = list(source)
        self.passes = 0

    def updates(self):
        self.passes += 1
        if self._path is not None:
            _, ups = parse_stream(self._path)
            return ups
        return self._updates


def chunk_count(n, gamma):
    return max(2, math.ceil(n ** float(gamma) - 1e-9)) if float(gamma) < 1 else n


def _chunks(lo, hi, q):
    """Split [lo, hi] into at most q equal intervals (last ragged)."""
    size = hi - lo + 1
    step = -(-size // q)
    out = []
    a = lo
    while a <= hi:
        b = min(a + step - 1, hi)
        out.append((a, b))
        a = b + 1
    return out


def passes_for(gamma):
    g = Fraction(gamma)
    return int(-(-1 // g))  # ceil(1/gamma) exactly for rational gamma


def multipass_l1_draw(stream, gamma, n, seed=0, rng=None):
    """(SampleResult, frequency). Exactly ceil(1/gamma) passes."""
    rng = rng or substream(seed, "l1")
    K = passes_for(gamma)
    q = chunk_count(n, gamma)
    lo, hi = 1, n
    mass = None
    for _ in range(K):
        parts = _chunks(lo, hi, q)
        sums = [0] * len(parts)
        for u in stream.updates():
            c = u.coord
            if lo <= c <= hi:
                # chunk index by interval arithmetic
                idx = (c - lo) // (parts[0][1] - parts[0][0] + 1)
                sums[idx] += u.delta
        total = sum(sums)
        if mass is None:
            mass = total
        if total == 0:
            return SampleResult.bottom(), 0
        pick = rng.randrange(total)
        for (a, b), s in zip(parts, sums):
            if pick < s:
                lo, hi = a, b
                break
            pick -= s
        last_sum = s
    assert lo == hi
    return SampleResult.of(lo, frequency=last_sum), last_sum


def _parallel_l1_chains(stream, gamma, n, R, seed):
    """R frequency-proportional samples sharing ceil(1/gamma) passes.
    Returns list of (coord, f) or None per chain, plus total mass m."""
    K = passes_for(gamma)
    q = chunk_count(n, gamma)
    rngs = [substream(seed, "chain", i) for i in range(R)]
    bounds = [(1, n)] * R
    mass = None
    results = [None] * R
    for _ in range(K):
        parts_per = [_chunks(lo, hi, q) if lo <= hi else [] for lo, hi in bounds]
        sums_per = [[0] * len(parts) for parts in parts_per]
        steps = [parts[0][1] - parts[0][0] + 1 if parts else 1 for parts in parts_per]
        total_mass = 0
        for u in stream.updates():
            c, d = u.coord, u.delta
            total_mass += d
            for i in range(R):
                lo, hi = bounds[i]
                if lo <= c <= hi:
                    sums_per[i][(c - lo) // steps[i]] += d
        if mass is None:
            mass = total_mass
        for i in range(R):
            total = sum(sums_per[i])
            if total == 0:
                results[i] = None
                bounds[i] = (0, -1)  # dead chain
                continue
            pick = rngs[i].randrange(total)
            for (a, b), s in zip(parts_per[i], sums_per[i]):
                if pick < s:
                    bounds[i] = (a, b)
                    results[i] = (a, s)
                    break
                pick -= s
    out = []
    for i in range(R):
        if results[i] is None:
            out.append(None)
        else:
            a, s = results[i]
            assert bounds[i][0] == bounds[i][1]
            out.append((bounds[i][0], s))
    return out, (mass or 0)


def narrow_z(stream, gamma, p, n):
    """Deterministic Z with max f <= Z <= max f + m/ceil(n^{1-1/p}),
    in ceil(1/gamma) passes of heavy-chunk narrowing."""
    K = passes_for(gamma)
    q = chunk_count(n, gamma)
    candidates = [(1, n)]
    thr = None
    best = 0
    for _ in range(K):
        parts = []
        for lo, hi in candidates:
            parts.extend(_chunks(lo, hi, q))
        sums = {iv: 0 for iv in parts}
        total = 0
        for u in stream.updates():
            c, d = u.coord, u.delta
            total += d
            for iv in parts:
                if iv[0] <= c <= iv[1]:
                    sums[iv] += d
                    break
        if thr is None:
            k = max(1, math.ceil(n ** (1.0 - 1.0 / float(p)) - 1e-9))
            thr = Fraction(total, k) if total else Fraction(0)
        if thr == 0:
            return Fraction(0)
        candidates = [iv for iv in parts if sums[iv] >= thr]
        for iv in candidates:
            if iv[0] == iv[1]:
                best = max(best, sums[iv])
        if not candidates:
            break
    return max(Fraction(best), thr)


def multipass_lp_draw(stream, gamma, p, n, delta=0.1, seed=0, repetitions=None):
    """Truly perfect L_p sample, p in (1,2], over a strict turnstile stream."""
    p = Fraction(p)
    if not (1 < p <= 2):
        raise ValueError("multipass L_p sampling needs p in (1, 2]")
    if repetitions is None:
        pf = float(p)
        repetitions = max(1, math.ceil(
            4 * n ** (1.0 - 1.0 / pf) * math.log(1.0 / delta)))
    chains, m = _parallel_l1_chains(stream, gamma, n, repetitions, seed)
    if m == 0:
        return SampleResult.bottom()
    zeta_exact, zeta_bounds = lp_zeta(narrow_z(stream, gamma, p, n), p)
    measure = lp_measure(p)
    rng = substream(seed, "accept")

    def accept(f):
        c = f - (rng.randrange(f) + 1)  # occurrences after a uniform one of the f
        return accept_increment(measure, c, zeta_exact, zeta_bounds, rng)

    live = ((SampleResult.of(chain[0], repetition=idx), chain[1])
            for idx, chain in enumerate(chains) if chain is not None)
    return first_accepted(live, accept) or SampleResult.fail()
