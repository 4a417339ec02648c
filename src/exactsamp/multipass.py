"""Multi-pass strict-turnstile L_p sampling by universe chunking.

Each pass partitions the current universe interval into ceil(n^gamma) equal
chunks (last one ragged), accumulates exact chunk sums, and samples a chunk
proportionally to its sum; after exactly ceil(1/gamma) passes the interval is
a single coordinate and the chunk-selection probabilities telescope to
f_i / F_1.

For p in (1,2] the same passes drive R parallel frequency-proportional chains
(drawn in chain order on one generator) and, beside them, narrow the universe
to the chunks of mass >= m/ceil(n^{1-1/p}), yielding a deterministic Z with
max f <= Z <= max f + m/ceil(n^{1-1/p}).  Each chain's sample (i, f_i) passes
the usual acceptance ((c+1)^p - c^p) / (p Z^{p-1}) with c a uniform
strictly-after occurrence count: the insertion-only samplers' exact test
(gsampler.accept_increment with the L_p measure) at the one L_p zeta rule
(gsampler.lp_zeta, at Z as an integer pair).  The chains are i.i.d., so the
draw returns the first accepting one (gsampler.accept_and_pick).

Every pass is one scan of the stream (_chunk_sums), shared by all chains and
the Z narrowing: an update finds its cell by bisection (directly when the
pass has one cell, as every pass of the L1 draw does) and its chunk by
arithmetic, so a pass over L distinct cells costs O(m log L + (R + L) q).
The scan raises ValueError on a coordinate outside [1, n] and on a negative
net sum among the chunks it scans.  The second check is best-effort: a pass
sees only the chunks of its live cells, so whether a stream with a negative
frequency is caught depends on the cells the chains enter; a complete check
needs the whole frequency vector.
"""

import math
from bisect import bisect_right
from fractions import Fraction

from .core import SampleResult, exponent, lp_measure, outside, parse_stream
from .exactrand import substream, weighted_index
from .gsampler import DrawState, accept_and_pick, lp_zeta, repetition_result, repetitions_for
from .heavyhitters import mg_budget


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


def passes_for(gamma):
    """ceil(1/gamma) exactly for rational gamma; ValueError unless gamma > 0."""
    g = Fraction(gamma)
    if g <= 0:
        raise ValueError("gamma must be positive, got %s" % g)
    return int(-(-1 // g))


def chunk_count(n, gamma):
    """ceil(n^gamma) chunks per cell (at least 2), raised where float rounding
    falls short so that ceil(1/gamma) passes always end on single coordinates."""
    passes = passes_for(gamma)
    if passes == 1:
        return n
    q = max(2, math.ceil(n ** float(gamma) - 1e-9))
    while q ** passes < n:
        q += 1
    return q


def _step(lo, hi, q):
    """Width of the chunks when [lo, hi] is split into at most q of them."""
    return -(-(hi - lo + 1) // q)


def _chunk(cell, j, q):
    """The j-th chunk of cell when it is split into at most q equal
    intervals (last ragged)."""
    lo, hi = cell
    step = _step(lo, hi, q)
    return lo + j * step, min(lo + (j + 1) * step - 1, hi)


def _chunk_sums(stream, cells, n, q):
    """One pass: the net mass m and, per cell, the sums of its chunks.

    cells are intervals of the chunk hierarchy at one depth, so any two are
    equal or disjoint; the j-th sum of a cell is that of _chunk(cell, j, q).
    Raises ValueError on a coordinate outside [1, n] or a negative sum among
    these chunks (not a strict turnstile stream).
    """
    cells = sorted(cells)
    los = [lo for lo, _ in cells]
    his = [hi for _, hi in cells]
    steps = [_step(lo, hi, q) for lo, hi in cells]
    sums = [[0] * len(range(lo, hi + 1, step)) for (lo, hi), step in zip(cells, steps)]
    m, first, last = 0, los[0], his[-1]
    updates = stream.updates()
    if len(cells) == 1:
        # One cell: it is [first, last], so its chunk is found by arithmetic.
        row, step = sums[0], steps[0]
        for u in updates:
            c, d = u.coord, u.delta
            m += d
            if first <= c <= last:
                row[(c - first) // step] += d
            elif not 1 <= c <= n:
                raise outside(c, n)
    else:
        for u in updates:
            c, d = u.coord, u.delta
            m += d
            if first <= c <= last:
                j = bisect_right(los, c) - 1
                if c <= his[j]:
                    sums[j][(c - los[j]) // steps[j]] += d
            elif not 1 <= c <= n:
                raise outside(c, n)
    if any(s < 0 for row in sums for s in row):
        raise ValueError("negative net frequency: not a strict turnstile stream")
    return m, dict(zip(cells, sums))


def _narrow(stream, gamma, n, chains=0, rng=None, k=None):
    """ceil(1/gamma) passes of chunk narrowing, one _chunk_sums scan each.

    Each of the chains picks a chunk of its cell with probability
    proportional to the chunk's sum, the chains in order on the one rng.
    With k given, the passes also follow the heavy chunks (mass >= m/k)
    down to single coordinates.  Returns the chains' (coord, f) (empty when
    m = 0), m, and Z = max(m/k, heaviest single coordinate reached) when k
    is given, else None.
    """
    q = chunk_count(n, gamma)
    cells = [(1, n)] * chains
    f = [None] * chains
    heavy = [(1, n)] if k else []
    m, thr, best = None, Fraction(0), 0
    for _ in range(passes_for(gamma)):
        live = set(cells) | set(heavy)
        if not live:
            break
        mass, sums = _chunk_sums(stream, live, n, q)
        if m is None:
            m = mass
            if m == 0:
                break
            if k:
                thr = Fraction(m, k)
        for i in range(chains):
            j = weighted_index(sums[cells[i]], rng)
            f[i] = sums[cells[i]][j]
            cells[i] = _chunk(cells[i], j, q)
        heavy_sums = [(_chunk(cell, j, q), s) for cell in heavy
                      for j, s in enumerate(sums[cell]) if s >= thr]
        heavy = [iv for iv, _ in heavy_sums]
        best = max([best] + [s for (a, b), s in heavy_sums if a == b])
    assert not m or all(lo == hi for lo, hi in cells)
    ends = [(lo, fi) for (lo, _), fi in zip(cells, f)] if m else []
    return ends, m, (max(Fraction(best), thr) if k else None)


def multipass_l1_draw(stream, gamma, n, seed=0):
    """(SampleResult, frequency). Exactly ceil(1/gamma) passes."""
    chains, m, _ = _narrow(stream, gamma, n, 1, substream(seed, "l1"))
    if m == 0:
        return SampleResult.bottom(), 0
    coord, f = chains[0]
    return SampleResult.of(coord, frequency=f), f


# No draw calls this: verify.multipass_lp derives its fail-mass zeta from it,
# and perfbench's layer tracer wraps it by name.
def narrow_z(stream, gamma, p, n):
    """Deterministic Z with max f <= Z <= max f + m/ceil(n^{1-1/p}),
    in ceil(1/gamma) passes of heavy-chunk narrowing."""
    return _narrow(stream, gamma, n, k=mg_budget(p, n))[2]


def multipass_lp_draw(stream, gamma, p, n, delta=0.1, seed=0, repetitions=None):
    """Truly perfect L_p sample, p in (1,2], over a strict turnstile stream,
    in ceil(1/gamma) passes."""
    p = exponent(p)
    if not (1 < p <= 2):
        raise ValueError("multipass L_p sampling needs p in (1, 2]")
    if repetitions is None:
        repetitions = repetitions_for(n ** (1.0 - 1.0 / float(p)), delta)
    chains, m, Z = _narrow(stream, gamma, n, repetitions, substream(seed, "chains"),
                           mg_budget(p, n))
    if m == 0:
        return SampleResult.bottom()
    draws = DrawState(substream(seed, "accept"), repetitions, lp_measure(p))
    rng = draws.rng

    def state(i):
        f = chains[i][1]
        return f - (rng.randrange(f) + 1)  # occurrences after a uniform one of the f

    accept = draws.accept(lp_zeta((Z.numerator, Z.denominator), p))
    return repetition_result(accept_and_pick(len(chains), state, accept),
                             lambda i: chains[i][0])
