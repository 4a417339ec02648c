"""Vectorized Monte-Carlo twins of the single-repetition sampling step.

Exact-rational enumeration pins the laws down with zero tolerance on tiny
streams; mc_gsampler replicates the insertion-only per-repetition randomness
(reservoir position, counter, acceptance test) in bulk numpy, so success
rates and laws can be checked statistically at 10^5..10^6 trials where the
scalar samplers would be far too slow.  mc_min_stability draws the
exponential minima behind smallp.
"""

import numpy as np

from .exactrand import np_substream


def _strict_after(coords):
    seen = {}
    out = np.empty(len(coords), dtype=np.int64)
    for t in range(len(coords) - 1, -1, -1):
        c = coords[t]
        out[t] = seen.get(c, 0)
        seen[c] = out[t] + 1
    return out


def mc_gsampler(coords, measure, zeta, trials, seed=0):
    """Histogram of one-repetition outcomes: (coord -> count, failures)."""
    coords = list(coords)
    L = len(coords)
    cc = _strict_after(coords)
    tops = int(cc.max()) + 2
    gtab = np.array([measure.g_float(x) for x in range(tops)])
    acc = (gtab[cc + 1] - gtab[cc]) / float(zeta)
    rng = np_substream(seed, "mc-g")
    pos = rng.integers(0, L, size=trials)
    ok = rng.random(trials) < acc[pos]
    hist = {}
    ids = {c: i for i, c in enumerate(sorted(set(coords)))}
    coord_ids = np.array([ids[c] for c in coords])
    counts = np.bincount(coord_ids[pos[ok]], minlength=len(ids))
    for c, i in ids.items():
        if counts[i]:
            hist[c] = int(counts[i])
    return hist, trials - int(ok.sum())


def mc_min_stability(weights, trials, seed=0):
    """Histogram of argmin_i Exp(1)/w_i; the law is w_i / sum w."""
    w = np.asarray(weights, dtype=float)
    rng = np_substream(seed, "mc-min")
    e = rng.exponential(1.0, size=(trials, len(w))) / w
    picks = np.argmin(e, axis=1)
    counts = np.bincount(picks, minlength=len(w))
    return {i: int(c) for i, c in enumerate(counts) if c}
