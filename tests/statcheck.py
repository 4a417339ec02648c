"""Statistical helpers for the tests that draw from a sampler many times.

np_substream derives a seeded numpy Generator from (seed, ids) through the
package's own substream digest, so a simulation's numbers depend on its
seed and ids alone.  gof_test reports a chi-square goodness of fit and the
total-variation distance of a histogram from a target law.

The package itself imports neither numpy nor scipy; both come with the
`test` extra.
"""

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from exactsamp.exactrand import _digest


def np_substream(seed, *ids):
    """A numpy Generator whose state depends only on (seed, ids)."""
    key = int.from_bytes(_digest(seed, ids)[:8], "big")
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class GofReport:
    n_samples: int
    statistic: float
    dof: int
    pvalue: float
    tv: float
    pooled_cells: int


def gof_test(histogram, target, min_expected=50):
    """Chi-square goodness of fit plus total-variation distance.

    histogram: coord -> observed count; target: coord -> probability
    (Fraction or float).  Cells with expected count below min_expected are
    pooled into one.
    """
    if not histogram or sum(histogram.values()) == 0:
        raise ValueError("empty histogram")
    n = sum(histogram.values())
    keys = set(histogram) | set(target)
    obs, exp = [], []
    tv = 0.0
    for k in sorted(keys):
        p = float(target.get(k, 0.0))
        o = histogram.get(k, 0)
        tv += abs(o / n - p)
        if p == 0.0:
            if o:
                return GofReport(n, float("inf"), 0, 0.0, tv / 2, 0)
            continue
        obs.append(o)
        exp.append(p * n)
    # Pool small expected cells.
    big_o, big_e, pool_o, pool_e = [], [], 0.0, 0.0
    for o, e in sorted(zip(obs, exp), key=lambda t: t[1]):
        if e < min_expected:
            pool_o += o
            pool_e += e
        else:
            big_o.append(o)
            big_e.append(e)
    if pool_e > 0:
        big_o.append(pool_o)
        big_e.append(pool_e)
    # Normalize tiny float drift in expected totals.
    scale = n / sum(big_e)
    big_e = [e * scale for e in big_e]
    dof = len(big_o) - 1
    if dof <= 0:
        return GofReport(n, 0.0, 0, 1.0, tv / 2, len(big_o))
    stat = sum((o - e) ** 2 / e for o, e in zip(big_o, big_e))
    return GofReport(n, stat, dof, float(chi2.sf(stat, dof)), tv / 2, len(big_o))
