"""Streaming samplers whose output law is exactly G(f_i)/F_G.

The package provides reservoir-based samplers for a family of concave
measure functions G (L_p moments and M-estimators), a branch enumerator that
runs the shipped samplers with every random primitive forked at its exact
law, so their laws are checked with zero tolerance on tiny inputs.

Importing the package loads the samplers alone.  The enumerator's names
(ExactDistribution, enumerate_law, sampler_law, target_distribution) load
exactsamp.oracle on first use.  The package imports neither numpy nor scipy;
the tests' statistical helpers live under tests/.
"""

from .core import (
    FairMeasure,
    HuberMeasure,
    L1L2Measure,
    LpMeasure,
    MeasureFunction,
    SampleResult,
    StreamConfig,
    StreamError,
    TukeyMeasure,
    Update,
    builtin_measures,
    fair_measure,
    frequencies,
    huber_measure,
    l1l2_measure,
    lp_measure,
    parse_stream,
    tukey_measure,
    validate_stream,
    write_stream,
)
from .f0sampler import F0Sampler, TukeySampler
from .gsampler import GSampler, lp_sampler, repetitions_for
from .matrixsampler import L1RowMeasure, L2RowMeasure, MatrixSampler
from .multipass import ReplayableStream, multipass_l1_draw, multipass_lp_draw
from .randomorder import BlockLpSampler, PairL2Sampler
from .sliding import CheckpointedSampler, SlidingLpSampler
from .smallp import DuplicatedExpState

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset(
    ["ExactDistribution", "enumerate_law", "sampler_law", "target_distribution"])


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "BlockLpSampler",
    "CheckpointedSampler",
    "DuplicatedExpState",
    "ExactDistribution",
    "F0Sampler",
    "FairMeasure",
    "GSampler",
    "HuberMeasure",
    "L1L2Measure",
    "L1RowMeasure",
    "L2RowMeasure",
    "LpMeasure",
    "MatrixSampler",
    "MeasureFunction",
    "PairL2Sampler",
    "ReplayableStream",
    "SampleResult",
    "SlidingLpSampler",
    "StreamConfig",
    "StreamError",
    "TukeyMeasure",
    "TukeySampler",
    "Update",
    "builtin_measures",
    "enumerate_law",
    "fair_measure",
    "frequencies",
    "huber_measure",
    "l1l2_measure",
    "lp_measure",
    "lp_sampler",
    "multipass_l1_draw",
    "multipass_lp_draw",
    "parse_stream",
    "repetitions_for",
    "sampler_law",
    "target_distribution",
    "tukey_measure",
    "validate_stream",
    "write_stream",
]
