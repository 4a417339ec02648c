"""Metric names, units and bounds; BENCHMARK.json lists the same ones.

End-to-end metrics are what a caller of exactsamp sees in one session.
Per-layer metrics attribute them: per-sampler rows come from untraced
sessions, inner-layer rows from traced ones.  A workload reports 0 for the
rows of samplers and layers it does not run.
"""

# name, unit, better, bound (share of the parent's median it may worsen by).
# Timings get the widest bound allowed: on a 2-vCPU shared host the speed of
# a core changes by half or more for minutes at a time, and scaling by the
# reference kernel of hostspeed.py cancels most but not all of that.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("session_s", "s", "lower", 0.25),
    ("ingest_updates_per_s", "updates/s", "higher", 0.25),
    ("draw_ms_p50", "ms", "lower", 0.25),
    ("draw_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

TAGS = [
    "gsampler.lp2", "gsampler.lp_half", "gsampler.huber", "gsampler.fair",
    "matrixsampler.l2", "f0sampler.f0", "f0sampler.tukey",
    "sliding.checkpointed", "sliding.lp2", "randomorder.pair", "randomorder.block3",
    "multipass.lp2", "smallp.dup",
]

TAG_STATS = [
    ("R", "count"),
    ("ingest_ns_per_update", "ns"),
    ("draw_ms_p50", "ms"),
    ("draw_fail_rate", "ratio"),
]

# Inner-layer rows from the traced sessions: (name, unit).
LAYERS = [
    ("reservoir.SamplerBank.update.calls", "count"),
    ("reservoir.SamplerBank.update.ns_per_call", "ns"),
    ("reservoir.SamplerBank.__init__.calls", "count"),
    ("reservoir.SamplerBank.__init__.s", "s"),
    ("exactrand.substream.calls", "count"),
    ("exactrand.substream.s", "s"),
    ("reservoir.counters_peak", "count"),
    ("exactrand.bernoulli_fraction.calls", "count"),
    ("exactrand.bernoulli_fraction.ns_per_call", "ns"),
    ("exactrand.bernoulli_fraction.bits_per_call", "bits"),
    ("exactrand.bernoulli_bounds.calls", "count"),
    ("exactrand.bernoulli_bounds.ns_per_call", "ns"),
    ("exactrand.bernoulli_bounds.bits_per_call", "bits"),
    ("exactrand.bernoulli_bounds.refines_per_call", "count"),
    ("gsampler.accept_increment.calls_per_draw", "count"),
    ("gsampler.accept_increment.accept_ratio", "ratio"),
    ("gsampler.accept_increment.ns_per_call", "ns"),
    ("heavyhitters.MGSummary.update.calls", "count"),
    ("heavyhitters.MGSummary.update.ns_per_call", "ns"),
    ("heavyhitters.z_bound.ns_per_call", "ns"),
    ("heavyhitters.entries_peak", "count"),
    ("smoothhist.SmoothHistogram.update.calls", "count"),
    ("smoothhist.SmoothHistogram.update.self_ns_per_call", "ns"),
    ("smoothhist.rows_peak", "count"),
    ("f0sampler.F0State.update.ns_per_call", "ns"),
    ("f0sampler.F0State.draw.ns_per_call", "ns"),
    ("f0sampler.T_peak", "count"),
    ("randomorder.harvest_peak", "count"),
    ("multipass.ReplayableStream.passes", "count"),
    ("multipass.narrow_z.s", "s"),
    ("draw_fail_rate", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

PER_LAYER = [("%s.%s" % (tag, stat), unit) for tag in TAGS for stat, unit in TAG_STATS] + LAYERS

# Higher is better for these per-layer rows; lower for every other timing.
HIGHER = {"gsampler.accept_increment.accept_ratio"}


def benchmark_entries():
    """The end_to_end and per_layer lists of BENCHMARK.json."""
    e2e = [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END]
    layers = [{"name": n, "unit": u, "better": "higher" if n in HIGHER else "lower"}
              for n, u in PER_LAYER]
    return e2e, layers
