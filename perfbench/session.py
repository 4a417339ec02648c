"""One benchmark session in a fresh process: import, construct, replay, check.

The stream is generated before `exactsamp` is imported.  Only calls into
the program are timed: the import, each sampler's constructor, each
`process(batch)` and each `draw()`.  Reference frequencies, output checks
and state-size readings happen between timed calls, and so do runs of the
host-speed reference kernel (hostspeed.py).  The result is printed
as one JSON line.

    python3 perfbench/session.py --workload insert-zipf --seed 1 [--trace 1]
"""

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter

import hostspeed
import workloads
from loadgen import derived_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

now = time.perf_counter_ns


def check(res, ref):
    """Why `res` is a failed operation against reference frequencies `ref`,
    or None.  FAIL is a legal outcome; BOTTOM is legal only on empty input."""
    outcome = getattr(res, "outcome", None)
    if outcome == "index":
        f = ref.get(res.index, 0)
        if f <= 0:
            return "index %r outside the support" % (res.index,)
        if res.frequency is not None and res.frequency != f:
            return "frequency %r of index %r, reference %d" % (res.frequency, res.index, f)
        return None
    if outcome == "bottom":
        return "bottom on a nonempty stream" if ref else None
    if outcome == "fail":
        return None
    return "unknown outcome %r" % (outcome,)


def _banks(s):
    if hasattr(s, "bank"):
        return [s.bank]
    if hasattr(s, "banks"):
        return [b for _, b in s.banks]
    hist = getattr(s, "hist", None)
    if hist is not None:
        return [r.payload for r in hist.rows if getattr(r, "payload", None) is not None]
    return []


def state_sizes(samplers):
    """Tracked-state sizes read from the samplers' attributes."""
    sizes = Counter()
    for s in samplers:
        sizes["reservoir.counters"] += sum(len(b.counters) for b in _banks(s))
        mg = getattr(s, "mg", None)
        if mg is not None:
            sizes["heavyhitters.entries"] += len(mg.counts)
        hist = getattr(s, "hist", None)
        if hist is not None:
            sizes["smoothhist.rows"] += len(hist.rows)
        harvest = getattr(s, "S", None)
        if isinstance(harvest, dict):
            sizes["randomorder.harvest"] += sum(harvest.values())
        elif isinstance(harvest, list):
            sizes["randomorder.harvest"] += len(harvest)
        for st in getattr(s, "states", ()):
            sizes["f0sampler.T"] += len(st.T)
    return sizes


class Run:
    """Per-sampler measurements of one session."""

    def __init__(self, spec):
        self.spec = spec
        self.sampler = None
        self.R = None
        self.construct_ns = 0
        self.ingest_ns = []  # one per ingest call
        self.draw_ns = []
        self.outcomes = Counter()
        self.broken = False


def replay(es, wl, updates, seed, tracer=None):
    """Run the workload's session; returns the raw measurements."""
    runs = [Run(spec) for spec in wl.specs]
    failures = []
    attempted = 0
    record = []  # (tag, chunk, outcome, index) of every draw
    peaks = Counter()
    passes = 0
    ref_ns = []  # host speed: a reference kernel run after every timed call
    coords = [u.coord for u in updates]
    K = wl.chunks

    def fail(run, why):
        failures.append("%s: %s" % (run.spec.tag, why))
        run.broken = True

    for run in runs:
        if run.spec.build is None:
            run.R = run.spec.R(None)
            continue
        attempted += 1
        s = derived_seed(seed, run.spec.tag)
        t0 = now()
        if tracer:
            tracer.begin_top("construct:" + run.spec.tag, -1)
        try:
            run.sampler = run.spec.build(es, s)
        except Exception as exc:  # a call that raises is a failed operation
            run.sampler = None
            fail(run, "constructor raised %r" % (exc,))
        finally:
            if tracer:
                tracer.finish_top()
            run.construct_ns = now() - t0
        ref_ns.append(hostspeed.sample_ns())
        if run.sampler is not None:
            run.R = run.spec.R(run.sampler) if run.spec.R else run.sampler.R

    for k in range(K):
        for run in runs:
            m = run.spec.m
            if run.broken or run.spec.one_shot:
                continue
            lo, hi = k * m // K, (k + 1) * m // K
            for b in range(lo, hi, workloads.BATCH):
                batch = updates[b:min(b + workloads.BATCH, hi)]
                attempted += 1
                t0 = now()
                if tracer:
                    tracer.begin_top("ingest:" + run.spec.tag, k)
                try:
                    run.sampler.process(batch)
                except Exception as exc:
                    fail(run, "process raised %r" % (exc,))
                finally:
                    if tracer:
                        tracer.finish_top()
                    run.ingest_ns.append(now() - t0)
                ref_ns.append(hostspeed.sample_ns())
                if run.broken:
                    break
        refs = {}
        for run in runs:
            spec = run.spec
            if run.broken or (spec.one_shot and k < K - 1):
                continue
            hi = (k + 1) * spec.m // K
            lo = max(0, hi - spec.window) if spec.window else 0
            if (lo, hi) not in refs:
                refs[lo, hi] = Counter(coords[lo:hi])
            ref = refs[lo, hi]
            attempted += 1
            res = None
            if spec.one_shot:
                prefix = updates[:spec.m]
                s = derived_seed(seed, spec.tag)
            t0 = now()
            if tracer:
                tracer.begin_top("draw:" + spec.tag, k)
            try:
                if spec.one_shot:
                    res, passes = spec.one_shot(es, prefix, s)
                else:
                    res = run.sampler.draw()
            except Exception as exc:
                fail(run, "draw raised %r" % (exc,))
            finally:
                if tracer:
                    tracer.finish_top()
                dt = now() - t0
            ref_ns.append(hostspeed.sample_ns())
            if run.broken:
                continue
            if spec.one_shot:
                run.ingest_ns.append(dt)  # time to its result: the whole one-shot call
            run.draw_ns.append(dt)
            why = check(res, ref)
            if why:
                failures.append("%s chunk %d: %s" % (spec.tag, k, why))
            outcome = getattr(res, "outcome", None)
            run.outcomes[outcome] += 1
            record.append((spec.tag, k, outcome, getattr(res, "index", None)))
        sizes = state_sizes(r.sampler for r in runs if r.sampler is not None)
        for key, v in sizes.items():
            peaks[key] = max(peaks[key], v)

    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "record": record,
        "peaks": dict(peaks),
        "passes": passes,
        "ref_ns": ref_ns,
        "samplers": {
            r.spec.tag: {
                "R": r.R,
                "m": r.spec.m,
                "one_shot": bool(r.spec.one_shot),
                "construct_ns": r.construct_ns,
                "ingest_ns": r.ingest_ns,
                "draw_ns": r.draw_ns,
                "outcomes": dict(r.outcomes),
            }
            for r in runs
        },
    }


def import_program():
    """Import exactsamp from this checkout's src/; (module, import ns)."""
    if not os.path.isfile(os.path.join(SRC, "exactsamp", "__init__.py")):
        raise SystemExit("perfbench: no exactsamp sources under %s" % SRC)
    sys.path.insert(0, SRC)
    t0 = now()
    import exactsamp
    dt = now() - t0
    if not os.path.abspath(exactsamp.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported exactsamp from %s" % exactsamp.__file__)
    return exactsamp, dt


def run_session(workload, seed, scale="full", traced=False, spans_path=None):
    wl = workloads.make(workload, seed, scale)
    es, import_ns = import_program()
    tracer = None
    if traced:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(es)
    updates = [es.Update(c, time=t, col=col) for t, (c, col) in enumerate(wl.entries, 1)]
    out = replay(es, wl, updates, seed, tracer)
    out["import_ns"] = import_ns
    out["traced"] = traced
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        out["trace"] = tracer.summary()
        if spans_path:
            tracer.write(spans_path)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=["full", "tiny"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--spans", default=None, help="where a traced session writes its spans")
    args = ap.parse_args(argv)
    out = run_session(args.workload, args.seed, args.scale, bool(args.trace), args.spans)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
