"""exactsamp session benchmark.

    python3 perfbench/run.py --workload insert-zipf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload

Each session runs in a fresh process (perfbench/session.py) with one
single-threaded caller: a closed loop that feeds a chunk, then draws from
every sampler and waits for each result.  Sessions repeat until --seconds
have passed (at least MIN_SESSIONS untraced ones); every session of a run
replays the same seeded inputs, and the run reports medians over them.
Every time is scaled to a nominal host speed, measured in each session by a
reference kernel that runs after every timed call (see hostspeed.py).

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1
untraced and traced sessions alternate; the last line holds the per-layer
metrics, and traced draws must equal untraced ones.  Metrics and units are
listed in perfbench/metrics.py; the lines before the JSON line print them
all, per sampler too, for reading.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "exactsamp")
OUT = os.path.join(HERE, "out")
SESSION_TIMEOUT_S = 120
MIN_SESSIONS = 3  # untraced sessions; a traced run also needs one traced


class BenchError(Exception):
    pass


def build():
    """Byte-compile the sources and import once, so that no session pays
    the one-time compile or a cold file cache."""
    for cmd in ([sys.executable, "-m", "compileall", "-q", PACKAGE],
                [sys.executable, "-c", "import sys; sys.path.insert(0, %r); import exactsamp"
                 % os.path.dirname(PACKAGE)]):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SESSION_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("build step failed: %s\n%s" % (" ".join(cmd), proc.stderr))


def run_session(workload, seed, scale, traced):
    cmd = [sys.executable, os.path.join(HERE, "session.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--trace", str(int(traced))]
    if traced:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, "spans-%s.npz" % workload)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SESSION_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("session failed (%s):\n%s" % (" ".join(cmd), proc.stderr[-4000:]))
    return json.loads(lines[-1])


def collect(workload, seed, seconds, scale, trace):
    """Sessions until `seconds` have passed; alternating traced ones if `trace`."""
    start = time.monotonic()
    plain, traced = [], []
    while True:
        want_traced = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        (traced if want_traced else plain).append(run_session(workload, seed, scale, want_traced))
        last = time.monotonic() - t0
        enough = len(plain) >= MIN_SESSIONS and (len(traced) >= 1 or not trace)
        if enough and time.monotonic() - start + last > seconds:
            return plain, traced


# -- aggregation --------------------------------------------------------

def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values):
    """(percentile, value, count beyond it) for the highest whole percentile
    with at least 10 values beyond it; the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    for q in range(99, 0, -1):
        idx = math.ceil(q * n / 100) - 1
        if n - idx - 1 >= 10:
            return q, xs[idx], n - idx - 1
    return 100, xs[-1], 0


def speed(s):
    """Factor that turns a session's times into times on the nominal host
    (see hostspeed.py): the kernel's nominal time over its mean time in the
    session, which samples the host's speed right after every timed call."""
    return hostspeed.NOMINAL_NS / statistics.fmean(s["ref_ns"])


def setup_ns(s):
    return (s["import_ns"] + sum(x["construct_ns"] for x in s["samplers"].values())) * speed(s)


def session_ns(s):
    return setup_ns(s) + speed(s) * sum(
        sum(x["ingest_ns"]) + (0 if x["one_shot"] else sum(x["draw_ns"]))
        for x in s["samplers"].values())


def per_sampler(sessions):
    """Per-sampler rows over untraced sessions of one run, in times on the
    nominal host."""
    rows = {}
    for tag, first in sessions[0]["samplers"].items():
        runs = [(s["samplers"][tag], speed(s)) for s in sessions]
        draws = [d * f for r, f in runs for d in r["draw_ns"]]
        fails = sum(r["outcomes"].get("fail", 0) for r, _ in runs)
        ingest_ns = statistics.median(sum(r["ingest_ns"]) * f for r, f in runs)
        row = {
            "R": first["R"],
            "m": first["m"],
            "one_shot": first["one_shot"],
            "ingest_ns_per_update": ingest_ns / first["m"],
            "updates_per_s": first["m"] / (ingest_ns / 1e9) if ingest_ns else 0.0,
            "draws": len(draws),
            "draw_fail_rate": fails / len(draws) if draws else 0.0,
            "draw_ms_p50": statistics.median(draws) / 1e6 if draws else 0.0,
        }
        if draws:
            q, v, beyond = tail(draws)
            row.update(tail_q=q, draw_ms_tail=v / 1e6, tail_beyond=beyond)
        rows[tag] = row
    return rows


def end_to_end(sessions, rows):
    drawing = [r for r in rows.values() if not r["one_shot"] and r["draws"]]
    draws = sum(r["draws"] for r in rows.values())
    fails = sum(r["draw_fail_rate"] * r["draws"] for r in rows.values())
    return {
        "setup_s": statistics.median(setup_ns(s) for s in sessions) / 1e9,
        "session_s": statistics.median(session_ns(s) for s in sessions) / 1e9,
        "ingest_updates_per_s": geomean(r["updates_per_s"] for r in rows.values()),
        "draw_ms_p50": geomean(r["draw_ms_p50"] for r in drawing),
        "draw_ms_tail": geomean(r["draw_ms_tail"] for r in drawing),
        "draw_fail_rate": fails / draws if draws else 0.0,
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sessions),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def layer_rows(plain, traced, rows, e2e):
    """Every per-layer metric: per-sampler rows, then inner layers; times
    are scaled to the nominal host."""
    out = {}
    for tag in metrics.TAGS:
        row = rows.get(tag, {})
        for stat, _ in metrics.TAG_STATS:
            out["%s.%s" % (tag, stat)] = row.get(stat, 0) or 0

    def layer(name, key):
        vals = [s["trace"]["layers"].get(name, {}).get(key, 0) * speed(s) for s in traced]
        return statistics.median(vals)

    def calls(name):
        return traced[0]["trace"]["layers"].get(name, {}).get("calls", 0)

    def counter(name):
        return traced[0]["trace"]["counters"].get(name, 0)

    def per_call(name, key="ns"):
        return _ratio(layer(name, key), calls(name))

    for name in ("reservoir.SamplerBank.update", "heavyhitters.MGSummary.update",
                 "smoothhist.SmoothHistogram.update", "reservoir.SamplerBank.__init__",
                 "exactrand.substream", "exactrand.bernoulli_fraction",
                 "exactrand.bernoulli_bounds"):
        out[name + ".calls"] = calls(name)
    for name in ("reservoir.SamplerBank.update", "exactrand.bernoulli_fraction",
                 "exactrand.bernoulli_bounds", "gsampler.accept_increment",
                 "heavyhitters.MGSummary.update", "heavyhitters.z_bound",
                 "f0sampler.F0State.update", "f0sampler.F0State.draw"):
        out[name + ".ns_per_call"] = per_call(name)
    for name in ("reservoir.SamplerBank.__init__", "exactrand.substream", "multipass.narrow_z"):
        out[name + ".s"] = layer(name, "ns") / 1e9
    for name in ("exactrand.bernoulli_fraction", "exactrand.bernoulli_bounds"):
        out[name + ".bits_per_call"] = _ratio(counter(name + ".bits"), calls(name))
    out["exactrand.bernoulli_bounds.refines_per_call"] = _ratio(
        counter("exactrand.bernoulli_bounds.refines"), calls("exactrand.bernoulli_bounds"))
    acc = traced[0]["trace"]["layers"].get("gsampler.accept_increment", {})
    out["gsampler.accept_increment.calls_per_draw"] = _ratio(acc.get("calls", 0), acc.get("tops", 0))
    out["gsampler.accept_increment.accept_ratio"] = _ratio(
        counter("gsampler.accept_increment.accepted"), acc.get("calls", 0))
    out["smoothhist.SmoothHistogram.update.self_ns_per_call"] = per_call(
        "smoothhist.SmoothHistogram.update", "self_ns")
    peaks = plain[0]["peaks"]
    for key in ("reservoir.counters", "heavyhitters.entries", "smoothhist.rows",
                "f0sampler.T", "randomorder.harvest"):
        out[key + "_peak"] = peaks.get(key, 0)
    out["multipass.ReplayableStream.passes"] = plain[0]["passes"]
    out["draw_fail_rate"] = e2e["draw_fail_rate"]
    out["trace.overhead_ratio"] = _ratio(statistics.median(session_ns(s) for s in traced),
                                         statistics.median(session_ns(s) for s in plain))
    return out


def verdict(plain, traced):
    """(attempted, failed, problems): failed operations, and draws that differ
    between sessions replaying the same inputs (traced or not)."""
    sessions = plain + traced
    problems = [f for s in sessions for f in s["failures"]]
    reference = plain[0]["record"]
    for s in sessions[1:]:
        if s["record"] != reference:
            problems.append("%s session draws differ from the first untraced session"
                            % ("traced" if s["traced"] else "untraced"))
    return (sum(s["attempted"] for s in sessions), sum(s["failed"] for s in sessions), problems)


# -- report -------------------------------------------------------------

UNITS = dict([(n, u) for n, u, _, _ in metrics.END_TO_END] + metrics.PER_LAYER
             + [("draw_fail_rate", "ratio")])


def report(workload, seed, scale, plain, traced, trace):
    rows = per_sampler(plain)
    e2e = end_to_end(plain, rows)
    attempted, failed, problems = verdict(plain, traced)
    print("== %s  seed=%d  sessions=%d untraced, %d traced  attempted=%d failed=%d  %s"
          % (workload, seed, len(plain), len(traced), attempted, failed,
             workloads.SCALES[workload][scale]))
    print("  host speed: reference kernel %s ms per session, nominal %.3f ms; times below "
          "are on the nominal host (session_s as measured: %s s)"
          % (" ".join("%.3f" % (statistics.fmean(s["ref_ns"]) / 1e6) for s in plain),
             hostspeed.NOMINAL_NS / 1e6,
             " ".join("%.3f" % (session_ns(s) / speed(s) / 1e9) for s in plain)))
    tails = sorted({"p%d" % r["tail_q"] for r in rows.values() if r["draws"] and not r["one_shot"]})
    for name in [n for n, *_ in metrics.END_TO_END] + ["draw_fail_rate"]:
        note = ("   (geomean of per-sampler %s, draws per sampler below)" % "/".join(tails)
                if name == "draw_ms_tail" else "")
        print("  %-22s %14.6g %s%s" % (name, e2e[name], UNITS[name], note))
    for tag, r in rows.items():
        tail_txt = ("p%d %.3f ms (%d beyond)" % (r["tail_q"], r["draw_ms_tail"], r["tail_beyond"])
                    if r["draws"] else "-")
        print("  %-22s R=%-5s m=%-6d ingest %10.1f ns/update  draws=%-4d p50 %9.3f ms  "
              "tail %s  fail %.3f" % (tag, r["R"], r["m"], r["ingest_ns_per_update"],
                                      r["draws"], r["draw_ms_p50"], tail_txt, r["draw_fail_rate"]))
    for p in problems:
        print("  PROBLEM: %s" % p)
    if trace:
        values = layer_rows(plain, traced, rows, e2e)
        for name, unit in metrics.LAYERS:
            if name != "draw_fail_rate":  # printed above
                print("  %-52s %14.6g %s" % (name, values[name], unit))
        units = dict(metrics.PER_LAYER)
    else:
        values = {n: e2e[n] for n, *_ in metrics.END_TO_END}
        units = UNITS
    result = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    return result, attempted, failed, not problems


def main(argv=None):
    ap = argparse.ArgumentParser(description="exactsamp session benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--scale", default="full", choices=["full", "tiny"],
                    help="tiny: the smoke test's input sizes")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print("perfbench: no exactsamp sources at %s" % PACKAGE, file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    try:
        build()
        results = []
        for name in names:
            plain, traced = collect(name, args.seed, args.seconds, args.scale, bool(args.trace))
            results.append((name,) + report(name, args.seed, args.scale, plain, traced, bool(args.trace)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        values = results[0][1]
    else:
        values = {"%s.%s" % (name, k): v for name, vals, *_ in results for k, v in vals.items()}
    print(json.dumps({
        "correct": all(r[4] for r in results) and not any(r[3] for r in results),
        "attempted": sum(r[2] for r in results),
        "failed": sum(r[3] for r in results),
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
