"""Command-line front end: stream generation, sampling and verification.

Exit codes: 0 success, 1 verification/sampling failure, 2 usage or stream
format errors.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from .core import (
    StreamConfig,
    Update,
    fair_measure,
    huber_measure,
    l1l2_measure,
    lp_measure,
    parse_stream,
    tukey_measure,
    validate_stream,
    write_stream,
)
from .exactrand import substream
from .f0sampler import F0Sampler, TukeySampler
from .gsampler import GSampler, lp_sampler
from .matrixsampler import ROW_MEASURES, MatrixSampler
from .multipass import ReplayableStream, multipass_l1_draw, multipass_lp_draw
from .randomorder import BlockLpSampler, PairL2Sampler
from .sliding import CheckpointedSampler, SlidingLpSampler
from .smallp import DuplicatedExpState


MEASURES = {
    "lp": lambda args: lp_measure(args.p),
    "l1l2": lambda args: l1l2_measure(),
    "fair": lambda args: fair_measure(args.tau),
    "huber": lambda args: huber_measure(args.tau),
    "tukey": lambda args: tukey_measure(args.tau),
}


def _gen_updates(kind, n, m, rng, alpha=1.1):
    if kind == "uniform":
        return [Update(rng.randrange(n) + 1, time=t + 1) for t in range(m)]
    if kind == "zipf":
        weights = [1.0 / (i + 1) ** alpha for i in range(n)]
        coords = rng.choices(range(1, n + 1), weights, k=m)
        return [Update(c, time=t + 1) for t, c in enumerate(coords)]
    if kind == "single-heavy":
        ups = []
        for t in range(m):
            c = 1 if rng.random() < 0.5 else rng.randrange(n) + 1
            ups.append(Update(c, time=t + 1))
        return ups
    if kind == "shuffled":
        # Balanced multiset in uniformly random order (random-order model).
        pool = [(i % n) + 1 for i in range(m)]
        rng.shuffle(pool)
        return [Update(c, time=t + 1) for t, c in enumerate(pool)]
    raise SystemExit(2)


def cmd_generate(args):
    rng = substream(args.seed, "gen", args.kind)
    if args.kind == "matrix":
        config = StreamConfig(n=args.n, model="matrix", d=args.d)
        ups = [Update(rng.randrange(args.n) + 1, col=rng.randrange(args.d) + 1,
                      time=t + 1) for t in range(args.m)]
    else:
        model, W = "insertion_only", None
        if args.window is not None:
            model, W = "sliding_window", args.window
        elif args.kind == "shuffled":
            model = "random_order"
        config = StreamConfig(n=args.n, model=model, W=W)
        ups = _gen_updates(args.kind, args.n, args.m, rng, args.alpha)
    write_stream(args.out, config, ups)
    print("wrote %d updates to %s" % (len(ups), args.out))
    return 0


# name -> the sampler it builds from (args, stream config, stream length, seed);
# each is fed the stream with one process() call and drawn from once.
SAMPLERS = {
    "gsampler": lambda a, c, m, seed: GSampler(MEASURES[a.measure](a), c.n, m, a.delta, seed),
    "lp": lambda a, c, m, seed: lp_sampler(a.p, c.n, m, a.delta, seed),
    "f0": lambda a, c, m, seed: F0Sampler(c.n, a.delta, seed, window=c.W),
    "tukey": lambda a, c, m, seed: TukeySampler(MEASURES["tukey"](a), c.n, a.delta, seed,
                                                window=c.W),
    "matrix": lambda a, c, m, seed: MatrixSampler(ROW_MEASURES[a.row_measure](), c.n, c.d, m,
                                                  a.delta, seed),
    "sliding": lambda a, c, m, seed: CheckpointedSampler(MEASURES[a.measure](a), c.W, c.n,
                                                         a.delta, seed),
    "sliding-lp": lambda a, c, m, seed: SlidingLpSampler(a.p, c.W, c.n, a.delta, seed),
    "pair": lambda a, c, m, seed: PairL2Sampler(c.n, c.W or m, seed),
    "block": lambda a, c, m, seed: BlockLpSampler(c.n, c.W or m, a.p, seed),
    "smallp": lambda a, c, m, seed: DuplicatedExpState(float(a.p), a.duplication, seed),
}


def _build_and_draw(args, config, updates, seed):
    if args.sampler == "multipass":  # draws in passes over the whole stream
        stream = ReplayableStream(updates)
        if args.p == 1:
            res, _ = multipass_l1_draw(stream, args.gamma, config.n, seed)
            return res
        return multipass_lp_draw(stream, args.gamma, args.p, config.n, args.delta, seed)
    sampler = SAMPLERS[args.sampler](args, config, len(updates), seed)
    sampler.process(updates)
    return sampler.draw()


def _usage_error(args, config):
    """Why the sampler cannot run on this stream, or None."""
    if args.sampler == "matrix" and config.d is None:
        return "--sampler matrix needs a matrix stream (a header with d=<columns>)"
    if args.sampler in ("sliding", "sliding-lp") and config.W is None:
        return ("--sampler %s needs a window: a sliding-window stream or --window W"
                % args.sampler)
    return None


def cmd_sample(args):
    try:
        config, updates = parse_stream(args.stream)
    except (OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if args.window is not None:
        config = StreamConfig(n=config.n, model="sliding_window",
                              W=args.window, d=config.d)
    err = validate_stream(config, updates)
    if err is not None:
        print("invalid stream (position %d): %s" % (err.position, err.message),
              file=sys.stderr)
        return 2
    usage = _usage_error(args, config)
    if usage is not None:
        print("error: %s" % usage, file=sys.stderr)
        return 2
    outcomes = {"index": 0, "bottom": 0, "fail": 0}
    hist = {}
    t0 = time.perf_counter()
    for k in range(args.trials):
        try:
            res = _build_and_draw(args, config, updates, args.seed + k)
        except ValueError as e:  # e.g. a deletion fed to an insertion-only sampler
            print("error: %s" % e, file=sys.stderr)
            return 2
        outcomes[res.outcome] += 1
        if res.outcome == "index":
            hist[res.index] = hist.get(res.index, 0) + 1
    dt = time.perf_counter() - t0
    report = {
        "outcome_counts": outcomes,
        "histogram": {str(k): v for k, v in sorted(hist.items())},
        "fail_rate": outcomes["fail"] / args.trials,
        "wall_time_s": dt,
        "updates_per_s": len(updates) * args.trials / dt if dt > 0 else None,
    }
    if args.format == "json":
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        print("outcomes: %s  fail_rate=%.4f  %.3fs"
              % (outcomes, report["fail_rate"], dt))
        for k, v in sorted(hist.items()):
            print("%8d  %d" % (k, v))
    if args.strict and outcomes["fail"]:
        return 1
    return 0


def cmd_verify(args):
    from . import verify as verify_mod  # the enumerator loads for this command alone

    reports, ok = verify_mod.run_battery()
    if args.format == "json":
        verify_mod.dump_reports(reports, sys.stdout)
    else:
        for r in reports:
            status = "ok" if r.ok else "FAIL"
            fail = "symbolic" if r.mass_fail is None else r.mass_fail
            print("%-4s %-20s %-12s %-18s fail=%s" % (status, r.sampler, r.stream_id, r.checks, fail))
    if args.out:
        with open(args.out, "w") as fh:
            verify_mod.dump_reports(reports, fh)
    return 0 if ok else 1


def _integer_at_least(low):
    """An argparse type: an integer >= low, else a usage error (exit 2)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid integer: %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
        return value
    return parse


POSITIVE, NONNEGATIVE = _integer_at_least(1), _integer_at_least(0)


def _rational(text):
    """An argparse type: a rational such as 3/2 or 0.5, else a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("invalid rational: %r" % text) from None


def _probability(text):
    """An argparse type: a float strictly between 0 and 1, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid number: %r" % text) from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError("must be in (0, 1), got %r" % text)
    return value


def _add_measure_args(sp):
    sp.add_argument("--measure", default="lp", choices=list(MEASURES))
    sp.add_argument("--p", type=_rational, default="1", help="L_p exponent (rational, e.g. 3/2)")
    sp.add_argument("--tau", type=_rational, default="2", help="M-estimator scale")


def main(argv=None):
    ap = argparse.ArgumentParser(prog="exactsamp")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="write a stream file")
    g.add_argument("--kind", required=True,
                   choices=["uniform", "zipf", "single-heavy", "shuffled", "matrix"])
    g.add_argument("--n", type=POSITIVE, required=True)
    g.add_argument("--m", type=NONNEGATIVE, required=True)
    g.add_argument("--d", type=POSITIVE, default=4, help="matrix column count")
    g.add_argument("--window", type=POSITIVE, default=None, help="sliding window W")
    g.add_argument("--alpha", type=float, default=1.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("sample", help="run a sampler over a stream file")
    s.add_argument("--stream", required=True)
    s.add_argument("--sampler", required=True, choices=[*SAMPLERS, "multipass"])
    _add_measure_args(s)
    s.add_argument("--row-measure", default="l2_row", choices=sorted(ROW_MEASURES))
    s.add_argument("--delta", type=_probability, default=0.1,
                   help="failure probability the repetitions are sized for, in (0, 1)")
    s.add_argument("--passes-gamma", dest="gamma", type=_rational, default="1/2",
                   help="multipass chunk exponent gamma (rational)")
    s.add_argument("--duplication", type=int, default=256)
    s.add_argument("--trials", type=POSITIVE, default=1,
                   help="independent seeded draws")
    s.add_argument("--window", type=POSITIVE, default=None,
                   help="treat the stream as sliding-window with this W")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--strict", action="store_true",
                   help="exit 1 if any draw fails")
    s.add_argument("--format", default="table", choices=["json", "table"])
    s.set_defaults(func=cmd_sample)

    v = sub.add_parser("verify", help="run the verification battery")
    v.add_argument("--out", default=None, help="also write JSON reports here")
    v.add_argument("--format", default="table", choices=["json", "table"])
    v.set_defaults(func=cmd_verify)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
