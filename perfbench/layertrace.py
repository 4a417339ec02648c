"""Tracing of exactsamp's layers from outside the program.

`Tracer.install` replaces each traced function at every module that binds
it (a name imported with `from .exactrand import bernoulli_fraction` is a
separate binding in each importing module) and each traced method on its
class.  Every call becomes a span (name, start, end, parent, enclosing
benchmark-level span, chunk), kept in flat arrays and written out when the
session ends.  Self time is a span's duration minus the spans it encloses.

Random bits are counted by handing the exact-Bernoulli draws a thin proxy
whose `getrandbits` delegates to the caller's generator, so the traced run
consumes exactly the same random numbers as an untraced one.
"""

import sys
import time
from array import array

# (module, attribute) of each traced function; every exactsamp module that
# binds the same object gets the wrapper.
FUNCTIONS = [
    ("exactrand", "substream"),
    ("exactrand", "bernoulli_fraction"),
    ("exactrand", "bernoulli_bounds"),
    ("gsampler", "accept_increment"),
    ("heavyhitters", "z_bound"),
    ("multipass", "narrow_z"),
]

# (module, class, method) of each traced method.
METHODS = [
    ("reservoir", "SamplerBank", "__init__"),
    ("reservoir", "SamplerBank", "update"),
    ("heavyhitters", "MGSummary", "update"),
    ("smoothhist", "SmoothHistogram", "update"),
    ("f0sampler", "F0State", "update"),
    ("f0sampler", "F0State", "draw"),
]


class CountingRng:
    """Delegates to `rng`, counting the bits drawn through getrandbits."""

    __slots__ = ("_rng", "bits")

    def __init__(self, rng):
        self._rng = rng
        self.bits = 0

    def getrandbits(self, k):
        self.bits += k
        return self._rng.getrandbits(k)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.cols = {c: array("q") for c in ("name", "start", "end", "parent", "top", "chunk")}
        self.calls = []  # per name id: [calls, total ns, self ns]
        self.counters = {}  # extra counts: bits, refines, accepts
        self.top_calls = {}  # name id -> set of benchmark-level spans it ran under
        self.chunk = -1
        self._top = -1
        self._stack = []  # [span index, ns covered by child spans]

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append([0, 0, 0])
        return i

    def count(self, key, k):
        self.counters[key] = self.counters.get(key, 0) + k

    def begin(self, nid):
        c = self.cols
        idx = len(c["start"])
        stack = self._stack
        c["name"].append(nid)
        c["parent"].append(stack[-1][0] if stack else -1)
        c["top"].append(self._top)
        c["chunk"].append(self.chunk)
        c["end"].append(0)
        stack.append([idx, 0])
        c["start"].append(time.perf_counter_ns())
        return idx

    def finish(self):
        t = time.perf_counter_ns()
        idx, child = self._stack.pop()
        c = self.cols
        c["end"][idx] = t
        dur = t - c["start"][idx]
        if self._stack:
            self._stack[-1][1] += dur
        agg = self.calls[c["name"][idx]]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child

    def begin_top(self, name, chunk):
        """A benchmark-level span (construct, ingest or draw of one sampler)."""
        self.chunk = chunk
        self._top = self.begin(self._id(name))

    def finish_top(self):
        self.finish()
        self._top = -1

    # -- wrappers -------------------------------------------------------

    def _plain(self, name, fn):
        nid = self._id(name)
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish()

        return wrapper

    def _bernoulli_fraction(self, name, fn):
        nid = self._id(name)
        begin, finish, count = self.begin, self.finish, self.count

        def wrapper(q, rng):
            proxy = CountingRng(rng)
            begin(nid)
            try:
                return fn(q, proxy)
            finally:
                finish()
                count(name + ".bits", proxy.bits)

        return wrapper

    def _bernoulli_bounds(self, name, fn):
        nid = self._id(name)
        begin, finish, count = self.begin, self.finish, self.count

        def wrapper(refine, rng, *args, **kwargs):
            proxy = CountingRng(rng)
            evals = [0]

            def counted(prec):
                evals[0] += 1
                return refine(prec)

            begin(nid)
            try:
                return fn(counted, proxy, *args, **kwargs)
            finally:
                finish()
                count(name + ".bits", proxy.bits)
                count(name + ".refines", evals[0])

        return wrapper

    def _accept_increment(self, name, fn):
        nid = self._id(name)
        begin, finish, count = self.begin, self.finish, self.count
        tops = self.top_calls.setdefault(nid, set())

        def wrapper(*args, **kwargs):
            tops.add(self._top)
            begin(nid)
            try:
                ok = fn(*args, **kwargs)
            finally:
                finish()
            if ok:
                count(name + ".accepted", 1)
            return ok

        return wrapper

    SPECIAL = {
        "bernoulli_fraction": "_bernoulli_fraction",
        "bernoulli_bounds": "_bernoulli_bounds",
        "accept_increment": "_accept_increment",
    }

    def install(self, package):
        """Wrap every traced layer of `package` (the imported exactsamp)."""
        prefix = package.__name__
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == prefix or k.startswith(prefix + "."))]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[prefix + "." + mod_name], attr)
            name = "%s.%s" % (mod_name, attr)
            make = getattr(self, self.SPECIAL.get(attr, "_plain"))
            wrapper = make(name, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[prefix + "." + mod_name], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._plain("%s.%s.%s" % (mod_name, cls_name, attr), original))

    # -- results --------------------------------------------------------

    def summary(self):
        """Per traced name: calls, total ns, self ns, and the extra counters."""
        out = {name: {"calls": a[0], "ns": a[1], "self_ns": a[2]}
               for name, a in zip(self.names, self.calls)}
        for nid, tops in self.top_calls.items():
            out[self.names[nid]]["tops"] = len(tops)
        return {"layers": out, "counters": dict(self.counters), "spans": len(self.cols["start"])}

    def write(self, path):
        """Write all spans as a NumPy archive: one int64 column per field."""
        import numpy as np

        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names),
                     **{k: np.frombuffer(v, dtype=np.int64) for k, v in self.cols.items()})
