"""Stream model, window semantics, and the measure-function abstraction.

A measure function G maps integer frequencies to nonnegative values with
G(0) = 0.  Samplers accept with probability (G(c+1) - G(c)) / zeta, so each
measure carries an increment bound zeta and a deterministic lower bound on
F_G = sum_i G(f_i) used to size repetition counts.

G is evaluated two ways: exact rationals where the value is rational
(`g_exact`), and certified brackets otherwise (`g_bounds`); no float value
of G is kept.  A bracket is in scaled integers, the one
contract of every irrational acceptance test (see exactrand): g_bounds(x, k)
returns integers (lo, hi) with lo <= G(x) 2^k <= hi and hi - lo bounded by a
constant of the measure, and increment_bounds(c, k) does the same for
G(c+1) - G(c).  L_p and L1-L2 take one integer root at that scale and Fair
one fixed-point logarithm (exactrand.root_scaled, pow_scaled, log_scaled).
"""

import math
from fractions import Fraction
from operator import attrgetter

from .exactrand import (integer_nthroot, log_scaled, pow_bounds, pow_exact, pow_scaled,
                        root_scaled, scaled)

MODELS = ("insertion_only", "sliding_window", "strict_turnstile", "random_order", "matrix")
INCREMENT_MEMO = 1 << 12  # states whose increment_ratio a measure keeps
_MISSING = object()


_set = object.__setattr__


class Record:
    """A frozen record with value semantics, as a frozen dataclass has.

    A subclass names its fields, in order, in __slots__ and sets them in its
    own __init__ through object.__setattr__.  Records are equal, and hash
    alike, when they are of one class and their fields are equal; the repr
    is Name(field=value, ...); assigning or deleting a field raises
    AttributeError; pickle and copy rebuild a record through its __init__.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._values = staticmethod(attrgetter(*cls.__slots__))  # the field tuple

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return type(self), self._values(self)


class Update(Record):
    """One stream update; col is set in matrix mode, where coord is the row."""

    __slots__ = ("coord", "delta", "time", "col")

    def __init__(self, coord, delta=1, time=0, col=None):
        _set(self, "coord", coord)
        _set(self, "delta", delta)
        _set(self, "time", time)
        _set(self, "col", col)


class StreamConfig(Record):
    """A stream's universe size n and model; W is the window of the
    sliding_window model and d the column count of the matrix model."""

    __slots__ = ("n", "model", "W", "seed", "d")

    def __init__(self, n, model="insertion_only", W=None, seed=0, d=None):
        if n < 1:
            raise ValueError("universe size must be >= 1")
        if model not in MODELS:
            raise ValueError("unknown stream model: %r" % (model,))
        if model == "sliding_window" and (W is None or W < 1):
            raise ValueError("sliding_window model needs W >= 1")
        if model == "matrix" and (d is None or d < 1):
            raise ValueError("matrix model needs d >= 1")
        _set(self, "n", n)
        _set(self, "model", model)
        _set(self, "W", W)
        _set(self, "seed", seed)
        _set(self, "d", d)


def exponent(p):
    """The exponent p as an exact Fraction.  A float is read through its
    shortest decimal repr, so 1.1 gives 11/10 as the string "1.1" does, not
    its binary value, whose 2^51 denominator makes every power of it huge.
    A Fraction is returned as it is."""
    if isinstance(p, Fraction):
        return p
    return Fraction(repr(float(p))) if isinstance(p, float) else Fraction(p)


def outside(coord, n):
    """The error for a coordinate outside the universe [1, n]."""
    return ValueError("coordinate %r outside [1, %d]" % (coord, n))


def check_window(W):
    """Raise ValueError for a sliding window W of fewer than one update."""
    if W < 1:
        raise ValueError("window W must be >= 1, got %r" % (W,))


class UnitUpdates:
    """process() for the samplers of unit-delta streams.

    process checks a whole batch, then hands its coordinates to the class's
    ingest(coords), the one loop over each state structure it keeps; a
    per-call update(coord) is a batch of one.  A sampler with a universe
    size n (None: coordinates are not checked) rejects coordinates outside
    [1, n]."""

    n = None

    def process(self, updates):
        """Feed updates (Update objects or bare coordinates) in order.  An
        Update with delta != 1 is rejected: these samplers count every update
        as one insertion, so they cannot take a deletion.  A rejected batch
        raises ValueError before any of it is fed, so the sampler is left as
        it was."""
        if not isinstance(updates, (list, tuple)):
            updates = list(updates)
        try:
            coords = [u.coord for u in updates]
            deltas = {u.delta for u in updates}
        except AttributeError:  # bare coordinates, alone or among Updates
            if set(map(type, updates)) <= {int}:
                # All bare ints: checked by min and max, and fed as they are.
                coords, deltas = updates, set()
            else:
                coords = [getattr(u, "coord", u) for u in updates]
                deltas = {getattr(u, "delta", 1) for u in updates}
        n = self.n
        if (deltas - {1}
                or (n is not None and coords and not (1 <= min(coords) and max(coords) <= n))):
            raise self._rejection(updates)
        self.ingest(coords)

    def update(self, coord):
        """Feed one coordinate."""
        n = self.n
        if n is not None and not 1 <= coord <= n:
            raise outside(coord, n)
        self.ingest((coord,))

    def _rejection(self, updates):
        """The error for the first update of a batch that is rejected."""
        n = self.n
        for u in updates:
            if getattr(u, "delta", 1) != 1:
                return ValueError("%s takes unit insertions, got delta %d"
                                  % (type(self).__name__, u.delta))
            c = getattr(u, "coord", u)
            if n is not None and not 1 <= c <= n:
                return outside(c, n)


INDEX = "index"
BOTTOM = "bottom"
FAIL = "fail"


class SampleResult(Record):
    """A draw's outcome (INDEX / BOTTOM / FAIL), its index and frequency
    where set, and the first accepting repetition, where set."""

    __slots__ = ("outcome", "index", "frequency", "repetition")

    def __init__(self, outcome, index=None, frequency=None, repetition=None):
        _set(self, "outcome", outcome)
        _set(self, "index", index)
        _set(self, "frequency", frequency)
        _set(self, "repetition", repetition)

    @classmethod
    def of(cls, index, frequency=None, repetition=None):
        return cls(INDEX, index, frequency, repetition)

    @classmethod
    def bottom(cls):
        return cls(BOTTOM)

    @classmethod
    def fail(cls):
        return cls(FAIL)


class MeasureFunction:
    """Base class; subclasses fill in the G evaluations.

    zeta is None when the increment bound is not static: L_p with p > 1
    takes gsampler.lp_zeta's zeta = p Z^{p-1} at draw time, from a bound Z
    on the largest frequency (Misra-Gries, the multipass Z narrowing, or a
    sliding window's smooth histogram).
    """

    name = "abstract"
    zeta = None
    # Every increment is rational, so that a test at a rational zeta is
    # decided on integers without a table (gsampler.DrawState).
    rational_increments = False
    _increments = None  # c -> increment_ratio(c), at most INCREMENT_MEMO states

    def g_exact(self, x):
        raise NotImplementedError

    def g_bounds(self, x, k):
        """Integers (lo, hi) with lo <= G(x) 2^k <= hi."""
        exact = self.g_exact(x)
        if exact is None:
            raise NotImplementedError
        return scaled(exact, exact, k)

    def fg_lower_bound(self, m):
        """Deterministic rational lower bound on F_G given total mass m."""
        raise NotImplementedError

    def step(self, c):
        """The arguments of G before and after one more occurrence, given the
        strictly-after state c."""
        return c, c + 1

    def increment_ratio(self, c):
        """G(after) - G(before) as integers (num, den) with den > 0, not
        necessarily reduced, or None when it is irrational.  The measure
        keeps the results in a memo, cleared once it holds INCREMENT_MEMO
        states, so that the draws pay for each distinct c once."""
        memo = self._increments
        if memo is None:
            memo = self._increments = {}
        else:
            inc = memo.get(c, _MISSING)
            if inc is not _MISSING:
                return inc
            if len(memo) >= INCREMENT_MEMO:
                memo.clear()
        inc = memo[c] = self._increment_ratio(c)
        return inc

    def _increment_ratio(self, c):
        """increment_ratio from g_exact; a measure with an integer form of G
        overrides it."""
        before, after = self.step(c)
        a = self.g_exact(after)
        b = self.g_exact(before)
        if a is None or b is None:
            return None
        d = a - b
        return d.numerator, d.denominator

    def increment_bounds(self, c, k):
        """Integers (lo, hi) with lo <= (G(after) - G(before)) 2^k <= hi."""
        before, after = self.step(c)
        alo, ahi = self.g_bounds(after, k)
        blo, bhi = self.g_bounds(before, k)
        return alo - bhi, ahi - blo

    def __repr__(self):
        return "<measure %s>" % self.name


class LpMeasure(MeasureFunction):
    """G(x) = x**p for rational p > 0."""

    def __init__(self, p):
        p = exponent(p)
        if p <= 0:
            raise ValueError("p must be positive")
        self.p = p
        self.name = "lp(%s)" % p
        self.rational_increments = p.denominator == 1
        if p <= 1:
            self.zeta = Fraction(1)  # x^p - (x-1)^p <= 1 for p in (0,1]
        else:
            self.zeta = None  # p Z^{p-1} (gsampler.lp_zeta), Z read at draw time

    def g_exact(self, x):
        return pow_exact(x, self.p)

    def _increment_ratio(self, c):
        """(c+1)^p - c^p over 1, when both powers are integers: for p = a/b
        an integer x^p is the exact b-th root of x^a, and is irrational
        otherwise."""
        a, b = self.p.numerator, self.p.denominator
        hi, hi_exact = integer_nthroot((c + 1) ** a, b)
        lo, lo_exact = integer_nthroot(c ** a, b)
        return (hi - lo, 1) if hi_exact and lo_exact else None

    def g_bounds(self, x, k):
        return pow_scaled(x, self.p, k)

    def fg_lower_bound(self, m):
        if m == 0:
            return Fraction(0)
        if self.p <= 1:
            # F_p >= m^p when p <= 1 (subadditivity of x^p).
            return pow_bounds(Fraction(m), self.p, 32)[0]
        # F_p >= m for p >= 1 on unit-delta streams (every f_i >= 1 on support).
        return Fraction(m)


class MEstimatorMeasure(MeasureFunction):
    """Common F_G bound for convex M-estimators: G convex with G(0)=0 gives
    G(x) >= G(1) * x, hence F_G >= G(1) * m."""

    def _g1_lower(self):
        return Fraction(self.g_bounds(1, 32)[0], 1 << 32)

    def fg_lower_bound(self, m):
        return self._g1_lower() * m


class L1L2Measure(MEstimatorMeasure):
    """G(x) = 2(sqrt(1 + x^2/2) - 1) = sqrt(4 + 2 x^2) - 2, zeta = 3."""

    name = "l1l2"
    zeta = Fraction(3)

    def g_exact(self, x):
        s = 4 + 2 * x * x
        r = math.isqrt(s)
        if r * r == s:
            return Fraction(r - 2)
        return None

    def g_bounds(self, x, k):
        lo, hi = root_scaled(4 + 2 * x * x, 2, k)
        return lo - (2 << k), hi - (2 << k)


class FairMeasure(MEstimatorMeasure):
    """G(x) = tau*x - tau^2 * ln(1 + x/tau), zeta = tau."""

    def __init__(self, tau):
        tau = Fraction(tau)
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self.name = "fair(%s)" % tau
        self.zeta = tau

    def g_exact(self, x):
        return Fraction(0) if x == 0 else None

    def g_bounds(self, x, k):
        if x == 0:
            return 0, 0
        a, b = self.tau.numerator, self.tau.denominator
        # G 2^k = (a b x 2^j - a^2 ln(1 + x/tau) 2^j) / (b^2 2^g), j = k + g,
        # with 2^g > a^2 so that tau^2 does not widen the bracket.
        g = 2 * a.bit_length()
        llo, lhi = log_scaled(Fraction(a + b * x, a), k + g)
        lin, den = a * b * x << (k + g), b * b << g
        return (lin - a * a * lhi) // den, -((a * a * llo - lin) // den)


class HuberMeasure(MEstimatorMeasure):
    """G(x) = x^2/(2 tau) for x <= tau, else x - tau/2; zeta = 1.  With
    tau = a/b, 2ab G(x) is the integer x^2 b^2 for x <= tau and
    a (2bx - a) above it."""

    rational_increments = True

    def __init__(self, tau):
        tau = Fraction(tau)
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self.name = "huber(%s)" % tau
        self.zeta = Fraction(1)

    def g_exact(self, x):
        a, b = self.tau.numerator, self.tau.denominator
        if x * b <= a:
            return Fraction(x * x * b, 2 * a)
        return Fraction(2 * b * x - a, 2 * b)

    def _scaled(self, x):
        """2ab G(x), an integer."""
        a, b = self.tau.numerator, self.tau.denominator
        return x * x * b * b if x * b <= a else a * (2 * b * x - a)

    def _increment_ratio(self, c):
        a, b = self.tau.numerator, self.tau.denominator
        return self._scaled(c + 1) - self._scaled(c), 2 * a * b

    def fg_lower_bound(self, m):
        return self.g_exact(1) * m


class TukeyMeasure(MEstimatorMeasure):
    """G(x) = tau^2/6 * (1 - (1 - x^2/tau^2)^3) for x <= tau, else tau^2/6.
    With tau = a/b, G(x)/G(tau) = (a^6 - max(a^2 - x^2 b^2, 0)^3)/a^6, and
    G(tau) = a^6 / (6 a^4 b^2)."""

    rational_increments = True

    def __init__(self, tau):
        tau = Fraction(tau)
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self.name = "tukey(%s)" % tau
        # G caps at tau^2/6 and its slope is at most tau, so both bound the
        # one-step increment.
        self.zeta = min(tau, tau * tau / 6)
        a, b = tau.numerator, tau.denominator
        self._a2, self._b2, self._a6 = a * a, b * b, a ** 6

    def g_exact(self, x):
        x = Fraction(x)
        tau = self.tau
        cap = tau * tau / 6
        if x >= tau:
            return cap
        return cap * (1 - (1 - x * x / (tau * tau)) ** 3)

    def _scaled(self, x):
        """a^6 G(x)/G(tau), an integer."""
        return self._a6 - max(self._a2 - x * x * self._b2, 0) ** 3

    def cap_ratio(self, x):
        """G(x)/G(tau) as integers (num, den)."""
        return self._scaled(x), self._a6

    def _increment_ratio(self, c):
        return self._scaled(c + 1) - self._scaled(c), 6 * self._a2 * self._a2 * self._b2

    def fg_lower_bound(self, m):
        # G saturates, so G(x) >= G(1)*x fails (e.g. G(2) < 2 G(1) at tau=2).
        # The only mass-independent safe bound is one support coordinate's
        # G(1); the dedicated support-sampler route avoids needing better.
        return self.g_exact(1) if m else Fraction(0)


def lp_measure(p):
    return LpMeasure(p)


def l1l2_measure():
    return L1L2Measure()


def fair_measure(tau):
    return FairMeasure(tau)


def huber_measure(tau):
    return HuberMeasure(tau)


def tukey_measure(tau):
    return TukeyMeasure(tau)


def builtin_measures(p=Fraction(1, 2), tau=Fraction(2)):
    """One of each builtin family at the given parameters."""
    return [
        lp_measure(p),
        l1l2_measure(),
        fair_measure(tau),
        huber_measure(tau),
        tukey_measure(tau),
    ]


class StreamError(Record):
    """A stream's first violation of its model: position is the 1-based
    update index, 0 for header-level problems."""

    __slots__ = ("position", "message")

    def __init__(self, position, message):
        _set(self, "position", position)
        _set(self, "message", message)


def validate_stream(config, updates):
    """Return None if the stream satisfies its model contract, else the
    first violation as a StreamError."""
    prefix = {}
    last_time = 0
    for pos, u in enumerate(updates, start=1):
        if not (1 <= u.coord <= config.n):
            return StreamError(pos, "coordinate %d outside [1, %d]" % (u.coord, config.n))
        if config.model == "matrix":
            if u.col is None or not (1 <= u.col <= config.d):
                return StreamError(pos, "column missing or outside [1, %d]" % (config.d,))
        if u.time:
            if u.time <= last_time:
                return StreamError(pos, "non-increasing timestamp at position %d" % pos)
            last_time = u.time
        if config.model == "strict_turnstile":
            if u.delta == 0:
                return StreamError(pos, "zero delta")
            new = prefix.get(u.coord, 0) + u.delta
            if new < 0:
                return StreamError(pos, "prefix of coordinate %d drops to %d" % (u.coord, new))
            prefix[u.coord] = new
        else:
            if u.delta != 1:
                return StreamError(pos, "model %s requires unit deltas" % config.model)
    return None


def frequencies(config, updates):
    """Net frequency vector as a dict coord -> count.

    In sliding-window mode only the last W updates contribute.
    """
    ups = list(updates)
    if config.model == "sliding_window":
        ups = ups[max(0, len(ups) - config.W):]
    freq = {}
    for u in ups:
        freq[u.coord] = freq.get(u.coord, 0) + u.delta
    return {i: f for i, f in freq.items() if f != 0}


def write_stream(path, config, updates):
    with open(path, "w") as fh:
        head = "n=%d model=%s" % (config.n, config.model)
        if config.W is not None:
            head += " W=%d" % config.W
        if config.d is not None:
            head += " d=%d" % config.d
        fh.write(head + "\n")
        for u in updates:
            if config.model == "matrix":
                fh.write("%d %d %d\n" % (u.coord, u.col, u.delta))
            elif u.delta == 1:
                fh.write("%d\n" % u.coord)
            else:
                fh.write("%d %d\n" % (u.coord, u.delta))


def parse_stream(path):
    """Read a stream file; returns (StreamConfig, list[Update])."""
    with open(path) as fh:
        header = fh.readline().strip()
        fields = {}
        for tok in header.split():
            if "=" not in tok:
                raise ValueError("bad header token %r in %s" % (tok, path))
            key, val = tok.split("=", 1)
            fields[key] = val
        if "n" not in fields or "model" not in fields:
            raise ValueError("stream header needs n= and model=: %s" % path)
        config = StreamConfig(
            n=int(fields["n"]),
            model=fields["model"],
            W=int(fields["W"]) if "W" in fields else None,
            d=int(fields["d"]) if "d" in fields else None,
        )
        updates = []
        t = 0
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [int(x) for x in line.split()]
            t += 1
            if config.model == "matrix":
                if len(parts) != 3:
                    raise ValueError("matrix updates need `row col delta`: %r" % line)
                updates.append(Update(coord=parts[0], col=parts[1], delta=parts[2], time=t))
            elif len(parts) == 1:
                updates.append(Update(coord=parts[0], delta=1, time=t))
            elif len(parts) == 2:
                updates.append(Update(coord=parts[0], delta=parts[1], time=t))
            else:
                raise ValueError("bad update line %r" % line)
    return config, updates
