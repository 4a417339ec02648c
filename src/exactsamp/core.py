"""Stream model, window semantics, and the measure-function abstraction.

A measure function G maps integer frequencies to nonnegative values with
G(0) = 0.  Samplers accept with probability (G(c+1) - G(c)) / zeta, so each
measure carries an increment bound zeta and a deterministic lower bound on
F_G = sum_i G(f_i) used to size repetition counts.

G is evaluated three ways: exact rationals where the value is rational
(`g_exact`), certified brackets otherwise (`g_bounds`), and plain floats for
the bulk harnesses (`g_float`).  A bracket is in scaled integers, the one
contract of every irrational acceptance test (see exactrand): g_bounds(x, k)
returns integers (lo, hi) with lo <= G(x) 2^k <= hi and hi - lo bounded by a
constant of the measure, and increment_bounds(c, k) does the same for
G(c+1) - G(c).  L_p and L1-L2 take one integer root at that scale and Fair
one fixed-point logarithm (exactrand.root_scaled, pow_scaled, log_scaled).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactrand import log_scaled, pow_bounds, pow_exact, pow_scaled, root_scaled, scaled

MODELS = ("insertion_only", "sliding_window", "strict_turnstile", "random_order", "matrix")
INCREMENT_MEMO = 1 << 12  # states whose increment_exact a measure keeps


@dataclass(frozen=True)
class Update:
    coord: int
    delta: int = 1
    time: int = 0
    col: Optional[int] = None  # set in matrix mode; coord is then the row


@dataclass(frozen=True)
class StreamConfig:
    n: int
    model: str = "insertion_only"
    W: Optional[int] = None
    seed: int = 0
    d: Optional[int] = None  # matrix column count

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("universe size must be >= 1")
        if self.model not in MODELS:
            raise ValueError("unknown stream model: %r" % (self.model,))
        if self.model == "sliding_window" and (self.W is None or self.W < 1):
            raise ValueError("sliding_window model needs W >= 1")
        if self.model == "matrix" and (self.d is None or self.d < 1):
            raise ValueError("matrix model needs d >= 1")


def exponent(p):
    """The exponent p as an exact Fraction.  A float is read through its
    shortest decimal repr, so 1.1 gives 11/10 as the string "1.1" does, not
    its binary value, whose 2^51 denominator makes every power of it huge."""
    return Fraction(repr(float(p))) if isinstance(p, float) else Fraction(p)


def outside(coord, n):
    """The error for a coordinate outside the universe [1, n]."""
    return ValueError("coordinate %r outside [1, %d]" % (coord, n))


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


@dataclass(frozen=True)
class SampleResult:
    outcome: str  # INDEX / BOTTOM / FAIL
    index: Optional[int] = None
    frequency: Optional[int] = None
    repetition: Optional[int] = None  # the first accepting repetition, where set

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

    zeta is None when the increment bound is not static (L_p with p > 1
    derives zeta = 2 Z^{p-1} from a Misra-Gries Z at draw time).
    """

    name = "abstract"
    zeta = None
    _increments = None  # c -> increment_exact(c), at most INCREMENT_MEMO states

    def g_exact(self, x):
        raise NotImplementedError

    def g_bounds(self, x, k):
        """Integers (lo, hi) with lo <= G(x) 2^k <= hi."""
        exact = self.g_exact(x)
        if exact is None:
            raise NotImplementedError
        return scaled(exact, exact, k)

    def g_float(self, x):
        lo, hi = self.g_bounds(x, 40)
        return (lo + hi) / 2 ** 41

    def fg_lower_bound(self, m):
        """Deterministic rational lower bound on F_G given total mass m."""
        raise NotImplementedError

    def step(self, c):
        """The arguments of G before and after one more occurrence, given the
        strictly-after state c."""
        return c, c + 1

    def increment_exact(self, c):
        """G(after) - G(before) as a Fraction, or None when it is irrational.
        The measure keeps the results in a memo, cleared once it holds
        INCREMENT_MEMO states, so that a draw whose acceptance table is new
        (a new zeta) pays one division per distinct c."""
        memo = self._increments
        if memo is None or len(memo) >= INCREMENT_MEMO:
            memo = self._increments = {}
        elif c in memo:
            return memo[c]
        inc = memo[c] = self._increment_exact(c)
        return inc

    def _increment_exact(self, c):
        before, after = self.step(c)
        a = self.g_exact(after)
        b = self.g_exact(before)
        if a is None or b is None:
            return None
        return a - b

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
        if p <= 1:
            self.zeta = Fraction(1)  # x^p - (x-1)^p <= 1 for p in (0,1]
        else:
            self.zeta = None  # 2 Z^{p-1}, from the heavy-hitters Z

    def g_exact(self, x):
        return pow_exact(x, self.p)

    def g_bounds(self, x, k):
        return pow_scaled(x, self.p, k)

    def g_float(self, x):
        return float(x) ** float(self.p)

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

    def g_float(self, x):
        return math.sqrt(4.0 + 2.0 * x * x) - 2.0


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

    def g_float(self, x):
        tau = float(self.tau)
        return tau * x - tau * tau * math.log1p(x / tau)


class HuberMeasure(MEstimatorMeasure):
    """G(x) = x^2/(2 tau) for x <= tau, else x - tau/2; zeta = 1."""

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

    def fg_lower_bound(self, m):
        return self.g_exact(1) * m


class TukeyMeasure(MEstimatorMeasure):
    """G(x) = tau^2/6 * (1 - (1 - x^2/tau^2)^3) for x <= tau, else tau^2/6."""

    def __init__(self, tau):
        tau = Fraction(tau)
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self.name = "tukey(%s)" % tau
        # G caps at tau^2/6 and its slope is at most tau, so both bound the
        # one-step increment.
        self.zeta = min(tau, tau * tau / 6)

    def g_exact(self, x):
        x = Fraction(x)
        tau = self.tau
        cap = tau * tau / 6
        if x >= tau:
            return cap
        return cap * (1 - (1 - x * x / (tau * tau)) ** 3)

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


@dataclass(frozen=True)
class StreamError:
    position: int  # 1-based update index, 0 for header-level problems
    message: str


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


def frequencies(config, updates, window_end=None):
    """Net frequency vector as a dict coord -> count.

    In sliding-window mode only the last W updates (up to window_end, default
    the stream end) contribute.
    """
    ups = list(updates)
    if config.model == "sliding_window":
        end = len(ups) if window_end is None else window_end
        ups = ups[max(0, end - config.W):end]
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
