"""Numerically stable primitives shared by the distribution, sum, and reliability code.

Everything factorial-heavy is assembled in log space: densities and survival
series in this package multiply binomial coefficients, factorials, and powers
that individually overflow double precision long before their combination
does.  The helpers here keep those combinations finite.

ErlangMixture is the one evaluator of the Erlang series: every family member,
n-fold sum, and exponential standby system is a finite Erlang mixture with one
shared rate, and takes its density, tails, and moments here (a member's too,
as SumSpec(dist, 1); its closed-form density is kept apart, as validation's
convolution oracle at n = 1).  Its density and its survival are one kind of
series in y = rate x, sum_i w_i y^{p_i} e^{-y} / p_i!: the weights on the
powers s-1 (times rate), and the tail weights W_j, the weight on shapes above
j, on the powers j.  One plan, _Series, built with the mixture's rate, serves
both: it carries its bound _finite_below(rate), its cap, its edge values,
and one evaluator for a scalar and one for arrays, in log space.  Every
density and tail in the package, the Lindley double series included, is
evaluated by one frame, _pointwise(x, plan, log=False), which applies each
rule once: where 0 < x < bound it takes a Python int or float to the scalar
evaluator, without numpy, and any array to the array series, then caps the
series and, unless log, takes its exponential; x < 0, x == 0, x at or past
the bound, and NaN get the plan's edge values (a Python scalar without
numpy).  The parameter checks check_positive and check_count live here too,
so that ErlangMixture can use them (family, which re-exports them, imports
this module).

_Record, the base of every frozen value class, stands in for frozen
dataclasses, so no module imports dataclasses (or inspect with it): fields are
a subclass's annotations (after a parent record's), class values defaults;
__init__ takes them by position or keyword, then calls __post_init__; set and
del raise AttributeError (cached_property still caches); equality (one class
only) and hash skip _uncompared, through a getter of the compared values built
once per class; the repr is the dataclass one.

numpy is loaded on first use.  This module makes the package's one np: numpy
itself if it is already imported, else a _Numpy proxy whose first attribute
read runs `import numpy` (under the import system's lock, so a second thread
waits for the whole load) and which keeps each attribute it reads; the other
modules take np from here.  The proxy registers nothing in sys.modules.  So
`lindsum mttf`, `moments` (--verify too), `pdf`, `reliability`, `--help` and
usage errors never load numpy: their numbers are pure math, their densities
and tails come from Python floats through the scalar route of _pointwise, and
integrate runs in Python floats.  `sample` and `verify` do load it.
"""

from __future__ import annotations

import bisect
import heapq
import math
import numbers
import operator
import sys
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property
from itertools import accumulate

__all__ = [
    "ErlangMixture",
    "QuadratureError",
    "QuadratureResult",
    "check_count",
    "check_positive",
    "integrate",
    "ln_binomial",
    "ln_factorial",
    "logsumexp",
]


class _Numpy:
    """numpy, imported at the first attribute read; keeps each attribute it reads."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = sys.modules.get("numpy") or _Numpy()

# Logs of exact integer factorials; lgamma takes over past the table.
_EXACT_LIMIT = 20
_LN_FACTORIALS = tuple(math.log(math.factorial(n)) for n in range(_EXACT_LIMIT + 1))

# ln of the largest finite and of the smallest normal double: the moments past
# them raise OverflowError and ArithmeticError.
_LN_DOUBLE_MAX = math.log(sys.float_info.max)
_LN_DOUBLE_MIN = math.log(sys.float_info.min)

# QUADPACK refuses pure-relative requests below 50 * machine epsilon, and
# floors each rule's error estimate at that fraction of the integral of |f|.
_EPSREL_FLOOR = 50.0 * math.ulp(1.0)

# The 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk21, its constants
# rounded to double) as rows of (node x >= 0, Kronrod weight, Kronrod minus
# Gauss weight), outermost first.  The 10-point Gauss rule uses the 2nd, 4th,
# ..., 10th nodes, elsewhere its weight is 0.
_GK21_HALF = (
    (0.9956571630258081, 0.011694638867371874, 0.011694638867371874),
    (0.9739065285171717, 0.032558162307964725, -0.03411318200072341),
    (0.9301574913557082, 0.054755896574351995, 0.054755896574351995),
    (0.8650633666889845, 0.07503967481091996, -0.07441167433966064),
    (0.7808177265864169, 0.0931254545836976, 0.0931254545836976),
    (0.6794095682990244, 0.10938715880229764, -0.1096992037136844),
    (0.5627571346686047, 0.12349197626206584, 0.12349197626206584),
    (0.4333953941292472, 0.13470921731147334, -0.13455750199852304),
    (0.2943928627014602, 0.14277593857706009, 0.14277593857706009),
    (0.14887433898163122, 0.14773910490133849, -0.14778511981341438),
    (0.0, 0.1494455540029169, 0.1494455540029169),
)
# The rows mirrored: the nodes, Kronrod weights and Kronrod-minus-Gauss weights
# over all 21 nodes in increasing order.
_GK21_TABLES = tuple(zip(*[(-x, kronrod, difference) for x, kronrod, difference in _GK21_HALF[:-1]],
                         *reversed(_GK21_HALF)))
# Narrower pieces, relative to their position, are not bisected: the outer
# nodes of their halves would round onto the ends (u = 1 maps to x = +inf).
_NARROWEST = 1e3 * math.ulp(1.0)
# The most intervals an integration may bisect its range into.
_MAX_INTERVALS = 2000

# ErlangMixture's series (_Series): blocks of at most _BLOCK lattice steps whose
# coefficients span at most a factor _SPREAD_RATIO, arrays in chunks of points whose
# buffer stays within _CHUNK_BYTES (32 steps and 4 MB ran fastest on the benchmark
# grid among 16 to 128 steps and 1 to 4 MB).
_BLOCK = 32
_SPREAD_RATIO = math.exp(600.0)
_CHUNK_BYTES = 4 << 20
_DOUBLE_MIN = sys.float_info.min


def check_positive(value: float, name: str) -> float:
    """value as a float if it is a positive finite real (not a bool); else ValueError."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def check_count(value: int, name: str, low: int) -> int:
    """value as an int: TypeError unless an integer (numpy ones too; not a bool),
    ValueError below low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def ln_factorial(n: int) -> float:
    """Natural log of n! (exact table through 20!, lgamma beyond)."""
    if n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    if n <= _EXACT_LIMIT:
        return _LN_FACTORIALS[n]
    return math.lgamma(n + 1.0)


def ln_binomial(n: int, r: int) -> float:
    """Natural log of the binomial coefficient C(n, r)."""
    if n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    if r < 0 or r > n:
        raise ValueError(f"r must satisfy 0 <= r <= n, got r={r}, n={n}")
    return ln_factorial(n) - ln_factorial(r) - ln_factorial(n - r)


def _pointwise(x: float | np.ndarray, plan, log: bool = False) -> float | np.ndarray:
    """The one frame of every density and tail: e^series, or where log the
    series, at most plan.cap, inside 0 < x < plan.bound, and plan.edges
    (plan.log_edges where log) = (value at x < 0, at x == 0, at and past the
    bound and +inf) elsewhere; NaN at NaN.  A Python int or float (np.float64
    included; an exact float is tested first, and passed on as it is) takes
    plan.at inside, as a float and without numpy, and its edge at once (an int
    past double range, the far edge); any other input, 0-d arrays included,
    is taken flat, its points inside by _inside_values.  A Python float for a
    scalar or 0-d input, an array of x's shape otherwise."""
    if x.__class__ is float or isinstance(x, (int, float)):
        if 0.0 < x < plan.bound:
            if x.__class__ is not float:
                try:
                    x = float(x)
                except OverflowError:  # an int past double range
                    return plan.log_edges[2] if log else plan.edges[2]
            value = plan.at(x)
            if value > plan.cap:  # faster than min()
                value = plan.cap
            return value if log else math.exp(value)
        below, zero, far = plan.log_edges if log else plan.edges
        return below if x < 0.0 else zero if x == 0.0 else far if x > 0.0 else math.nan
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    # two reductions find the common case; NaN fails both
    if flat.size and np.minimum.reduce(flat) > 0.0 and np.maximum.reduce(flat) < plan.bound:
        out = _inside_values(flat, plan, log)
    else:
        inside = (flat > 0.0) & (flat < plan.bound)
        out = np.empty_like(flat)
        if inside.any():
            out[inside] = _inside_values(flat[inside], plan, log)
        # the edges are filled on the few points outside, where NaN fails all three tests
        rest = ~inside
        edge = flat[rest]
        below, zero, far = plan.log_edges if log else plan.edges
        out[rest] = np.where(
            edge < 0.0, below, np.where(edge == 0.0, zero, np.where(edge > 0.0, far, math.nan))
        )
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _inside_values(points: np.ndarray, plan, log: bool) -> np.ndarray:
    """plan.log_series at flat points inside (not written into), capped, e^ unless log."""
    series = plan.log_series(points)
    np.minimum(series, plan.cap, out=series)
    return series if log else np.exp(series, out=series)


def _finite_below(rate: float) -> float:
    """The bound below which rate * t is finite for every float t (t < max/rate
    exactly).  At and past it rate * t overflows, or nearly does, and the
    densities and survival functions with that rate are 0 there.  For
    rate <= 1 every finite t qualifies, and max/rate would itself overflow."""
    return sys.float_info.max / rate if rate > 1.0 else math.inf


def _ln_poisson_scale(r: int) -> float:
    """ln r! - r ln r + r (0 at r = 0), the log of r! e^r / r^r, from the
    exact ratio r!/r^r for r <= 15 and from Stirling's series past it."""
    if r <= 15:
        return math.log(math.factorial(r) / r**r) + r if r else 0.0
    inverse = 1.0 / r
    square = inverse * inverse
    series = 1/12 - square * (1/360 - square * (1/1260 - square * (1/1680 - square / 1188)))
    return 0.5 * math.log(2.0 * math.pi * r) + inverse * series


class _Series:
    """ln(e^l sum_i w_i y^{p_i} e^{-y} / p_i!) at y = rate x > 0, for weights
    w_i > 0 on increasing powers p_i of a lattice of step g and a log factor
    l: the one plan of ErlangMixture's density and survival series, in Python
    floats, built with the mixture's rate, and all that _pointwise takes of
    it: bound, _finite_below(rate), where the series range ends; cap, the
    most the series may be (0 for a tail); edges and log_edges, the values
    and their logs at x < 0, at x == 0 and at and past the bound; at and
    log_series, its evaluators for a scalar and for arrays (on a numpy view
    built at the first array call).

    The terms are cut into blocks of at most _BLOCK lattice steps whose
    coefficients span at most a factor _SPREAD_RATIO.  In v = min(y^g, y^-g)
    a block is its first term times sum c_i v^i for y <= 1, and its last term
    times a polynomial in v past 1, with c the ratios of its terms to that one
    at y = 1, running products of weight ratios and 1/k.  A term
    e^l w y^r e^{-y} / r! is taken as e^{K - bd0}, with the constant
    K = l + ln w - ln(r! e^r / r^r) and Loader's deviance bd0 = r f(y/r),
    f(u) = u - 1 - ln u (y itself at r = 0): neither has a large part to
    cancel where y is near r, where the terms that matter lie, so the sum
    keeps a few ulp where e^{-y} or y^r alone underflows or overflows (Loader,
    "Fast and accurate computation of binomial probabilities", 2000).  The
    evaluators differ in a block's sum (Horner's rule in at, powers of v in
    log_series) and in libm against numpy: on 5000-point grids of every
    member's sums they differ by up to 256 ulp of the log, 2.3e-13 in it
    (at theta = 1e5; 1.8e-12 where it passes 1e3).  Each side is one loop
    over its blocks, one block for every sum of n <= 5 at moderate theta.
    """

    def __init__(self, weights: Sequence[float], powers: Sequence[int], g: int,
                 log_factor: float, rate: float, cap: float, edges: tuple, log_edges: tuple):
        self.g, self.rate, self.cap = g, rate, cap
        self.bound, self.edges, self.log_edges = _finite_below(rate), edges, log_edges
        # each term over the one before at y = 1: a weight ratio times p!/q!
        # (0 past 400 steps, where p!/q! < e^-1300 ends the block anyway; w
        # meets p!/q! before v, so that no inf meets a 0)
        if powers[-1] - powers[0] == len(weights) - 1:
            ratios = map(operator.truediv, weights[1:], weights)
            steps = list(map(operator.truediv, ratios, powers[1:]))
        else:
            steps = [w * (1 / math.prod(range(p + 1, q + 1))) / v if q - p < 400 else 0.0
                     for w, v, p, q in zip(weights[1:], weights, powers, powers[1:])]
        # per side (y <= 1, y > 1), per block: r, 1/r, K and the coefficients of
        # v's powers, highest first, for Horner's rule
        self._sides = [], []
        i = 0
        while i < len(weights):
            end = bisect.bisect_left(powers, powers[i] + g * _BLOCK, i)
            ratios = list(accumulate(steps[i:end - 1], operator.mul, initial=1.0))
            if not max(ratios) <= min(ratios) * _SPREAD_RATIO:  # end before the term past it
                low = high = 1.0
                for end, ratio in enumerate(ratios, i):
                    low, high = min(low, ratio), max(high, ratio)
                    if not high <= low * _SPREAD_RATIO:
                        break
                ratios = ratios[:end - i]
            if powers[end - 1] - powers[i] != g * (end - 1 - i):  # gaps: zeros between
                row = [0.0] * ((powers[end - 1] - powers[i]) // g + 1)
                for p, ratio in zip(powers[i:end], ratios):
                    row[(p - powers[i]) // g] = ratio
                ratios = row
            for side, at, row in zip(self._sides, (i, end - 1),
                                     (ratios[::-1], [c / ratios[-1] for c in ratios])):
                r = powers[at]
                constant = log_factor + math.log(weights[at]) - _ln_poisson_scale(r)
                side.append((r, 1.0 / max(r, 1), constant, row))
            i = end

    def at(self, x: float) -> float:
        """The series at one float x > 0 in Python floats: Horner's rule per
        block, then one running log-sum-exp across the blocks, which the
        first block starts at its offset and sum (a side of one block
        returns that offset plus the log of its sum)."""
        y = self.rate * x
        high = y > 1.0
        v = y ** (-self.g if high else self.g)
        log, top = math.log, None
        for r, inverse, constant, coefficients in self._sides[high]:
            acc = 0.0
            for c in coefficients:
                acc = acc * v + c
            if not r:
                offset = constant - y
            elif y >= _DOUBLE_MIN:
                u = y * inverse
                offset = constant - r * (u - 1.0 - log(u))
            else:  # y subnormal or 0: ln u = ln rate + ln x - ln r
                ln_u = log(self.rate) + log(x) - log(r)
                offset = constant - r * (y * inverse - 1.0 - ln_u)
            if top is None:
                top, total = offset, acc
            elif offset > top:  # rescale the blocks so far
                total = total * math.exp(top - offset) + acc
                top = offset
            else:
                total += acc * math.exp(offset - top)
        return top + log(total)

    @cached_property
    def _arrays(self) -> list[tuple[np.ndarray, ...]]:
        # per side: r, 1/r, K and ln r as columns, and the rows mapping the
        # powers of v (at least 1 and v) to the block sums
        width = max(2, *(len(block[3]) for block in self._sides[0]))
        arrays = []
        for side in self._sides:
            columns = np.array([(r, inverse, constant, math.log(max(r, 1)))
                                for r, inverse, constant, _ in side]).T[:, :, None].copy()
            rows = [c[::-1] + [0.0] * (width - len(c)) for *_, c in side]
            arrays.append((*columns, np.array(rows)))
        return arrays

    def log_series(self, points: np.ndarray) -> np.ndarray:
        """The series at a flat array of points, in chunks whose working buffer
        stays within _CHUNK_BYTES.  Each side of y = 1 takes its own blocks: a
        chunk's majority side runs on all its points, those of the other side
        (set to y = 1 there) then run apart."""
        rows, width = self._arrays[0][4].shape
        size = max(1, _CHUNK_BYTES // (8 * (2 * rows + width)))
        out = np.empty_like(points)
        for start in range(0, points.size, size):
            x = points[start:start + size]
            y = x * self.rate
            above = y > 1.0
            major = bool(2 * np.count_nonzero(above) >= y.size)
            others = np.flatnonzero(above != major)
            if others.size:
                y_others, y[others] = y[others], 1.0
            part = out[start:start + size]
            self._log_side(x, y, major, part)
            if others.size:
                part[others] = self._log_side(x[others], y_others, not major)
        return out

    def _log_side(self, x: np.ndarray, y: np.ndarray, high: bool,
                  out: np.ndarray | None = None) -> np.ndarray:
        r, inverse, constant, ln_r, sums = self._arrays[high]
        rows, width = sums.shape
        # the block offsets, scratch rows for ln u and then the block sums, and
        # the powers of v
        work = np.empty((2 * rows + width, x.size))
        offsets, scratch, powers = work[:rows], work[rows:2 * rows], work[2 * rows:]
        u = np.multiply(inverse, y, out=offsets)
        tiny = y < _DOUBLE_MIN
        if tiny.any():  # where y is subnormal or 0, ln u = ln rate + ln x - ln r
            np.log(np.maximum(u, _DOUBLE_MIN, out=u), out=scratch)
            np.copyto(scratch, np.log(x) + math.log(self.rate) - ln_r, where=tiny)
        else:
            np.log(u, out=scratch)
        u -= 1.0
        u -= scratch
        u *= r
        np.subtract(constant, u, out=offsets)
        if not r[0, 0]:  # a first block at y^0: its offset is K - y
            np.subtract(constant[0], y, out=offsets[0])
        # v = y^-g or y^g, and its powers: each run of them the run below times
        # the next power of two, so each takes about 2 log2(i) roundings
        powers[0] = 1.0
        if high:
            np.divide(1.0, y, out=powers[1])
        else:
            powers[1] = y
        if self.g > 1:
            np.power(powers[1], self.g, out=powers[1])
        step = 2
        while step < width:
            np.square(powers[step // 2], out=powers[step])
            np.multiply(powers[1:min(step, width - step)], powers[step],
                        out=powers[step + 1:2 * step])
            step *= 2
        block_sums = np.dot(sums, powers, out=scratch)
        if rows == 1:
            return np.add(offsets[0], np.log(block_sums[0], out=block_sums[0]), out=out)
        top = offsets.max(axis=0)
        offsets -= top
        # a block below e^-708 of the largest weighs under 1e-45 of the sum: the
        # floor is exact, and keeps np.exp off subnormal results, which cost 100x
        np.maximum(offsets, -708.0, out=offsets)
        total = np.einsum("ij,ij->j", block_sums, np.exp(offsets, out=offsets))
        return np.add(top, np.log(total, out=total), out=out)


def _moment_from_log(log_moment: float, m: int) -> float:
    """e^log_moment, a moment of order m: OverflowError past the largest double,
    ArithmeticError below the smallest normal one."""
    if log_moment > _LN_DOUBLE_MAX:
        raise OverflowError(
            f"moment of order m={m} is about e^{log_moment:.6g}, beyond double range"
        )
    if log_moment < _LN_DOUBLE_MIN:
        raise ArithmeticError(
            f"moment of order m={m} is about e^{log_moment:.6g}, below double range"
        )
    return math.exp(log_moment)


def _rounded(top: int, bottom: int, what: str) -> float:
    """top / bottom rounded once: OverflowError, naming what, past double range."""
    try:
        return top / bottom
    except OverflowError:
        log_value = math.log(top) - math.log(bottom)
        raise OverflowError(f"{what} is about e^{log_value:.6g}, beyond double range") from None


def logsumexp(log_terms: Sequence[float]) -> float:
    """Log of a sum of positive terms given by their logs, via max-shifting.

    Stable for log magnitudes anywhere in the double range; the shifted
    exponentials are accumulated exactly with math.fsum.
    """
    terms = [float(v) for v in log_terms]
    if not terms:
        raise ValueError("at least one term is required")
    peak = max(terms)
    if math.isinf(peak):
        # all -inf (sum of nothing) or a genuinely infinite term
        return peak
    return peak + math.log(math.fsum(math.exp(v - peak) for v in terms))


class _Record:
    """Base of the package's frozen value classes (see the module docstring)."""

    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = (*getattr(cls, "_fields", ()), *cls.__dict__.get("__annotations__", ()))
        keys = tuple(f for f in cls._fields if f not in cls._uncompared)
        # _key's tuple of the compared values from __dict__ (itemgetter of one
        # key gives a bare value)
        cls._key_of = staticmethod(operator.itemgetter(*keys) if len(keys) > 1
                                   else lambda values: tuple([values[f] for f in keys]))

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """One value per field, defaults filled in; TypeError on a bad argument."""
        given = dict(zip(cls._fields, args))
        values = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)} | given | kwargs
        wrong = (values.keys() ^ set(cls._fields)) | (given.keys() & kwargs.keys())
        if wrong or len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() got too many, repeated, unknown or missing "
                            f"arguments {sorted(wrong)}; its fields are {cls._fields}")
        return [values[f] for f in cls._fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self._key_of(self.__dict__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ErlangMixture(_Record):
    """Finite mixture of Erlang(shape, rate) components with a shared rate.

    Weights are nonnegative and sum to 1 (within 1e-10); a component whose
    weight is 0, for instance one that underflowed, contributes nothing and is
    skipped.  Shapes are strictly increasing positive integers.
    """

    rate: float
    weights: tuple[float, ...]
    shapes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", check_positive(self.rate, "rate"))
        if len(self.weights) != len(self.shapes) or not self.weights:
            raise ValueError("weights and shapes must be nonempty and of equal length")
        others = set(map(type, self.shapes)) - {int}  # each other type checked once
        if others and (bool in others or not all(issubclass(t, numbers.Integral) for t in others)):
            raise TypeError(f"shapes must be integers, got {self.shapes!r}")
        if not all(w >= 0 for w in self.weights):
            raise ValueError("weights must be nonnegative numbers")
        if abs(math.fsum(self.weights) - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")
        if min(self.shapes) < 1:
            raise ValueError("shapes must be positive integers")
        if any(map(operator.le, self.shapes[1:], self.shapes)):
            raise ValueError("shapes must be strictly increasing")

    @property
    def components(self) -> tuple[tuple[float, int], ...]:
        """(weight, shape) pairs in increasing shape order."""
        return tuple(zip(self.weights, self.shapes))

    @cached_property
    def _density_plan(self) -> _Series:
        # a component's density is rate w y^(s-1) e^{-y} / (s-1)!, y = rate x:
        # the series of the pairs (w, s-1) for w > 0 on the lattice of their
        # gaps' gcd, with no cap (at 0 only shape 1 has density, exactly w * rate)
        ln_rate = math.log(self.rate)
        weights, powers = zip(*((w, s - 1) for w, s in self.components if w > 0.0))
        g = math.gcd(*(p - powers[0] for p in powers)) or 1
        w = self.weights[0] if self.shapes[0] == 1 else 0.0
        ln_zero = math.log(w) + ln_rate if w > 0.0 else -math.inf
        return _Series(weights, powers, g, ln_rate, self.rate, math.inf,
                       (0.0, w * self.rate, 0.0), (-math.inf, ln_zero, -math.inf))

    @cached_property
    def _survival_plan(self) -> _Series:
        # survival is e^{-y} sum_{j<J} W_j y^j / j!, y = rate t, with W_j the
        # weight on shapes > j and J the largest shape of positive weight
        tail: list[float] = []  # W_{J-1}, ..., W_0 from one descending pass
        above = 0.0
        top = 0
        for w, s in zip(reversed(self.weights), reversed(self.shapes)):
            if above > 0.0:
                tail += [above] * (top - s)  # W_j for s <= j < top
            above += w
            top = s
        tail += [above] * top
        tail.reverse()
        # every term is nonnegative; only the weights' 1e-10 slack can pass 1,
        # hence the cap; exactly 1 for t <= 0 (the series at t = 0 would give
        # the float sum of the weights, 1 +/- ulp)
        return _Series(tail, range(len(tail)), 1, 0.0, self.rate, 0.0,
                       (1.0, 1.0, 0.0), (0.0, 0.0, -math.inf))

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Mixture density: zero for x < 0, at +inf and where rate*x overflows,
        NaN at NaN."""
        return _pointwise(x, self._density_plan)

    def log_pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Natural log of the density, finite where the density underflows:
        -inf where it is zero, NaN at NaN."""
        return _pointwise(x, self._density_plan, log=True)

    def survival(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(mixture > t): 1 for t <= 0, 0 at +inf and where rate*t overflows,
        NaN at NaN.

        The weighted Erlang tails sum to one series in y = rate t, taken in
        log space like the density, so it holds where e^{-y} underflows.
        """
        return _pointwise(t, self._survival_plan)

    def cdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(mixture <= t), the exact complement of survival."""
        return 1.0 - self.survival(t)

    def moment(self, m: int) -> float:
        """Raw moment: sum_r w_r * (s_r+m-1)! / ((s_r-1)! * rate^m), each ratio's log
        the fsum of the m logs ln(s_r + i), not a difference of two lgammas;
        the first is mean(), exactly."""
        m = check_count(m, "m", 0)
        if m == 1:
            return self.mean()
        terms = [
            math.log(w) + math.fsum(map(math.log, range(s, s + m)))
            for w, s in self.components
            if w > 0.0
        ]
        return _moment_from_log(logsumexp(terms) - m * math.log(self.rate), m)

    def mean(self) -> float:
        """c / rate with c = sum_r w_r s_r, so one component's mean is exactly
        s / rate; never 0 (c >= 1 - 1e-10, rate finite), so a subnormal mean is
        returned; a shape, or c / rate, past double range goes to _exact(1)."""
        try:
            mean = math.fsum(w * s for w, s in self.components) / self.rate
        except OverflowError:  # a shape past double range
            mean = math.inf
        return mean if mean < math.inf else self._exact(1)

    def variance(self) -> float:
        """Law of total variance, sum_r w_r (s_r + (s_r - c)^2) / rate^2 with
        c = sum_r w_r s_r, which does not cancel as moment(2) - mean^2 does at
        large shapes; raises as moment(2) does outside double range."""
        try:
            centre = math.fsum(w * s for w, s in self.components)
            spread = math.fsum(w * (s + (s - centre) ** 2) for w, s in self.components)
        except OverflowError:  # a shape or a square past double range
            return self._exact(2)
        return _moment_from_log(math.log(spread) - 2.0 * math.log(self.rate), 2)

    def _exact(self, m: int) -> float:
        """mean() (m = 1) or variance() (m = 2) in rationals, rounded once."""
        from fractions import Fraction

        parts = [(Fraction(w), s) for w, s in self.components]
        centre = sum(w * s for w, s in parts)
        exact = centre if m == 1 else sum(w * (s + (s - centre) ** 2) for w, s in parts)
        exact /= Fraction(self.rate) ** m
        if m == 2 and exact < _DOUBLE_MIN:  # raises as moment(2) does below double range
            return _moment_from_log(math.log(exact.numerator) - math.log(exact.denominator), 2)
        return _rounded(*exact.as_integer_ratio(), f"moment of order m={m}")


class QuadratureResult(_Record):
    """Outcome of an adaptive quadrature run.

    error_estimate is scaled by max(1, |value|), so it is absolute for
    order-one integrals and relative for large ones; on success it is at most
    the requested tolerance.
    """

    value: float
    error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Raised when quadrature cannot meet the tolerance; carries the best estimate."""

    def __init__(self, message: str, best: QuadratureResult):
        super().__init__(message)
        self.best = best


def integrate(
    f: Callable[[list[float]], Sequence[float]],
    lower: float,
    upper: float,
    tol: float = 1e-10,
    *,
    scale: float = 1.0,
) -> QuadratureResult:
    """Adaptive quadrature of f over [lower, upper], upper may be +inf.

    Global adaptive 21-point Gauss-Kronrod quadrature (QUADPACK's qk21 rule
    and error estimate, without qags' extrapolation): the interval with the
    largest error estimate is bisected until the summed estimate is at most
    max(tol, 50 eps) * |integral|, with at most _MAX_INTERVALS intervals.  Infinite
    upper limits are mapped to [0, 1) through x = lower + scale*u/(1-u);
    pass `scale` near the width of the integrand's support so the initial
    rule sees the mass.  Raises QuadratureError carrying the best estimate
    when the budget runs out, or the worst interval is too narrow to bisect,
    with the error estimate, measured against max(1, |integral|), above tol,
    or when the value or the estimate is not finite (tolerances much below
    1e-13 are generally unattainable in double precision).  f is called once
    per rule, on its 21 nodes as a list of floats, and returns one number per
    node, as a sequence or a numpy array (ValueError otherwise).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if not math.isfinite(lower):
        raise ValueError("lower bound must be finite")
    if not upper >= lower:
        raise ValueError(f"upper bound {upper} is NaN or below lower bound {lower}")
    if upper == lower:
        return QuadratureResult(0.0, 0.0, 0)

    def checked(x: list[float]) -> Sequence[float]:
        out = f(x)
        if hasattr(out, "shape"):  # a numpy array or scalar: its shape, and floats
            shape, out = out.shape, out.tolist()
        else:
            shape = (len(out),) if hasattr(out, "__len__") else ()
        if shape != (len(x),):
            raise ValueError(f"integrand must return one value per node: called on "
                             f"{len(x)} nodes, it returned shape {shape}")
        return out

    if math.isinf(upper):
        def target(u: list[float], _a=lower, _s=scale) -> list[float]:
            w = [1.0 - v for v in u]
            values = checked([_a + _s * v / d for v, d in zip(u, w)])
            return [y * _s / (d * d) for y, d in zip(values, w)]

        a, b = 0.0, 1.0
    else:
        target, a, b = checked, lower, upper

    # a heap of (-error, left, right, value) pieces; bisect the worst until the
    # running sums meet the tolerance (a NaN sum stops the loop, and raises below)
    epsrel = max(tol, _EPSREL_FLOOR)
    value, error = _gk21(target, a, b)
    pieces = [(-error, a, b, value)]
    narrow = False
    while error > epsrel * abs(value) and len(pieces) < _MAX_INTERVALS:
        worst, left, right, piece = pieces[0]
        narrow = right - left < _NARROWEST * max(abs(left), abs(right))
        if narrow:
            break
        heapq.heappop(pieces)
        mid = 0.5 * left + 0.5 * right  # halves first: left + right may overflow
        value_left, error_left = _gk21(target, left, mid)
        value_right, error_right = _gk21(target, mid, right)
        heapq.heappush(pieces, (-error_left, left, mid, value_left))
        heapq.heappush(pieces, (-error_right, mid, right, value_right))
        value += value_left + value_right - piece
        error += error_left + error_right + worst

    value = _fsum(p[3] for p in pieces)
    scaled_err = _fsum(-p[0] for p in pieces) / max(1.0, abs(value))
    result = QuadratureResult(value, scaled_err, 21 * (2 * len(pieces) - 1))
    if not (math.isfinite(value) and math.isfinite(scaled_err)):
        raise QuadratureError(
            f"quadrature did not converge: value {value!r} or error estimate "
            f"{scaled_err!r} is not finite", result
        )
    if scaled_err > tol:
        raise QuadratureError(
            f"quadrature did not converge: error estimate {scaled_err:.3g} exceeds "
            f"tolerance {tol:.3g} with {len(pieces)} of at most {_MAX_INTERVALS} intervals"
            + ("; the worst interval is too narrow to bisect" if narrow else ""),
            result,
        )
    return result


def _fsum(terms: Iterable[float]) -> float:
    """math.fsum, but NaN where it raises (inf - inf, a sum past double range)."""
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return math.nan


def _gk21(f: Callable[[list[float]], Sequence[float]], a: float, b: float) -> tuple[float, float]:
    """QUADPACK's qk21 on [a, b]: the 21-point Kronrod value and its error
    estimate, resasc * min(1, (200 |K21 - G10| / resasc)^1.5), floored at
    50 eps * resabs (resabs the rule applied to |f|, resasc to |f - mean|)."""
    nodes, kronrod_weights, difference_weights = _GK21_TABLES
    centre, half = 0.5 * a + 0.5 * b, 0.5 * b - 0.5 * a  # finite for any finite a, b
    values = f([centre + half * x for x in nodes])
    kronrod = _fsum(map(operator.mul, kronrod_weights, values))
    mean = 0.5 * kronrod
    resabs = _fsum(map(operator.mul, kronrod_weights, map(abs, values))) * half
    resasc = _fsum(map(operator.mul, kronrod_weights, [abs(v - mean) for v in values])) * half
    error = abs(_fsum(map(operator.mul, difference_weights, values)) * half)
    if resasc != 0.0 and error != 0.0:
        error = resasc * min(1.0, (200.0 * error / resasc) ** 1.5)
    return kronrod * half, max(error, _EPSREL_FLOOR * resabs)
