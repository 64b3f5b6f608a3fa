"""Numerically stable primitives shared by the distribution, sum, and reliability code.

Everything factorial-heavy is assembled in log space: densities and survival
series in this package multiply binomial coefficients, factorials, and powers
that individually overflow double precision long before their combination
does.  The helpers here keep those combinations finite.

ErlangMixture is the one evaluator of the Erlang series: every family member,
n-fold sum, and exponential standby system is a finite Erlang mixture with one
shared rate, and takes its density, tails, and moments here (DistSpec.pdf
too; the member's closed-form density is kept apart, as validation's
convolution oracle at n = 1).  Its density and its survival are one kind of
series in y = rate x, sum_i w_i y^{p_i} e^{-y} / p_i!: the weights on the
powers s-1 (times rate), and the tail weights W_j, the weight on shapes above
j, on the powers j.  One plan, _Series, serves both, with one evaluator for
a scalar and one for arrays, in log space.
Every density and tail in the package, the Lindley double series included,
is evaluated in one frame, _pointwise: it sums a series only where
0 < x < _finite_below(rate) and gives x < 0, x == 0, x at or past that bound,
and NaN their edge values (to a Python scalar without numpy).  The parameter
checks check_positive and check_count live here too, so that ErlangMixture
can use them (family, which re-exports them, imports this module).

numpy is loaded on first use.  This module makes the package's one np: numpy
itself if it is already imported, else a module that importlib.util.LazyLoader
registers as sys.modules["numpy"] and that runs numpy's __init__ on its first
attribute access; the other modules take np from here.  So `lindsum mttf`,
`moments` (without --verify), `pdf`, `reliability`, `--help` and usage errors
never load numpy: their numbers are pure math, and pdf and reliability take
each row of their tables from a Python float, through the scalar paths of
ErlangMixture.pdf and survival and the scalar edges of _pointwise, as do a
member's and a sum's density and tails at a Python float.  `sample`,
`moments --verify` and `verify` do load it.  A later `import numpy` anywhere
completes the load.  One caveat: in Python 3.10.13, 3.11.7 and 3.12.1
(checked in the source of importlib.util._LazyModule) the load takes no lock
and switches the module's class before numpy's __init__ runs, so a second
thread that first touches np during that load can see a half-built numpy;
3.13.0 holds a lock through the load.  Import numpy before lindsum to rule
this out.
"""

from __future__ import annotations

import bisect
import heapq
import importlib.util
import math
import numbers
import operator
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache, cached_property, partial
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


def _lazy_numpy():
    """numpy as imported, else a lazily loaded numpy registered in sys.modules."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

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

# The 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk21), as rows of
# (node x >= 0, Kronrod weight, Kronrod minus Gauss weight), outermost first.
# The 10-point Gauss rule uses the 2nd, 4th, ..., 10th nodes; elsewhere its
# weight is 0.  Mirrored by _gk21_tables into aligned arrays over all 21 nodes.
_GK21_HALF = (
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192,
     0.011694638867371874278064396062192),
    (0.973906528517171720077964012084452, 0.0325581623079647274788189724593899,
     -0.0341131820007234101147498374339421),
    (0.930157491355708226001207180059508, 0.0547558965743519960313813002445802,
     0.0547558965743519960313813002445802),
    (0.865063366688984510732096688423493, 0.0750396748109199527670431409161897,
     -0.0744116743396606403787331987415073),
    (0.780817726586416897063717578345043, 0.093125454583697605535065465083366,
     0.093125454583697605535065465083366),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     -0.109699203713684402096324343902358),
    (0.562757134668604683339000099272694, 0.123491976262065851077958109831074,
     0.123491976262065851077958109831074),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     -0.134557501998523029163172919797762),
    (0.294392862701460198131126603103865, 0.142775938577060080797094273138717,
     0.142775938577060080797094273138717),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     -0.147785119813414378799051478679270),
    (0.0, 0.149445554002916905664936468389821, 0.149445554002916905664936468389821),
)
# Narrower pieces, relative to their position, are not bisected: the outer
# nodes of their halves would round onto the ends (u = 1 maps to x = +inf).
_NARROWEST = 1e3 * math.ulp(1.0)

# ErlangMixture's series (_Series): blocks of at most _BLOCK lattice steps whose
# coefficients span at most a factor _SPREAD_RATIO; an array of at most
# _FEW_TERMS (term, point) pairs takes the scalar evaluator at each point,
# larger ones the array evaluator, in chunks of points whose working buffer
# stays within _CHUNK_BYTES (32 steps and 4 MB ran fastest on the benchmark grid
# among 16 to 128 steps and 1 to 4 MB).
_FEW_TERMS = 2048
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


def _pointwise(
    x: float | np.ndarray, rate: float, series: Callable[[np.ndarray], np.ndarray], edges: tuple
) -> float | np.ndarray:
    """The one frame of every density and tail with this rate: series on the flat
    points 0 < x < _finite_below(rate), which it must not write into; edges =
    (value at x < 0, at x == 0, at and past that bound and +inf) elsewhere; NaN
    at NaN.  A Python float for 0-d input, an array of x's shape otherwise.  A
    Python int or float (the _math_scalar test) outside the series range gets
    its edge value at once, without numpy."""
    if isinstance(x, (int, float)) and not 0.0 < x < _finite_below(rate):
        below, zero, far = edges
        return below if x < 0.0 else zero if x == 0.0 else far if x > 0.0 else math.nan
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    bound = _finite_below(rate)  # two reductions find the common case; NaN fails both
    if flat.size and np.minimum.reduce(flat) > 0.0 and np.maximum.reduce(flat) < bound:
        out = series(flat)
    else:
        inside = (flat > 0.0) & (flat < bound)
        out = np.empty_like(flat)
        if inside.any():
            out[inside] = series(flat[inside])
        # the edges are filled on the few points outside, where NaN fails all three tests
        rest = ~inside
        edge = flat[rest]
        below, zero, far = edges
        out[rest] = np.where(
            edge < 0.0, below, np.where(edge == 0.0, zero, np.where(edge > 0.0, far, math.nan))
        )
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _math_scalar(x: object, rate: float) -> bool:
    """True for a Python int or float (np.float64 included) where _pointwise
    would call the series, tested as one chained comparison: such arguments
    take the math-module paths of ErlangMixture.pdf and survival; every other
    input, 0-d arrays included, takes _pointwise."""
    return isinstance(x, (int, float)) and 0.0 < x < _finite_below(rate)


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
    floats.  at and log_series are its evaluators for a scalar and for arrays
    (on a numpy view built at the first array call); value and values give
    e^series, at most e^cap (1 for a tail).

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
    two evaluators take each block's log the same way, in the same order, so
    they agree to a few ulp.
    """

    def __init__(self, weights: Sequence[float], powers: Sequence[int], g: int,
                 log_factor: float, cap: float = math.inf):
        self.terms, self.g, self.cap = len(weights), g, cap
        # each term over the one before at y = 1: a weight ratio times p!/q!
        # (0 past 400 steps, where p!/q! < e^-1300 ends the block anyway; w
        # meets p!/q! before v, so that no inf meets a 0)
        if powers[-1] - powers[0] == self.terms - 1:
            ratios = map(operator.truediv, weights[1:], weights)
            steps = list(map(operator.truediv, ratios, powers[1:]))
        else:
            steps = [w * (1 / math.prod(range(p + 1, q + 1))) / v if q - p < 400 else 0.0
                     for w, v, p, q in zip(weights[1:], weights, powers, powers[1:])]
        # per side (y <= 1, y > 1), per block: r, 1/r, K and the coefficients of
        # v's powers, highest first, for Horner's rule
        self._sides = [], []
        i = 0
        while i < self.terms:
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

    def value(self, x: float, rate: float) -> float:
        """e^series at one x > 0, at most e^cap."""
        return math.exp(min(self.at(x, rate), self.cap))

    def values(self, points: np.ndarray, rate: float, log: bool = False) -> np.ndarray:
        """e^series (the series if log) at a flat array of points: on at most
        _FEW_TERMS (term, point) pairs the scalar evaluator at each point, bit
        for bit, else the array evaluator."""
        if self.terms * points.size <= _FEW_TERMS:
            at, cap = self.at, self.cap
            series = [at(x, rate) for x in points.tolist()]
            return np.array(series if log else [math.exp(min(v, cap)) for v in series])
        series = self.log_series(points, rate)
        return series if log else np.exp(np.minimum(series, self.cap, out=series), out=series)

    def at(self, x: float, rate: float) -> float:
        """The series at one x > 0 in Python floats: Horner's rule per block,
        then a log-sum-exp across the blocks."""
        x = float(x)
        y = rate * x
        high = y > 1.0
        v = y ** (-self.g if high else self.g)
        top, total = -math.inf, 0.0
        for r, inverse, constant, coefficients in self._sides[high]:
            acc = 0.0
            for c in coefficients:
                acc = acc * v + c
            if not r:
                offset = constant - y
            elif y >= _DOUBLE_MIN:
                u = y * inverse
                offset = constant - r * (u - 1.0 - math.log(u))
            else:  # y subnormal or 0: ln u = ln rate + ln x - ln r
                ln_u = math.log(rate) + math.log(x) - math.log(r)
                offset = constant - r * (y * inverse - 1.0 - ln_u)
            if offset > top:  # rescale the blocks so far (0 before the first)
                total = total * math.exp(top - offset) + acc
                top = offset
            else:
                total += acc * math.exp(offset - top)
        return top + math.log(total)

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

    def log_series(self, points: np.ndarray, rate: float) -> np.ndarray:
        """The series at a flat array of points, in chunks whose working buffer
        stays within _CHUNK_BYTES.  Each side of y = 1 takes its own blocks: a
        chunk's majority side runs on all its points, those of the other side
        (set to y = 1 there) then run apart."""
        rows, width = self._arrays[0][4].shape
        size = max(1, _CHUNK_BYTES // (8 * (2 * rows + width)))
        out = np.empty_like(points)
        for start in range(0, points.size, size):
            x = points[start:start + size]
            y = x * rate
            above = y > 1.0
            major = bool(2 * np.count_nonzero(above) >= y.size)
            others = np.flatnonzero(above != major)
            if others.size:
                y_others, y[others] = y[others], 1.0
            part = out[start:start + size]
            self._log_side(x, y, rate, major, part)
            if others.size:
                part[others] = self._log_side(x[others], y_others, rate, not major)
        return out

    def _log_side(self, x: np.ndarray, y: np.ndarray, rate: float, high: bool,
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
            np.copyto(scratch, np.log(x) + math.log(rate) - ln_r, where=tiny)
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


@dataclass(frozen=True)
class ErlangMixture:
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
    def _density_plan(self) -> tuple[_Series, tuple, tuple]:
        # a component's density is rate w y^(s-1) e^{-y} / (s-1)!, y = rate x:
        # the series of the pairs (w, s-1) for w > 0 on the lattice of their
        # gaps' gcd, then the edges of pdf and of log_pdf (at 0 only shape 1 has
        # density, exactly w * rate)
        ln_rate = math.log(self.rate)
        weights, powers = zip(*((w, s - 1) for w, s in self.components if w > 0.0))
        g = math.gcd(*(p - powers[0] for p in powers)) or 1
        series = _Series(weights, powers, g, ln_rate)
        w = self.weights[0] if self.shapes[0] == 1 else 0.0
        ln_zero = math.log(w) + ln_rate if w > 0.0 else -math.inf
        return series, (0.0, w * self.rate, 0.0), (-math.inf, ln_zero, -math.inf)

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
        # every term is nonnegative; only the weights' 1e-10 slack can pass 1
        return _Series(tail, range(len(tail)), 1, 0.0, cap=0.0)

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Mixture density: zero for x < 0, at +inf and where rate*x overflows,
        NaN at NaN."""
        plan, edges, _ = self._density_plan
        if _math_scalar(x, self.rate):
            return plan.value(x, self.rate)
        return _pointwise(x, self.rate, partial(plan.values, rate=self.rate), edges)

    def log_pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Natural log of the density, finite where the density underflows:
        -inf where it is zero, NaN at NaN."""
        plan, _, edges = self._density_plan
        return _pointwise(x, self.rate, partial(plan.values, rate=self.rate, log=True), edges)

    def survival(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(mixture > t): 1 for t <= 0, 0 at +inf and where rate*t overflows,
        NaN at NaN.

        The weighted Erlang tails sum to one series in y = rate t, taken in
        log space like the density, so it holds where e^{-y} underflows.
        """
        plan = self._survival_plan
        if _math_scalar(t, self.rate):
            return plan.value(t, self.rate)
        # exactly 1 for t <= 0 (the series at t = 0 would give the float sum of
        # the weights, 1 +/- ulp)
        return _pointwise(t, self.rate, partial(plan.values, rate=self.rate), (1.0, 1.0, 0.0))

    def cdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(mixture <= t), the exact complement of survival."""
        return 1.0 - self.survival(t)

    def moment(self, m: int) -> float:
        """Raw moment: sum_r w_r * (s_r+m-1)! / ((s_r-1)! * rate^m), each ratio's log
        the fsum of the m logs ln(s_r + i), not a difference of two lgammas."""
        m = check_count(m, "m", 0)
        terms = [
            math.log(w) + math.fsum(map(math.log, range(s, s + m)))
            for w, s in self.components
            if w > 0.0
        ]
        return _moment_from_log(logsumexp(terms) - m * math.log(self.rate), m)

    def mean(self) -> float:
        return self.moment(1)

    def variance(self) -> float:
        """Law of total variance, sum_r w_r (s_r + (s_r - c)^2) / rate^2 with
        c = sum_r w_r s_r, which does not cancel as moment(2) - mean^2 does at
        large shapes; raises as moment(2) does outside double range."""
        centre = math.fsum(w * s for w, s in self.components)
        spread = math.fsum(w * (s + (s - centre) ** 2) for w, s in self.components)
        return _moment_from_log(math.log(spread) - 2.0 * math.log(self.rate), 2)


@dataclass(frozen=True)
class QuadratureResult:
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
    f: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    tol: float = 1e-10,
    *,
    scale: float = 1.0,
    limit: int = 2000,
) -> QuadratureResult:
    """Adaptive quadrature of f over [lower, upper], upper may be +inf.

    Global adaptive 21-point Gauss-Kronrod quadrature (QUADPACK's qk21 rule
    and error estimate, without qags' extrapolation): the interval with the
    largest error estimate is bisected until the summed estimate is at most
    max(tol, 50 eps) * |integral|, with at most `limit` intervals.  Infinite
    upper limits are mapped to [0, 1) through x = lower + scale*u/(1-u);
    pass `scale` near the width of the integrand's support so the initial
    rule sees the mass.  Raises QuadratureError carrying the best estimate
    when the budget runs out, or the worst interval is too narrow to bisect,
    with the error estimate, measured against max(1, |integral|), above tol,
    or when the value or the estimate is not finite (tolerances much below
    1e-13 are generally unattainable in double precision).

    f is vectorised: it is called once per rule, on the rule's 21 nodes as a
    float array, and must return one value per node (ValueError otherwise).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if not math.isfinite(lower):
        raise ValueError("lower bound must be finite")
    if not upper >= lower:
        raise ValueError(f"upper bound {upper} is NaN or below lower bound {lower}")
    limit = check_count(limit, "limit", 1)
    if upper == lower:
        return QuadratureResult(0.0, 0.0, 0)

    def checked(x: np.ndarray) -> np.ndarray:
        out = np.asarray(f(x), dtype=float)
        if out.shape != x.shape:
            raise ValueError(
                f"integrand must return one value per node: called on {x.size} nodes, "
                f"it returned shape {out.shape}"
            )
        return out

    if math.isinf(upper):
        def target(u: np.ndarray, _a=lower, _s=scale) -> np.ndarray:
            w = 1.0 - u
            return checked(_a + _s * u / w) * _s / (w * w)

        a, b = 0.0, 1.0
    else:
        target, a, b = checked, lower, upper

    # a heap of (-error, left, right, value) pieces; bisect the worst until the
    # running sums meet the tolerance (a NaN sum stops the loop, and raises below)
    epsrel = max(tol, _EPSREL_FLOOR)
    value, error = _gk21(target, a, b)
    pieces = [(-error, a, b, value)]
    narrow = False
    while error > epsrel * abs(value) and len(pieces) < limit:
        worst, left, right, piece = pieces[0]
        narrow = right - left < _NARROWEST * max(abs(left), abs(right))
        if narrow:
            break
        heapq.heappop(pieces)
        mid = 0.5 * (left + right)
        value_left, error_left = _gk21(target, left, mid)
        value_right, error_right = _gk21(target, mid, right)
        heapq.heappush(pieces, (-error_left, left, mid, value_left))
        heapq.heappush(pieces, (-error_right, mid, right, value_right))
        value += value_left + value_right - piece
        error += error_left + error_right + worst

    value = math.fsum(p[3] for p in pieces)
    scaled_err = math.fsum(-p[0] for p in pieces) / max(1.0, abs(value))
    result = QuadratureResult(value, scaled_err, 21 * (2 * len(pieces) - 1))
    if not (math.isfinite(value) and math.isfinite(scaled_err)):
        raise QuadratureError(
            f"quadrature did not converge: value {value!r} or error estimate "
            f"{scaled_err!r} is not finite", result
        )
    if scaled_err > tol:
        raise QuadratureError(
            f"quadrature did not converge: error estimate {scaled_err:.3g} exceeds "
            f"tolerance {tol:.3g} with {len(pieces)} of at most {limit} intervals"
            + ("; the worst interval is too narrow to bisect" if narrow else ""),
            result,
        )
    return result


@cache
def _gk21_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The qk21 nodes, Kronrod weights and Kronrod-minus-Gauss weights as
    read-only rows over all 21 nodes in increasing order, built on first use."""
    half = np.array(tuple(zip(*_GK21_HALF)))
    tables = np.concatenate((half[:, :-1] * [[-1.0], [1.0], [1.0]], half[:, ::-1]), axis=1)
    tables.flags.writeable = False
    return tuple(tables)


def _gk21(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """QUADPACK's qk21 on [a, b]: the 21-point Kronrod value and its error
    estimate, resasc * min(1, (200 |K21 - G10| / resasc)^1.5), floored at
    50 eps * resabs (resabs the rule applied to |f|, resasc to |f - mean|)."""
    nodes, kronrod_weights, difference_weights = _gk21_tables()
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    values = f(centre + half * nodes)
    kronrod = float(kronrod_weights.dot(values))
    mean = 0.5 * kronrod
    resabs = float(kronrod_weights.dot(np.abs(values))) * half
    resasc = float(kronrod_weights.dot(np.abs(values - mean))) * half
    error = abs(float(difference_weights.dot(values)) * half)
    if resasc != 0.0 and error != 0.0:
        error = resasc * min(1.0, (200.0 * error / resasc) ** 1.5)
    return kronrod * half, max(error, _EPSREL_FLOOR * resabs)
