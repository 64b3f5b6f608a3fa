"""Numerically stable primitives shared by the distribution, sum, and reliability code.

Everything factorial-heavy is assembled in log space: densities and survival
series in this package multiply binomial coefficients, factorials, and powers
that individually overflow double precision long before their combination
does.  The helpers here keep those combinations finite.

ErlangMixture is the one evaluator of the Erlang series: every family member,
n-fold sum, and exponential standby system is a finite Erlang mixture with one
shared rate, and takes its density, tails, and moments here (DistSpec.pdf
too; the member's closed-form density is kept apart, as validation's
convolution oracle at n = 1).  Its density takes its logs in y = rate x: a
log-sum-exp over the components on few points (_log_power_series, which also
sums the Lindley double series), on more a blocked series (_density_blocks).
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

import heapq
import importlib.util
import math
import numbers
import operator
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache, cached_property
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

# Poisson steps per block of ErlangMixture's survival sweep, and an x = rate t
# past which its start e^{-x} is 0 in double precision (it is from x = 745.14).
_BLOCK = 16
_START_UNDERFLOW = 746.0
# ErlangMixture's array density: a log-sum-exp for at most _FEW_COMPONENTS or
# _FEW_TERMS (component, point) terms (measured crossovers: 5 components at
# 10k points, 3000 terms at 6 to 51 components), else blocks of at most _BLOCK
# steps whose coefficients span at most e^_SPREAD.
_FEW_COMPONENTS = 4
_FEW_TERMS = 2048
_SPREAD = 600.0
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


def _log_power_series(
    const: np.ndarray, powers: np.ndarray, log_x: np.ndarray, minus: np.ndarray
) -> np.ndarray:
    """ln(sum_i e^{const_i} x^{powers_i}) - minus at each point, from ln x: a
    log-sum-exp in one (terms x points) buffer, updated in place."""
    terms = np.multiply.outer(powers, log_x)
    terms += const[:, None]
    peak = terms.max(axis=0)
    terms -= peak
    log_sum = peak + np.log(np.exp(terms, out=terms).sum(axis=0))
    return log_sum - minus


def _aligned_rows(rows: int, n: int) -> np.ndarray:
    """Uninitialised float rows of n points, each on a 64-byte boundary, from one
    allocation: malloc guarantees 16 bytes, and in-place numpy loops such as
    acc *= x ran about 20% slower at every other 16-byte offset (AVX-512, 10k)."""
    stride = -(-n // 8) * 8
    buf = np.empty(rows * stride + 8)
    skip = (-buf.__array_interface__["data"][0] % 64) // 8
    return buf[skip:skip + rows * stride].reshape(rows, stride)[:, :n]


@cache
def _block_factors(b: int) -> tuple[float, ...]:
    """b!/(b+i)! for i = 0, ..., _BLOCK, as running quotients from 1: the
    factors of one survival-sweep block, which do not depend on the weights.
    Cached per block index, so the cache holds one tuple per block up to the
    largest shape any mixture has swept."""
    return tuple(accumulate(range(b + 1, b + _BLOCK + 1), operator.truediv, initial=1.0))


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
    def _density_plan(self) -> tuple[tuple[tuple[float, float], ...], tuple, tuple]:
        # a component's log density is ln a + (s-1) ln y - y, y = rate x: the
        # pairs (ln a, s-1) for w > 0, then the edges of pdf and of log_pdf (at
        # 0 only shape 1 has density, exactly w * rate), all pure Python
        ln_rate = math.log(self.rate)
        pairs = tuple(
            (math.log(w) + ln_rate - ln_factorial(s - 1), s - 1.0)
            for w, s in self.components
            if w > 0.0
        )
        w = self.weights[0] if self.shapes[0] == 1 else 0.0
        ln_zero = math.log(w) + ln_rate if w > 0.0 else -math.inf
        return pairs, (0.0, w * self.rate, 0.0), (-math.inf, ln_zero, -math.inf)

    @cached_property
    def _density_blocks(self) -> tuple[np.ndarray, ...]:
        # The density is e^{-y} y^{s_0-1} sum_m a_m z^m over the shapes s_0 + g m
        # (g the gcd of their gaps, z = y^g).  Block j from step b_j over L_j
        # steps keeps ln of its largest a, A_j, and c = a/A_j; with v = min(z,
        # 1/z) its sum, sum c_i v^i for y <= 1 and sum c_i v^(L_j-1-i) past 1,
        # lies in [e^-_SPREAD, L_j].  `offsets` maps (max(ln y, 0), 1, ln y, y)
        # to ln A_j + (s_0-1 + g b_j) ln y + g (L_j-1) max(ln y, 0) - y, then to
        # ln v; `sums` maps the powers of v to the sums for y <= 1, then past 1
        pairs = self._density_plan[0]
        first = int(pairs[0][1])
        g = math.gcd(*(int(p) - first for _, p in pairs)) or 1
        blocks: list[list[tuple[int, float]]] = []
        for ln_a, p in pairs:
            step = (int(p) - first) // g
            spread = max(high, ln_a) - min(low, ln_a) if blocks else 0.0
            if blocks and step - blocks[-1][0][0] < _BLOCK and spread <= _SPREAD:
                blocks[-1].append((step, ln_a))
                low, high = min(low, ln_a), max(high, ln_a)
            else:
                blocks.append([(step, ln_a)])
                low = high = ln_a
        width = max(block[-1][0] - block[0][0] for block in blocks) + 1
        offsets, lows, highs = [], [], []
        for block in blocks:
            start, span = block[0][0], block[-1][0] - block[0][0]
            peak = max(v for _, v in block)
            offsets.append((g * span, peak, first + g * start, -1.0))
            row = [0.0] * width
            for step, ln_a in block:
                row[step - start] = math.exp(ln_a - peak)
            lows.append(row)
            highs.append(row[span::-1] + row[span + 1:])
        offsets.append((-2.0 * g, 0.0, g, 0.0))
        return np.array(offsets), np.array(lows + highs), *map(np.array, zip(*pairs))

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Mixture density: zero for x < 0, at +inf and where rate*x overflows,
        NaN at NaN.

        A positive finite scalar (see _math_scalar) takes a math-module
        log-sum-exp in y = rate x (ln y = ln rate + ln x where y is subnormal),
        as few points do bit for bit; more take _density_blocks' series.
        """
        if _math_scalar(x, self.rate):
            y = self.rate * x
            ln_y = math.log(y) if y >= _DOUBLE_MIN else math.log(self.rate) + math.log(x)
            terms = [c + p * ln_y for c, p in self._density_plan[0]]
            peak = max(terms)
            return math.exp(peak + math.log(sum(math.exp(t - peak) for t in terms)) - y)
        return _pointwise(x, self.rate, self._pdf_series, self._density_plan[1])

    def _pdf_series(self, points: np.ndarray) -> np.ndarray:
        log_pdf = self._log_pdf_series(points)
        return np.exp(log_pdf, out=log_pdf)

    def log_pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Natural log of the density, finite where the density underflows:
        -inf where it is zero, NaN at NaN."""
        return _pointwise(x, self.rate, self._log_pdf_series, self._density_plan[2])

    def _log_pdf_series(self, points: np.ndarray) -> np.ndarray:
        offsets, sums, const, exponents = self._density_blocks
        low = np.minimum.reduce(points) * self.rate  # the smallest y
        few = len(const) <= _FEW_COMPONENTS or len(const) * points.size <= _FEW_TERMS
        if few and low >= _DOUBLE_MIN:
            y = points * self.rate  # the scalar path's arithmetic, in the fewest calls
            return _log_power_series(const, exponents, np.log(y), y)
        # one buffer: the block logs and ln v, max(ln y, 0), the powers of v
        # (rows 0-2 hold 1, ln y and y until the logs are taken), the sums
        rows, width = len(offsets) - 1, sums.shape[1]
        work = np.empty((3 * rows + 2 + max(width, 3), points.size))
        logs, above = work[:rows + 1], work[rows + 1]
        powers, both = work[rows + 2:-2 * rows], work[-2 * rows:]
        powers[0] = 1.0
        y = np.multiply(points, self.rate, out=powers[2])
        np.log(y if low >= _DOUBLE_MIN else np.maximum(y, _DOUBLE_MIN), out=powers[1])
        if not low >= _DOUBLE_MIN:  # where y is subnormal or 0, ln y = ln rate + ln x
            np.copyto(powers[1], np.log(points) + math.log(self.rate), where=y < _DOUBLE_MIN)
        np.maximum(powers[1], 0.0, out=above)
        np.dot(offsets, work[rows + 1:rows + 5], out=logs)
        powers = powers[:width]
        np.exp(logs[rows], out=powers[1:2])
        for i in range(2, width):  # row by row: an accumulate strides across rows
            np.multiply(powers[i - 1], powers[1], out=powers[i])
        np.dot(sums, powers, out=both)
        block_sums = both[:rows]
        np.copyto(block_sums, both[rows:], where=above > 0.0)
        peak = logs[:rows].max(axis=0)
        shifted = np.subtract(logs[:rows], peak, out=logs[:rows])
        # a block below e^-708 of the largest weighs under 1e-45 of the sum: the
        # floor is exact, and keeps np.exp off subnormal results, which cost 100x
        np.maximum(shifted, -708.0, out=shifted)
        return peak + np.log(np.einsum("ij,ij->j", block_sums, np.exp(shifted, out=shifted)))

    @cached_property
    def _sweep_plan(self) -> tuple[tuple[tuple[float, ...], float], ...]:
        # survival is e^{-x} sum_{j<J} W_j x^j / j!, x = rate t, with W_j the
        # weight on shapes > j and J the largest shape of positive weight.  One
        # entry per block of _BLOCK steps from b = 0, _BLOCK, ...: the Horner
        # coefficients W_{b+i} b!/(b+i)!, highest i first, and b!/(b+_BLOCK)!,
        # which carries the block's Poisson start e^{-x} x^b / b! to the next's
        tail = []  # W_{J-1}, ..., W_0 from one descending pass, then reversed
        above = 0.0
        top = 0
        for w, s in zip(reversed(self.weights), reversed(self.shapes)):
            if above > 0.0:
                tail += [above] * (top - s)  # W_j for s <= j < top
            above += w
            top = s
        tail += [above] * top
        tail.reverse()
        plan = []
        for b in range(0, len(tail), _BLOCK):
            factors = _block_factors(b)
            coefficients = [w * f for w, f in zip(tail[b:b + _BLOCK], factors)]
            coefficients.reverse()
            plan.append((tuple(coefficients), factors[_BLOCK]))
        return tuple(plan)

    def survival(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(mixture > t): 1 for t <= 0, 0 at +inf and where rate*t overflows,
        NaN at NaN.

        The weighted Erlang tails sum to one polynomial in x = rate t times
        e^{-x}, evaluated by Horner's rule block by block along the cached
        _sweep_plan.  Past x = 745 its start e^{-x}, and so the tail,
        underflows to 0.  A positive finite scalar (see _math_scalar) runs the
        sweep on Python floats, which agrees with the array path to about
        1e-14 relative.
        """
        if _math_scalar(t, self.rate):
            x = self.rate * float(t)  # np.float64 too: the sweep runs on Python floats
            start = math.exp(-x)
            if start == 0.0:
                return 0.0  # every block is 0, and x ** _BLOCK may overflow
            plan = self._sweep_plan
            x_block = x ** _BLOCK if len(plan) > 1 else 0.0  # unused after the last block
            tail = 0.0
            for coefficients, step in plan:
                acc = 0.0
                for c in coefficients:
                    acc = acc * x + c
                tail += start * acc
                start = start * x_block * step
            return min(tail, 1.0)
        # exactly 1 for t <= 0 (the series at t = 0 would give the float sum of
        # the weights, 1 +/- ulp)
        return _pointwise(t, self.rate, self._survival_series, (1.0, 1.0, 0.0))

    def _survival_series(self, points: np.ndarray) -> np.ndarray:
        x, start, tail, acc = _aligned_rows(4, points.size)
        np.multiply(points, self.rate, out=x)
        np.exp(np.negative(x, out=start), out=start)
        # where the start underflowed every block is 0; capping x there keeps
        # x ** _BLOCK finite, so no 0 * inf turns it into NaN
        np.minimum(x, _START_UNDERFLOW, out=x)
        plan = self._sweep_plan
        x_block = np.power(x, _BLOCK) if len(plan) > 1 else 0.0  # unused after the last block
        tail.fill(0.0)
        for coefficients, step in plan:
            acc.fill(coefficients[0])
            for c in coefficients[1:]:
                acc *= x
                acc += c
            acc *= start
            tail += acc
            start *= x_block
            start *= step
        # every term is nonnegative; only the weights' 1e-10 slack can pass 1.  A
        # new array, so the result does not hold the other three rows
        return np.minimum(tail, 1.0)

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
