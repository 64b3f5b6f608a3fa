"""Numerically stable primitives shared by the distribution, sum, and reliability code.

Everything factorial-heavy is assembled in log space: densities and survival
series in this package multiply binomial coefficients, factorials, and powers
that individually overflow double precision long before their combination
does.  The helpers here keep those combinations finite.

ErlangMixture is the one evaluator of the Erlang series: every family member,
n-fold sum, and exponential standby system is a finite Erlang mixture with one
shared rate, and takes its density, tails, and moments here.  Every density
and tail in the package, DistSpec.pdf and the Lindley double series included,
is evaluated in one frame, _pointwise: it sums a series only where
0 < x < _finite_below(rate) and gives x < 0, x == 0, x at or past that bound,
and NaN their edge values.  The parameter checks check_positive and
check_count live here too, so that ErlangMixture can use them (family, which
re-exports them, imports this module).
"""

from __future__ import annotations

import heapq
import math
import numbers
import operator
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache
from itertools import accumulate

import numpy as np

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
# weight is 0.  Mirrored below into aligned arrays over all 21 nodes.
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

_NODES, _KRONROD, _KRONROD_MINUS_GAUSS = (np.array(column) for column in zip(*_GK21_HALF))
_GK21_NODES = np.concatenate((-_NODES[:-1], _NODES[::-1]))
_GK21_KRONROD = np.concatenate((_KRONROD[:-1], _KRONROD[::-1]))
_GK21_KRONROD_MINUS_GAUSS = np.concatenate((_KRONROD_MINUS_GAUSS[:-1], _KRONROD_MINUS_GAUSS[::-1]))

# Poisson steps per block of ErlangMixture's survival sweep, and an x = rate t
# past which its start e^{-x} is 0 in double precision (it is from x = 745.14).
_BLOCK = 16
_START_UNDERFLOW = 746.0


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
    at NaN.  A Python float for 0-d input, an array of x's shape otherwise."""
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    inside = (flat > 0.0) & (flat < _finite_below(rate))
    if inside.all():
        out = series(flat)
    else:
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


def _aligned_rows(rows: int, n: int) -> np.ndarray:
    """Uninitialised float rows of n points, each on a 64-byte boundary, from one
    allocation: malloc guarantees 16 bytes, and in-place numpy loops such as
    acc *= x ran about 20% slower at every other 16-byte offset (AVX-512, 10k)."""
    stride = -(-n // 8) * 8
    buf = np.empty(rows * stride + 8)
    skip = (-buf.__array_interface__["data"][0] % 64) // 8
    return buf[skip:skip + rows * stride].reshape(rows, stride)[:, :n]


class _unlocked_cached_property:
    """functools.cached_property without the class-wide lock that it takes on
    every first access before Python 3.12, which costs more than building a
    small mixture's sweep plan: the value is computed once per instance and
    stored in its __dict__, which later lookups read first."""

    def __init__(self, func: Callable) -> None:
        self.func, self.name = func, func.__name__

    def __get__(self, instance: object, owner: type | None = None) -> object:
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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

    @_unlocked_cached_property
    def _log_density_terms(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        # log density of a component: ln(w rate^s / (s-1)!) + (s-1) ln x - rate x;
        # its two x-free parts for w > 0, as arrays and as pairs (scalar path)
        ln_rate = math.log(self.rate)
        pairs = tuple(
            (math.log(w) + s * ln_rate - ln_factorial(s - 1), s - 1.0)
            for w, s in self.components
            if w > 0.0
        )
        const, powers = (np.array(column) for column in zip(*pairs))
        return const, powers, pairs

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Mixture density: zero for x < 0, at +inf and where rate*x overflows,
        NaN at NaN.

        A positive finite scalar (see _math_scalar) takes a math-module path that
        agrees with the array path to about 1e-13 relative.
        """
        if _math_scalar(x, self.rate):
            ln_x = math.log(x)
            terms = [c + p * ln_x for c, p in self._log_density_terms[2]]
            peak = max(terms)
            log_mix = peak + math.log(sum(math.exp(t - peak) for t in terms))
            return math.exp(log_mix - self.rate * x)
        # at 0 only a shape-1 component has density, exactly w * rate
        at_zero = self.weights[0] * self.rate if self.shapes[0] == 1 else 0.0
        return _pointwise(x, self.rate, self._pdf_series, (0.0, at_zero, 0.0))

    def _pdf_series(self, points: np.ndarray) -> np.ndarray:
        log_pdf = self._log_pdf_series(points)
        return np.exp(log_pdf, out=log_pdf)

    def log_pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Natural log of the density, finite where the density underflows:
        -inf where it is zero, NaN at NaN."""
        w = self.weights[0] if self.shapes[0] == 1 else 0.0
        at_zero = math.log(w) + math.log(self.rate) if w > 0.0 else -math.inf
        return _pointwise(x, self.rate, self._log_pdf_series, (-math.inf, at_zero, -math.inf))

    def _log_pdf_series(self, points: np.ndarray) -> np.ndarray:
        # one (components x points) buffer, updated in place
        const, powers, _ = self._log_density_terms
        terms = np.multiply.outer(powers, np.log(points))
        terms += const[:, None]
        peak = terms.max(axis=0)
        terms -= peak
        log_mix = peak + np.log(np.exp(terms, out=terms).sum(axis=0))
        return log_mix - self.rate * points

    @_unlocked_cached_property
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
        """Raw moment: sum_r w_r * (s_r+m-1)! / ((s_r-1)! * rate^m)."""
        m = check_count(m, "m", 0)
        terms = [
            math.log(w) + ln_factorial(s + m - 1) - ln_factorial(s - 1)
            for w, s in self.components
            if w > 0.0
        ]
        return _moment_from_log(logsumexp(terms) - m * math.log(self.rate), m)

    def mean(self) -> float:
        return self.moment(1)

    def variance(self) -> float:
        mu = self.moment(1)
        return self.moment(2) - mu * mu


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


def _gk21(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """QUADPACK's qk21 on [a, b]: the 21-point Kronrod value and its error
    estimate, resasc * min(1, (200 |K21 - G10| / resasc)^1.5), floored at
    50 eps * resabs (resabs the rule applied to |f|, resasc to |f - mean|)."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    values = f(centre + half * _GK21_NODES)
    kronrod = float(_GK21_KRONROD.dot(values))
    mean = 0.5 * kronrod
    resabs = float(_GK21_KRONROD.dot(np.abs(values))) * half
    resasc = float(_GK21_KRONROD.dot(np.abs(values - mean))) * half
    error = abs(float(_GK21_KRONROD_MINUS_GAUSS.dot(values)) * half)
    if resasc != 0.0 and error != 0.0:
        error = resasc * min(1.0, (200.0 * error / resasc) ** 1.5)
    return kronrod * half, max(error, _EPSREL_FLOOR * resabs)
