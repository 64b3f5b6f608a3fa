"""Numerically stable primitives shared by the distribution, sum, and reliability code.

Everything factorial-heavy is assembled in log space: densities and survival
series in this package multiply binomial coefficients, factorials, and powers
that individually overflow double precision long before their combination
does.  The helpers here keep those combinations finite.

ErlangMixture is the one evaluator of the Erlang series: every family member,
n-fold sum, and exponential standby system is a finite Erlang mixture with one
shared rate, and takes its density, tails, and moments here.  The parameter
checks check_positive and check_count live here too, so that ErlangMixture can
use them (family, which re-exports them, imports this module).
"""

from __future__ import annotations

import heapq
import math
import numbers
import operator
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

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
# weight is 0.  Mirrored below into aligned tuples over all 21 nodes.
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

_NODES, _KRONROD, _KRONROD_MINUS_GAUSS = zip(*_GK21_HALF)
_GK21_NODES = tuple(-x for x in _NODES[:-1]) + _NODES[::-1]
_GK21_KRONROD = _KRONROD[:-1] + _KRONROD[::-1]
_GK21_KRONROD_MINUS_GAUSS = _KRONROD_MINUS_GAUSS[:-1] + _KRONROD_MINUS_GAUSS[::-1]


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
    fn: Callable[[np.ndarray], np.ndarray], x: float | np.ndarray
) -> float | np.ndarray:
    """fn applied to x as a flat float array: a Python float for 0-d input,
    an array of x's shape otherwise."""
    arr = np.asarray(x, dtype=float)
    out = fn(arr.reshape(-1))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


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
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if len(self.weights) != len(self.shapes) or not self.weights:
            raise ValueError("weights and shapes must be nonempty and of equal length")
        if not all(w >= 0 for w in self.weights):
            raise ValueError("weights must be nonnegative numbers")
        if abs(math.fsum(self.weights) - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")
        if any(s < 1 for s in self.shapes):
            raise ValueError("shapes must be positive integers")
        if any(b <= a for a, b in zip(self.shapes, self.shapes[1:])):
            raise ValueError("shapes must be strictly increasing")

    @property
    def components(self) -> tuple[tuple[float, int], ...]:
        """(weight, shape) pairs in increasing shape order."""
        return tuple(zip(self.weights, self.shapes))

    @cached_property
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
        """Mixture density: zero for x < 0 and at +inf, NaN at NaN.

        A Python int or float (np.float64 included) with 0 < x < inf takes a
        math-module path that agrees with the array path to about 1e-13
        relative; every other input, 0-d arrays included, takes the array path.
        """
        if isinstance(x, (int, float)) and 0.0 < x < math.inf:
            ln_x = math.log(x)
            terms = [c + p * ln_x for c, p in self._log_density_terms[2]]
            peak = max(terms)
            log_mix = peak + math.log(sum(math.exp(t - peak) for t in terms))
            return math.exp(log_mix - self.rate * x)
        return _pointwise(self._pdf_array, x)

    def _pdf_array(self, flat: np.ndarray) -> np.ndarray:
        out = np.where(np.isnan(flat), math.nan, 0.0)
        if self.shapes[0] == 1:
            out[flat == 0.0] = self.weights[0] * self.rate
        pos = (flat > 0.0) & (flat < math.inf)
        if np.any(pos):
            const, powers, _ = self._log_density_terms
            xp = flat[pos]
            terms = const[:, None] + powers[:, None] * np.log(xp)
            peak = terms.max(axis=0)
            terms -= peak
            log_mix = peak + np.log(np.exp(terms, out=terms).sum(axis=0))
            out[pos] = np.exp(log_mix - self.rate * xp)
        return out

    def survival(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(mixture > t): 1 for t <= 0, 0 at +inf, NaN at NaN.

        The weighted Erlang tails come from one sweep of the shared Poisson
        series e^{-rate t} (rate t)^j / j! up to the largest shape.
        """
        return _pointwise(self._survival_array, t)

    def _survival_array(self, flat: np.ndarray) -> np.ndarray:
        # exactly 1 for t <= 0 (the series at t = 0 would give the float sum of
        # the weights, 1 +/- ulp), 0 at +inf, NaN at NaN
        out = np.heaviside(-flat, 1.0)
        pos = (flat > 0.0) & (flat < math.inf)
        x = self.rate * flat[pos]
        term = partial = np.exp(-x)
        tail = np.zeros_like(x)
        reached = 1
        for w, s in self.components:
            # advance partial = sum_{i<j} Poisson(i; x), the Erlang(j) tail, to j = s;
            # out of place, which is faster than in place on one-point arrays
            for j in range(reached, s):
                term = term * x / j
                partial = partial + term
            tail += w * partial
            reached = s
        out[pos] = tail
        # every term is nonnegative; only the weights' 1e-10 slack can pass 1
        return np.minimum(out, 1.0)

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
        log_moment = logsumexp(terms) - m * math.log(self.rate)
        if log_moment > _LN_DOUBLE_MAX:
            raise OverflowError(
                f"moment of order m={m} is about e^{log_moment:.6g}, beyond double range"
            )
        if log_moment < _LN_DOUBLE_MIN:
            raise ArithmeticError(
                f"moment of order m={m} is about e^{log_moment:.6g}, below double range"
            )
        return math.exp(log_moment)

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
    f: Callable[[float], float],
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

    if math.isinf(upper):
        def target(u: float, _f=f, _a=lower, _s=scale) -> float:
            w = 1.0 - u
            return _f(_a + _s * u / w) * _s / (w * w)

        a, b = 0.0, 1.0
    else:
        target, a, b = f, lower, upper

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


def _gk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """QUADPACK's qk21 on [a, b]: the 21-point Kronrod value and its error
    estimate, resasc * min(1, (200 |K21 - G10| / resasc)^1.5), floored at
    50 eps * resabs (resabs the rule applied to |f|, resasc to |f - mean|)."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    values = [f(centre + half * x) for x in _GK21_NODES]
    kronrod = sum(map(operator.mul, _GK21_KRONROD, values))
    mean = 0.5 * kronrod
    resabs = sum(map(operator.mul, _GK21_KRONROD, map(abs, values))) * half
    resasc = sum(map(operator.mul, _GK21_KRONROD, [abs(v - mean) for v in values])) * half
    error = abs(sum(map(operator.mul, _GK21_KRONROD_MINUS_GAUSS, values)) * half)
    if resasc != 0.0 and error != 0.0:
        error = resasc * min(1.0, (200.0 * error / resasc) ** 1.5)
    return kronrod * half, max(error, _EPSREL_FLOOR * resabs)
