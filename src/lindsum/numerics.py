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

import math
import numbers
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

# QUADPACK refuses pure-relative requests below 50 * machine epsilon.
_EPSREL_FLOOR = 50.0 * math.ulp(1.0)


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
        return math.exp(logsumexp(terms) - m * math.log(self.rate))

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

    Uses interval bisection with an embedded high/low-order Gauss-Kronrod
    pair, a subdivision budget of `limit` intervals, and a tolerance measured
    against max(1, |integral|).  Infinite upper limits are mapped to [0, 1)
    through x = lower + scale*u/(1-u); pass `scale` near the width of the
    integrand's support so the initial rule sees the mass.  Raises
    QuadratureError carrying the best estimate when the tolerance is not met
    within the budget (tolerances much below 1e-13 are generally unattainable
    in double precision).
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

    if math.isinf(upper):
        def target(u: float, _f=f, _a=lower, _s=scale) -> float:
            w = 1.0 - u
            return _f(_a + _s * u / w) * _s / (w * w)

        a, b = 0.0, 1.0
    else:
        target, a, b = f, lower, upper

    # scipy costs more to import than the rest of the package together, and
    # only the quadrature oracles need it
    from scipy import integrate as _quadpack

    out = _quadpack.quad(
        target, a, b,
        epsabs=0.0,
        epsrel=max(tol, _EPSREL_FLOOR),
        limit=limit,
        full_output=1,
    )
    value, abserr, info = float(out[0]), float(out[1]), out[2]
    scaled_err = abserr / max(1.0, abs(value))
    result = QuadratureResult(value, scaled_err, int(info["neval"]))
    if len(out) > 3 or scaled_err > tol:
        reason = str(out[3]).splitlines()[0] if len(out) > 3 else (
            f"error estimate {scaled_err:.3g} exceeds tolerance {tol:.3g}"
        )
        raise QuadratureError(f"quadrature did not converge: {reason}", result)
    return result
