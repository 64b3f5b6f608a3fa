"""Numerically stable primitives shared by the distribution, sum, and reliability code.

Everything factorial-heavy is assembled in log space: densities and survival
series in this package multiply binomial coefficients, factorials, and powers
that individually overflow double precision long before their combination
does.  The helpers here keep those combinations finite.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TypeAlias

import numpy as np

__all__ = [
    "LogWeightedTerm",
    "QuadratureError",
    "QuadratureResult",
    "erlang_tail",
    "integrate",
    "ln_binomial",
    "ln_factorial",
    "logsumexp",
    "sum_log_terms",
]

# A term of a positive series, represented by the natural log of its magnitude.
LogWeightedTerm: TypeAlias = float

# Logs of exact integer factorials; lgamma takes over past the table.
_EXACT_LIMIT = 20
_LN_FACTORIALS = tuple(math.log(math.factorial(n)) for n in range(_EXACT_LIMIT + 1))

# QUADPACK refuses pure-relative requests below 50 * machine epsilon.
_EPSREL_FLOOR = 50.0 * math.ulp(1.0)


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


def erlang_tail(shape: int, rate: float, t: float | np.ndarray) -> float | np.ndarray:
    """Survival function of an Erlang(shape, rate) variable at t.

    Accumulates the truncated Poisson series e^{-rate*t} * sum_{j<shape}
    (rate*t)^j / j! through the recurrence term_{j+1} = term_j * rate*t/(j+1),
    seeded with the j = 0 Poisson mass so every term stays in [0, 1], and a
    Neumaier compensated sum.  Accepts scalar or array t and clamps the result
    to [0, 1].
    """
    if shape < 1:
        raise ValueError(f"shape must be a positive integer, got {shape}")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("t must be nonnegative")
    x = rate * arr
    term = np.exp(-x)
    total = term.copy()
    comp = np.zeros_like(total)
    for j in range(1, shape):
        term = term * x / j
        partial = total + term
        comp += np.where(total >= term, (total - partial) + term, (term - partial) + total)
        total = partial
    out = np.clip(total + comp, 0.0, 1.0)
    return float(out) if arr.ndim == 0 else out


def logsumexp(log_terms: Sequence[LogWeightedTerm]) -> float:
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


def sum_log_terms(log_terms: Sequence[LogWeightedTerm]) -> float:
    """Sum of positive terms given by their logs, on the linear scale.

    Overflows to inf only when the true sum exceeds the double range; use
    logsumexp directly when the result itself must stay on the log scale.
    """
    return math.exp(logsumexp(log_terms))


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
    if upper < lower:
        raise ValueError(f"upper bound {upper} is below lower bound {lower}")
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
