"""1-out-of-n cold standby reliability for family and exponential lifetimes.

One active unit, n-1 identical spares, instant switching: system life is the
sum of the n component lives, so reliability is the survival function of that
sum and MTTF is its mean.  Lindley components additionally admit the explicit
double series

    R(t) = e^{-theta t} * [ sum_{i=0}^{n-1} sum_{j=0}^{i}
               (theta^2/(1+theta))^i C(i,j) t^{i+j}/(i+j)!
           + theta/(1+theta) * sum_{i=0}^{n-1} sum_{j=0}^{i}
               (theta^2/(1+theta))^i C(i,j) t^{i+j+1}/(i+j+1)! ]

with MTTF = n(2+theta)/(theta(1+theta)); both are implemented as written so
they can be checked against the independent sum-distribution route.
Exponential components give the Erlang tail and MTTF = n/theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .family import DistSpec, check_count, check_n, check_positive, check_theta
from .numerics import ErlangMixture, ln_binomial, ln_factorial, logsumexp
from .sums import SumSpec

__all__ = [
    "ExponentialStandby",
    "MttfRow",
    "ReliabilityCurve",
    "StandbyModel",
    "exponential_mttf",
    "exponential_reliability",
    "lindley_mttf",
    "lindley_reliability",
    "mttf_table",
    "reliability_curve",
]

_CURVE_SLACK = 1e-12


def lindley_reliability(theta: float, n: int, t: float) -> float:
    """Cold-standby reliability with Lindley components, by the double series.

    Evaluated term by term in log space and clamped to [0, 1]; requires t >= 0.
    1 at t = 0, 0 at +inf, NaN at NaN.
    """
    theta, n = check_theta(theta), check_n(n)
    t = float(t)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if not 0.0 < t < math.inf:
        # the series below would give min(1.0, nan) = 1.0 at NaN and at +inf
        return math.nan if math.isnan(t) else float(t == 0.0)
    # ln(theta^2/(1+theta)) and ln(theta/(1+theta)), finite for every finite theta
    ln_base = 2.0 * math.log(theta) - math.log1p(theta)
    ln_ratio = math.log(theta) - math.log1p(theta)
    ln_t = math.log(t)
    terms = []
    for i in range(n):
        for j in range(i + 1):
            common = i * ln_base + ln_binomial(i, j)
            terms.append(common + (i + j) * ln_t - ln_factorial(i + j))
            terms.append(common + ln_ratio + (i + j + 1) * ln_t - ln_factorial(i + j + 1))
    return min(1.0, math.exp(-theta * t + logsumexp(terms)))


def lindley_mttf(theta: float, n: int) -> float:
    """Closed-form MTTF n(2+theta)/(theta(1+theta)) for Lindley components."""
    theta, n = check_theta(theta), check_n(n)
    # divided in turn, as theta * (1 + theta) overflows past theta ~ 1.3e154
    return _finite_mttf(n * (2.0 + theta) / theta / (1.0 + theta), theta, n)


def exponential_reliability(theta: float, n: int, t: float) -> float:
    """Cold-standby reliability with Exp(theta) components: the Erlang(n) tail
    of ExponentialStandby; requires t >= 0."""
    system = ExponentialStandby(theta, n)
    t = float(t)
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return system.reliability(t)


def exponential_mttf(theta: float, n: int) -> float:
    """MTTF n/theta for exponential components."""
    theta, n = check_theta(theta), check_n(n)
    return _finite_mttf(n / theta, theta, n)


def _finite_mttf(mttf: float, theta: float, n: int) -> float:
    if mttf == math.inf:
        raise OverflowError(f"MTTF at theta={theta!r}, n={n} is beyond double range")
    return mttf


@dataclass(frozen=True)
class StandbyModel:
    """Cold standby system of n units with a family failure distribution."""

    failure_dist: DistSpec
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_n(self.n))

    @cached_property
    def _sum(self) -> SumSpec:
        return SumSpec(self.failure_dist, self.n)

    @property
    def label(self) -> str:
        d = self.failure_dist
        return f"{d.member.name.lower()} theta={d.theta:g} n={self.n}"

    def reliability(self, t: float | np.ndarray) -> float | np.ndarray:
        """System reliability R(t): survival of the n-fold lifetime sum."""
        return self._sum.survival(t)

    def mttf(self) -> float:
        """Mean time to failure: the mean of the n-fold lifetime sum."""
        return self._sum.mean()


@dataclass(frozen=True)
class ExponentialStandby:
    """Cold standby system of n units with Exp(theta) lifetimes, for comparison."""

    theta: float
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", check_theta(self.theta))
        object.__setattr__(self, "n", check_n(self.n))

    @property
    def label(self) -> str:
        return f"exponential theta={self.theta:g} n={self.n}"

    def reliability(self, t: float | np.ndarray) -> float | np.ndarray:
        """System reliability R(t): the Erlang(n, theta) tail, 1 for t < 0.
        The package's one route to that tail; exponential_reliability calls it."""
        return ErlangMixture(self.theta, (1.0,), (self.n,)).survival(t)

    def mttf(self) -> float:
        return exponential_mttf(self.theta, self.n)


class MttfRow(NamedTuple):
    """MTTF of Lindley and exponential cold-standby systems at one rate."""

    theta: float
    lindley: float
    exponential: float


def mttf_table(theta_values, n: int) -> list[MttfRow]:
    """Lindley-vs-exponential MTTF comparison rows, one per rate value."""
    return [
        MttfRow(check_theta(th), lindley_mttf(th, n), exponential_mttf(th, n))
        for th in theta_values
    ]


@dataclass(frozen=True)
class ReliabilityCurve:
    """A labelled reliability curve sampled on a strictly increasing time grid.

    Values lie in [0, 1] and are non-increasing along the grid (up to a 1e-12
    floating-point slack).
    """

    label: str
    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("times and values must be nonempty and of equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        if any(v < 0.0 or v > 1.0 for v in self.values):
            raise ValueError("reliability values must lie in [0, 1]")
        if any(b > a + _CURVE_SLACK for a, b in zip(self.values, self.values[1:])):
            raise ValueError("reliability values must be non-increasing")


def reliability_curve(models, t_max: float, points: int) -> list[ReliabilityCurve]:
    """Evaluate each model's reliability on a uniform grid over [0, t_max]."""
    grid = np.linspace(0.0, check_positive(t_max, "t_max"), check_count(points, "points", 2))
    curves = []
    for model in models:
        values = np.asarray(model.reliability(grid), dtype=float)
        curves.append(ReliabilityCurve(model.label, tuple(grid), tuple(values)))
    return curves
