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
StandbyModel holds a system's one-rate Erlang mixture: StandbyModel.of builds
it for family components, StandbyModel.exponential for exponential ones, whose
Erlang(n) tail and MTTF = n/theta are the comparison baseline.  The commands
read every reliability and MTTF from StandbyModel; verify holds it to the
double series (lindley-dual/tail) and to the paper's MTTF table
(mttf-reference/*).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache, partial

from .family import DistSpec, check_n, check_theta
from .numerics import (
    ErlangMixture, _Record, _finite_below, _pointwise, ln_binomial, ln_factorial, logsumexp, np,
)

__all__ = [
    "StandbyModel",
    "lindley_mttf",
    "lindley_reliability",
]


# the fields numerics._pointwise reads of a plan for arrays (see numerics._Series)
_LindleyPlan = namedtuple("_LindleyPlan", "bound cap log_series edges log_edges")


def lindley_reliability(theta: float, n: int, t: float | np.ndarray) -> float | np.ndarray:
    """Cold-standby reliability with Lindley components, by the double series.

    t is a float or an array (a float out for a float in, an array of t's shape
    otherwise); requires t >= 0.  The terms are summed in log space, those
    with equal powers of t first, and the result clamped to [0, 1].  1 at
    t = 0, 0 at +inf and where theta * t overflows, NaN at NaN.
    """
    theta, n = check_theta(theta), check_n(n)
    if isinstance(t, int):
        try:
            t = float(t)
        except OverflowError:  # an int past double range, as the frame takes it
            t = math.inf if t > 0 else -math.inf
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"t must be nonnegative, got {float(t[t < 0][0])}")
    # t is an array, so no point needs a scalar evaluator; the series would
    # give NaN at +inf; no t < 0 is left for the first edge
    plan = _LindleyPlan(_finite_below(theta), 0.0, partial(_lindley_series, theta, n),
                        (math.nan, 1.0, 0.0), (math.nan, 0.0, -math.inf))
    return _pointwise(t, plan)


def _lindley_series(theta: float, n: int, t: np.ndarray) -> np.ndarray:
    """ln R at t > 0: the log of the double sum, less theta t."""
    terms = np.multiply.outer(np.arange(2.0 * n), np.log(t))
    terms += _lindley_log_coefficients(theta, n)[:, None]
    peak = terms.max(axis=0)
    terms -= peak
    return peak + np.log(np.exp(terms, out=terms).sum(axis=0)) - theta * t


@lru_cache(maxsize=16)
def _lindley_log_coefficients(theta: float, n: int) -> np.ndarray:
    """The x-free log coefficient of each power t^0, ..., t^{2n-1} of the double
    series, its terms with equal powers summed first; built once per (theta, n)
    in O(n^2) and cached read-only."""
    # ln(theta^2/(1+theta)) and ln(theta/(1+theta)), finite for every finite theta
    ln_base = 2.0 * math.log(theta) - math.log1p(theta)
    ln_ratio = math.log(theta) - math.log1p(theta)
    by_power: list[list[float]] = [[] for _ in range(2 * n)]
    for i in range(n):
        for j in range(i + 1):
            common = i * ln_base + ln_binomial(i, j)
            by_power[i + j].append(common - ln_factorial(i + j))
            by_power[i + j + 1].append(common + ln_ratio - ln_factorial(i + j + 1))
    const = np.array([logsumexp(group) for group in by_power])
    const.flags.writeable = False
    return const


def lindley_mttf(theta: float, n: int) -> float:
    """Closed-form MTTF n(2+theta)/(theta(1+theta)) for Lindley components."""
    theta, n = check_theta(theta), check_n(n)
    # divided in turn, as theta * (1 + theta) overflows past theta ~ 1.3e154;
    # where n (2 + theta) overflows too, (2 + theta) / theta is taken first
    mttf = n * (2.0 + theta) / theta / (1.0 + theta)
    if mttf == math.inf:
        mttf = n * ((2.0 + theta) / theta) / (1.0 + theta)
    if mttf == math.inf:
        raise OverflowError(f"MTTF at theta={theta!r}, n={n} is beyond double range")
    return mttf


class StandbyModel(_Record):
    """Cold standby system of n units: its life is the n-fold sum of the unit
    lives, the one-rate Erlang mixture it holds.  Built by of() for family
    units and by exponential() for Exp(theta) ones."""

    label: str
    mixture: ErlangMixture

    def __post_init__(self) -> None:
        if not (isinstance(self.label, str) and isinstance(self.mixture, ErlangMixture)):
            raise TypeError("StandbyModel takes a str label and an ErlangMixture: build it with "
                            "StandbyModel.of(dist, n) or StandbyModel.exponential(theta, n)")

    @classmethod
    def of(cls, dist: DistSpec, n: int) -> StandbyModel:
        """n units with lifetimes from a family distribution."""
        n = check_n(n)
        return cls(f"{dist.member.name.lower()} theta={dist.theta:g} n={n}", dist.sum_mixture(n))

    @classmethod
    def exponential(cls, theta: float, n: int) -> StandbyModel:
        """n units with Exp(theta) lifetimes, for comparison: the Erlang(n, theta)."""
        theta, n = check_theta(theta), check_n(n)
        return cls(f"exponential theta={theta:g} n={n}", ErlangMixture(theta, (1.0,), (n,)))

    def reliability(self, t: float | np.ndarray) -> float | np.ndarray:
        """System reliability R(t): survival of the n-fold lifetime sum, 1 for t < 0."""
        return self.mixture.survival(t)

    def mttf(self) -> float:
        """Mean time to failure: the mean of the n-fold lifetime sum."""
        return self.mixture.mean()
