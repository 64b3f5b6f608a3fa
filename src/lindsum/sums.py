"""Exact distributions of sums of n IID family lifetimes.

For S_n = X_1 + ... + X_n with X_i IID from a family member, the density has
the closed form

    f_n(x) = c^n e^{-theta x} * sum_{r=0}^{n} C(n,r) alpha^{n-r} (k!)^r
             * x^{n+kr-1} / (n+kr-1)!                       for x > 0,

equivalently the finite Erlang mixture

    S_n ~ sum_{r=0}^{n} w_r * Erlang(n + k*r, theta),
    w_r = c^n C(n,r) alpha^{n-r} (k!)^r theta^{-(n+kr)} = C(n,r) p^{n-r} (1-p)^r,

the binomial expansion of (p + (1-p))^n over how many of the n components took
the Erlang branch.  SumSpec takes that numerics.ErlangMixture (re-exported
here) from DistSpec.sum_mixture, built from the member's log-space pair
(ln p, ln(1-p)), and hands it density, survival, cdf, and moments.  The series
form of the moments, moment_series, is kept as an independent cross-check.
"""

from __future__ import annotations

import math
from functools import cached_property

from .family import DistSpec, check_n
from .numerics import (
    ErlangMixture, _moment_from_log, _Record, check_count, ln_binomial, ln_factorial, logsumexp, np,
)

__all__ = ["ErlangMixture", "SumSpec"]


class SumSpec(_Record):
    """The sum of n >= 1 IID draws from a family distribution."""

    dist: DistSpec
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_n(self.n))

    @cached_property
    def _mixture(self) -> ErlangMixture:
        return self.dist.sum_mixture(self.n)

    def mixture(self) -> ErlangMixture:
        """Exact Erlang-mixture representation of the sum."""
        return self._mixture

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Closed-form density of the sum, through its Erlang mixture.

        Zero for x < 0 always and for x = 0 once n >= 2; at n = 1 the series
        collapses to the single-variable density, including its positive value
        at the origin.
        """
        return self._mixture.pdf(x)

    def survival(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(S_n > t); 1 for t < 0."""
        return self._mixture.survival(t)

    def cdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(S_n <= t); 0 for t < 0."""
        return self._mixture.cdf(t)

    def moment(self, m: int) -> float:
        """Raw moment E[S_n^m], from the Erlang-mixture representation."""
        return self._mixture.moment(m)

    def moment_series(self, m: int) -> float:
        """Raw moment from the independent binomial-series closed form

            m!/theta^m * p^n * sum_r C(n,r) C(n+m+kr-1, n+kr-1) rho^r,

        with p the exponential mixture weight and rho = (1-p)/p = k!/(alpha*theta^k).
        Kept separate from moment() as a cross-check of the same quantity.
        """
        m = check_count(m, "m", 0)
        d, n = self.dist, self.n
        k = d.member.degree
        ln_p, ln_q = d.ln_weights
        ln_rho = ln_q - ln_p
        terms = [
            ln_binomial(n, r)
            + ln_binomial(n + m + k * r - 1, n + k * r - 1)
            + r * ln_rho
            for r in range(n + 1)
        ]
        log_moment = ln_factorial(m) - m * math.log(d.theta) + n * ln_p + logsumexp(terms)
        return _moment_from_log(log_moment, m)

    def mean(self) -> float:
        """E[S_n] = n * E[X]."""
        return self.moment(1)

    def variance(self) -> float:
        """Var[S_n] = n * Var[X]."""
        return self._mixture.variance()
