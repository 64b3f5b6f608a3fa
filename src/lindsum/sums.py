"""Exact distributions of sums of n IID family lifetimes.

For S_n = X_1 + ... + X_n with X_i IID from a family member, the density has
the closed form

    f_n(x) = c^n e^{-theta x} * sum_{r=0}^{n} C(n,r) alpha^{n-r} (k!)^r
             * x^{n+kr-1} / (n+kr-1)!                       for x > 0,

equivalently the finite Erlang mixture

    S_n ~ sum_{r=0}^{n} w_r * Erlang(n + k*r, theta),
    w_r = c^n C(n,r) alpha^{n-r} (k!)^r theta^{-(n+kr)},

whose weights are exactly the binomial expansion of (p + (1-p))^n over how
many of the n components took the Erlang branch of the mixture.  The mixture
gives survival, cdf, and moments without any new approximation; the series
form of the moments is kept alongside as an independent cross-check.

All coefficient assembly happens in log space so that large n, large k, and
large x never overflow intermediates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .family import AlphaKind, DistSpec
from .numerics import ln_binomial, ln_factorial, logsumexp

__all__ = ["ErlangMixture", "SumSpec"]

_WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class ErlangMixture:
    """Finite mixture of Erlang(shape, rate) components with a shared rate.

    Weights are positive and sum to 1 (within 1e-10); shapes are strictly
    increasing positive integers.
    """

    rate: float
    weights: tuple[float, ...]
    shapes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if len(self.weights) != len(self.shapes) or not self.weights:
            raise ValueError("weights and shapes must be nonempty and of equal length")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        if abs(math.fsum(self.weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")
        if any(s < 1 for s in self.shapes):
            raise ValueError("shapes must be positive integers")
        if any(b <= a for a, b in zip(self.shapes, self.shapes[1:])):
            raise ValueError("shapes must be strictly increasing")

    @property
    def components(self) -> tuple[tuple[float, int], ...]:
        """(weight, shape) pairs in increasing shape order."""
        return tuple(zip(self.weights, self.shapes))

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Mixture density; zero for x < 0."""
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr)
        out = np.zeros_like(flat)
        if self.shapes[0] == 1:
            # only a shape-1 component puts mass density at the origin
            out[flat == 0.0] = self.weights[0] * self.rate
        pos = flat > 0.0
        if np.any(pos):
            ln_theta = math.log(self.rate)
            xp = flat[pos]
            ln_x = np.log(xp)
            const = np.array([
                math.log(w) + s * ln_theta - ln_factorial(s - 1)
                for w, s in zip(self.weights, self.shapes)
            ])
            powers = np.asarray(self.shapes, dtype=float) - 1.0
            terms = const[:, None] + powers[:, None] * ln_x[None, :]
            peak = terms.max(axis=0)
            log_mix = peak + np.log(np.exp(terms - peak).sum(axis=0))
            out[pos] = np.exp(log_mix - self.rate * xp)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def survival(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(mixture > t): weighted Erlang tails in one pass over the shared
        Poisson series, so the work is a single sweep to the largest shape."""
        arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(arr)
        out = np.ones_like(flat)
        # t <= 0 is exactly 1 by definition; evaluating the weighted series at
        # t = 0 would instead return the float sum of the weights (1 +/- ulp)
        pos = flat > 0.0
        x = self.rate * flat[pos]
        term = np.exp(-x)
        partial = term.copy()
        tail = np.zeros_like(x)
        index = 0
        for j in range(1, self.shapes[-1] + 1):
            # partial currently holds sum_{i<j} Poisson(i; x) = Erlang(j) tail
            while index < len(self.shapes) and self.shapes[index] == j:
                tail += self.weights[index] * partial
                index += 1
            if j <= self.shapes[-1] - 1:
                term = term * x / j
                partial = partial + term
        out[pos] = tail
        result = np.clip(out, 0.0, 1.0)
        return float(result[0]) if arr.ndim == 0 else result.reshape(arr.shape)

    def cdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(mixture <= t), the exact complement of survival."""
        return 1.0 - self.survival(t)

    def moment(self, m: int) -> float:
        """Raw moment: sum_r w_r * (s_r+m-1)! / ((s_r-1)! * rate^m)."""
        if m < 0:
            raise ValueError(f"m must be a nonnegative integer, got {m}")
        terms = [
            math.log(w) + ln_factorial(s + m - 1) - ln_factorial(s - 1)
            for w, s in zip(self.weights, self.shapes)
        ]
        return math.exp(logsumexp(terms) - m * math.log(self.rate))

    def mean(self) -> float:
        return self.moment(1)

    def variance(self) -> float:
        mu = self.moment(1)
        return self.moment(2) - mu * mu


@dataclass(frozen=True)
class SumSpec:
    """The sum of n >= 1 IID draws from a family distribution."""

    dist: DistSpec
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise TypeError(f"n must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @cached_property
    def _mixture(self) -> ErlangMixture:
        d, n = self.dist, self.n
        k = d.member.degree
        ln_theta = math.log(d.theta)
        ln_alpha = 0.0 if d.member.alpha_kind is AlphaKind.UNIT else ln_theta
        ln_kfact = ln_factorial(k)
        ln_c = (k + 1) * ln_theta - math.log(d.alpha * d.theta**k + math.factorial(k))
        log_w = [
            n * ln_c
            + ln_binomial(n, r)
            + (n - r) * ln_alpha
            + r * ln_kfact
            - (n + k * r) * ln_theta
            for r in range(n + 1)
        ]
        total = logsumexp(log_w)
        weights = tuple(math.exp(v - total) for v in log_w)
        shapes = tuple(n + k * r for r in range(n + 1))
        return ErlangMixture(d.theta, weights, shapes)

    def mixture(self) -> ErlangMixture:
        """Exact Erlang-mixture representation of the sum."""
        return self._mixture

    @cached_property
    def _pdf_series(
        self,
    ) -> tuple[float, np.ndarray, np.ndarray, tuple[tuple[float, float], ...]]:
        # x-independent parts of the density series: n ln c, the log
        # coefficient of each term, each term's power of x, and the
        # (coefficient, power) pairs as Python floats for the scalar path
        d, n = self.dist, self.n
        k = d.member.degree
        ln_theta = math.log(d.theta)
        ln_alpha = 0.0 if d.member.alpha_kind is AlphaKind.UNIT else ln_theta
        ln_kfact = ln_factorial(k)
        ln_c = (k + 1) * ln_theta - math.log(d.alpha * d.theta**k + math.factorial(k))
        const = np.array([
            ln_binomial(n, r)
            + (n - r) * ln_alpha
            + r * ln_kfact
            - ln_factorial(n + k * r - 1)
            for r in range(n + 1)
        ])
        powers = np.arange(n + 1, dtype=float) * k + (n - 1)
        return n * ln_c, const, powers, tuple(zip(const.tolist(), powers.tolist()))

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Closed-form density of the sum.

        Zero for x < 0 always and for x = 0 once n >= 2; at n = 1 the series
        collapses to the single-variable density, including its positive value
        at the origin.

        A Python int or float (np.float64 included) with 0 < x < inf takes a
        scalar path that sums the same series with the math module; it agrees
        with the array path to about 1e-13 relative.  Every other input,
        0-d arrays included, goes through the array path.
        """
        if isinstance(x, (int, float)) and 0.0 < x < math.inf:
            return self._pdf_scalar(float(x))
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr)
        out = np.zeros_like(flat)
        if self.n == 1:
            out[flat == 0.0] = self.dist.pdf(0.0)
        pos = flat > 0.0
        if np.any(pos):
            n_ln_c, const, powers, _ = self._pdf_series
            xp = flat[pos]
            ln_x = np.log(xp)
            terms = const[:, None] + powers[:, None] * ln_x[None, :]
            peak = terms.max(axis=0)
            log_series = peak + np.log(np.exp(terms - peak).sum(axis=0))
            out[pos] = np.exp(n_ln_c - self.dist.theta * xp + log_series)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def _pdf_scalar(self, x: float) -> float:
        # the array path's log-sum-exp for one point 0 < x < inf
        n_ln_c, _, _, pairs = self._pdf_series
        ln_x = math.log(x)
        terms = [c + p * ln_x for c, p in pairs]
        peak = max(terms)
        log_series = peak + math.log(sum(math.exp(t - peak) for t in terms))
        return math.exp(n_ln_c - self.dist.theta * x + log_series)

    def survival(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(S_n > t); 1 for t < 0."""
        return self._mixture.survival(t)

    def cdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(S_n <= t); 0 for t < 0."""
        return 1.0 - self.survival(t)

    def moment(self, m: int) -> float:
        """Raw moment E[S_n^m], from the Erlang-mixture representation."""
        return self._mixture.moment(m)

    def moment_series(self, m: int) -> float:
        """Raw moment from the independent binomial-series closed form

            m!/theta^m * p^n * sum_r C(n,r) C(n+m+kr-1, n+kr-1) rho^r,

        with p the exponential mixture weight and rho = k!/(alpha*theta^k).
        Kept separate from moment() as a cross-check of the same quantity.
        """
        if m < 0:
            raise ValueError(f"m must be a nonnegative integer, got {m}")
        d, n = self.dist, self.n
        k = d.member.degree
        ln_theta = math.log(d.theta)
        ln_alpha = 0.0 if d.member.alpha_kind is AlphaKind.UNIT else ln_theta
        ln_rho = ln_factorial(k) - ln_alpha - k * ln_theta
        terms = [
            ln_binomial(n, r)
            + ln_binomial(n + m + k * r - 1, n + k * r - 1)
            + r * ln_rho
            for r in range(n + 1)
        ]
        return math.exp(
            ln_factorial(m) - m * ln_theta + n * math.log(d.mixture_weight) + logsumexp(terms)
        )

    def mean(self) -> float:
        """E[S_n] = n * E[X]."""
        return self.moment(1)

    def variance(self) -> float:
        """Var[S_n] = n * Var[X]."""
        return self._mixture.variance()
