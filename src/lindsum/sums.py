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
here) from DistSpec.sum_mixture, built from the member's pair (ln p, ln(1-p)),
for density, survival, cdf, and moments; moment_series, the moments' series,
and sample_sum, which draws sums from (ln p, ln(1-p)) alone, cross-check it.
"""

from __future__ import annotations

import math
from functools import cached_property

from .family import DistSpec, _divide_draws, check_n
from .numerics import (
    _LN_DOUBLE_MAX, _LN_DOUBLE_MIN, ErlangMixture, _Record, check_count, ln_binomial, ln_factorial,
    logsumexp, np,
)

__all__ = ["ErlangMixture", "SumSpec", "sample_sum"]


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
        if not _LN_DOUBLE_MIN <= log_moment <= _LN_DOUBLE_MAX:
            side = "beyond" if log_moment > 0.0 else "below"
            error = OverflowError if log_moment > 0.0 else ArithmeticError
            raise error(f"moment of order m={m} is about e^{log_moment:.6g}, {side} double range")
        return math.exp(log_moment)

    def mean(self) -> float:
        """E[S_n], the mixture's exact mean rounded once."""
        return self._mixture.mean()

    def variance(self) -> float:
        """Var[S_n], the mixture's exact variance rounded once."""
        return self._mixture.variance()


def sample_sum(
    spec: SumSpec,
    rng: np.random.Generator,
    size: int | None = None,
) -> float | np.ndarray:
    """Simulate sums of n IID family draws exactly, at O(1) cost per draw.

    Each summand is Exp(theta) with probability p and Erlang(k+1, theta)
    otherwise, so the number R of Erlang summands is Binomial(n, 1 - p) and,
    given R, the sum is Gamma(n + k*R, theta).  _draw_sums draws the sums
    grouped by R; they are then shuffled in place, so the draws come out
    exchangeable, in no order of R.  The sampler uses only the per-member
    weights DistSpec.ln_weights, never the Erlang-mixture weights of the
    sum, so it stays an independent check of those weights.  OverflowError
    where a draw passes the largest double.
    """
    if size is None:
        return float(sample_sum(spec, rng, size=1)[0])
    draws = _draw_sums(spec, rng, np.empty(check_count(size, "size", 1)))
    rng.shuffle(draws)
    return draws


def _draw_sums(spec: SumSpec, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the 1-d float array out with draws of the sum grouped by R, in
    increasing R, and return it.

    The count of each R comes from one multinomial draw over R's pmf
    C(n,r) p^{n-r} q^r, taken in log space relative to its first r from
    ln p and ln q; then each nonzero count is one standard_gamma call of
    shape n + k*r, written into its slice of out.  The pmf is taken on r
    within 40 standard deviations plus 500 of nq, outside which Bernstein's
    inequality puts less than e^-375 of R's mass, so at most O(sqrt(n)) + 1001
    values of r are kept at any n.
    """
    n, k = spec.n, spec.dist.member.degree
    ln_p, ln_q = spec.dist.ln_weights
    reach = 40.0 * math.sqrt(n * math.exp(ln_p + ln_q)) + 500.0
    centre = n * math.exp(ln_q)
    r = np.arange(max(0, math.floor(centre - reach)), min(n, math.ceil(centre + reach)) + 1)
    # ln pmf(r) - ln pmf(r[0]) = (r - r[0]) ln(q/p) + ln(C(n,r)/C(n,r[0])), the
    # second a running sum of ln((n-j+1)/j) over j = r[0]+1 .. r
    ln_pmf = (r - r[0]) * (ln_q - ln_p)
    ln_pmf[1:] += np.cumsum(np.log((n - r[1:] + 1.0) / r[1:]))
    pmf = np.exp(ln_pmf - ln_pmf.max())
    counts = rng.multinomial(out.size, pmf / pmf.sum())
    start = 0
    for i in np.flatnonzero(counts).tolist():
        stop = start + int(counts[i])
        rng.standard_gamma(n + k * int(r[i]), out=out[start:stop])
        start = stop
    return _divide_draws(out, spec.dist.theta, n)
