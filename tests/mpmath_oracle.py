"""The n-fold sum of a family member in mpmath at 50 digits: the one
high-precision oracle of the test suites.

It is built from theta, alpha and k alone.  The member weight
p = alpha theta^k / (alpha theta^k + k!), its complement and the sum's
weights C(n,r) p^(n-r) (1-p)^r on Erlang(n + k r, theta) are taken in
mpmath, not from the package's ln_weights or ErlangMixture (at n = 1, the
member's own distribution, which the package reads as SumSpec(dist, 1)).
Each Erlang term integrates in closed form: its mean is s / theta, and its
tail beyond x is the regularized upper incomplete gamma function
Q(s, y) = e^{-y} sum_{j<s} y^j/j!, y = theta x, for the integer shape s.  So
the sum's survival is one Poisson sum e^{-y} sum_j W_j y^j/j!, with W_j the
weight on shapes above j: positive terms, so no cancellation, and no
incomplete gamma function per component.
"""

from __future__ import annotations

import mpmath

DIGITS = 50


class SumOracle:
    """Density, survival and mean of the sum of n IID draws of the member
    with rate theta, constant term alpha and degree k."""

    def __init__(self, theta: float, alpha: float, k: int, n: int):
        with mpmath.workdps(DIGITS):
            self.theta = mpmath.mpf(theta)
            a = mpmath.mpf(alpha) * self.theta**k
            total = a + mpmath.factorial(k)
            p, q = a / total, mpmath.factorial(k) / total
            self.components = [
                (mpmath.binomial(n, r) * p ** (n - r) * q**r, n + k * r) for r in range(n + 1)
            ]
            # W_j for j below the largest shape, summed down from it
            weight_at = {s: w for w, s in self.components}
            above, self.tail_weights = mpmath.mpf(0), []
            for j in reversed(range(n + k * n)):
                above += weight_at.get(j + 1, 0)
                self.tail_weights.append(above)
            self.tail_weights.reverse()

    def pdf(self, x: float) -> float:
        with mpmath.workdps(DIGITS):
            y = self.theta * mpmath.mpf(x)
            return float(mpmath.fsum(
                w * self.theta * y ** (s - 1) / mpmath.factorial(s - 1) for w, s in self.components
            ) * mpmath.exp(-y))

    def survival(self, x: float) -> float:
        return float(self.survival_mpf(x))

    def survival_mpf(self, x: float) -> mpmath.mpf:
        """P(S > x) at DIGITS digits, for x >= 0: the Poisson sum over W_j."""
        with mpmath.workdps(DIGITS):
            y = self.theta * mpmath.mpf(x)
            term, terms = mpmath.exp(-y), []  # e^{-y} y^j / j!
            for j, tail_weight in enumerate(self.tail_weights):
                terms.append(tail_weight * term)
                term = term * y / (j + 1)
            return mpmath.fsum(terms)

    def mean(self) -> float:
        with mpmath.workdps(DIGITS):
            return float(mpmath.fsum(w * s for w, s in self.components) / self.theta)
