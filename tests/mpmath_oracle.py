"""The n-fold sum of a family member in mpmath at 50 digits: the one
high-precision oracle of the test suites.

It is built from theta, alpha and k alone.  The member weight
p = alpha theta^k / (alpha theta^k + k!), its complement and the sum's
weights C(n,r) p^(n-r) (1-p)^r on Erlang(n + k r, theta) are taken in
mpmath, not from the package's ln_weights, norm_const or ErlangMixture.
Each Erlang term integrates in closed form: its tail beyond x is the
regularized upper incomplete gamma function Q(s, theta x) and its mean
s / theta.
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

    def pdf(self, x: float) -> float:
        with mpmath.workdps(DIGITS):
            y = self.theta * mpmath.mpf(x)
            return float(mpmath.fsum(
                w * self.theta * y ** (s - 1) / mpmath.factorial(s - 1) for w, s in self.components
            ) * mpmath.exp(-y))

    def survival(self, x: float) -> float:
        with mpmath.workdps(DIGITS):
            y = self.theta * mpmath.mpf(x)
            return float(mpmath.fsum(
                w * mpmath.gammainc(s, y, regularized=True) for w, s in self.components
            ))

    def mean(self) -> float:
        with mpmath.workdps(DIGITS):
            return float(mpmath.fsum(w * s for w, s in self.components) / self.theta)
