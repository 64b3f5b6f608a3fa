"""Exact rational moments of the n-fold sum of a family member at a rational
theta (1 by default): the references of the moment, variance and
central-summary tests.

With a = alpha theta^k the member's weight is p = a/(a + k!), and the sum is
the Erlang mixture with weight C(n,r) a^(n-r) (k!)^r / (a + k!)^n on shape
s_r = n + k r and rate theta.  For rational theta and alpha its raw moments,
and the central moments taken from them, are exact Fractions (at theta = 1
every member has alpha = 1, and they are sums of integers over (1 + k!)^n);
nothing here reads the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache


@cache
def raw_moments(
    k: int, n: int, theta: Fraction = Fraction(1), alpha: Fraction = Fraction(1)
) -> tuple[Fraction, ...]:
    """E[S_n^m] for m = 0, ..., 4: the sum over r of C(n,r) a^(n-r) (k!)^r
    times the rising factorial s_r (s_r + 1) ... (s_r + m - 1), over
    (a + k!)^n theta^m, with a = alpha theta^k, in integers over a's denominator."""
    a = alpha * theta**k
    unit = math.factorial(k) * a.denominator  # k! written over a's denominator
    sums = [0] * 5
    coefficient = a.numerator**n  # C(n, r) a.numerator^(n-r) unit^r
    for r in range(n + 1):
        s = n + k * r
        for m in range(5):
            sums[m] += coefficient * math.prod(range(s, s + m))
        coefficient = coefficient * (n - r) * unit // ((r + 1) * a.numerator)
    total = (a.numerator + unit) ** n
    return tuple(Fraction(value, total) / theta**m for m, value in enumerate(sums))


def central_summaries(k: int, n: int) -> tuple[float, float, float]:
    """(variance, skewness, kurtosis) of S_n, rounded from exact values (the
    skewness through the square root of its exact square)."""
    _, m1, m2, m3, m4 = raw_moments(k, n)
    mu2 = m2 - m1**2
    mu3 = m3 - 3 * m1 * m2 + 2 * m1**3
    mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
    skewness = math.copysign(math.sqrt(mu3**2 / mu2**3), mu3)
    return float(mu2), skewness, float(mu4 / mu2**2)
