"""One-parameter lifetime distributions with density c(theta) * (alpha + x^k) * e^{-theta x}.

Seven named members share this shape and differ only in the polynomial degree
k and in whether the constant term alpha is 1 or theta itself:

    member     k  alpha     density
    Lindley    1  1         theta^2/(theta+1)       * (1 + x)     * e^{-theta x}
    Shanker    1  theta     theta^2/(theta^2+1)     * (theta+x)   * e^{-theta x}
    Akash      2  1         theta^3/(theta^2+2)     * (1 + x^2)   * e^{-theta x}
    Ishita     2  theta     theta^3/(theta^3+2)     * (theta+x^2) * e^{-theta x}
    Pranav     3  theta     theta^4/(theta^4+6)     * (theta+x^3) * e^{-theta x}
    Rani       4  theta     theta^5/(theta^5+24)    * (theta+x^4) * e^{-theta x}
    RamAwadh   5  theta     theta^6/(theta^6+120)   * (theta+x^5) * e^{-theta x}

Every member is the two-component mixture

    p * Exp(theta) + (1 - p) * Erlang(k+1, theta),
    p = alpha*theta^k / (alpha*theta^k + k!),

and the sum of n draws puts weight C(n,r) p^(n-r) (1-p)^r on Erlang(n+k*r, theta).
DistSpec derives (ln p, ln(1-p)) once, from the log-odds ln(alpha*theta^k/k!), so
both are finite for every finite theta, and sum_mixture builds every such
numerics.ErlangMixture from them.  The density, in log space, and the
composition sampler stay independent of the mixture code they help check.
check_positive and check_count (from numerics, re-exported here) are the one
check of each kind of parameter (a positive finite real, a count with a lower
bound); check_theta and check_n apply them to theta and n.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import (
    ErlangMixture, _pointwise, check_count, check_positive, ln_binomial, ln_factorial, logsumexp,
)

__all__ = [
    "AKASH",
    "AlphaKind",
    "DistSpec",
    "FamilyMember",
    "ISHITA",
    "LINDLEY",
    "MEMBERS",
    "PRANAV",
    "RAM_AWADH",
    "RANI",
    "SHANKER",
    "check_count",
    "check_n",
    "check_positive",
    "check_theta",
    "member_by_name",
]


class AlphaKind(enum.Enum):
    """Whether the density polynomial's constant term is 1 or the rate theta."""

    UNIT = "unit"
    THETA = "theta"


@dataclass(frozen=True)
class FamilyMember:
    """A named member: polynomial degree plus the kind of its constant term."""

    name: str
    degree: int
    alpha_kind: AlphaKind


LINDLEY = FamilyMember("Lindley", 1, AlphaKind.UNIT)
SHANKER = FamilyMember("Shanker", 1, AlphaKind.THETA)
AKASH = FamilyMember("Akash", 2, AlphaKind.UNIT)
ISHITA = FamilyMember("Ishita", 2, AlphaKind.THETA)
PRANAV = FamilyMember("Pranav", 3, AlphaKind.THETA)
RANI = FamilyMember("Rani", 4, AlphaKind.THETA)
RAM_AWADH = FamilyMember("RamAwadh", 5, AlphaKind.THETA)

MEMBERS: tuple[FamilyMember, ...] = (
    LINDLEY, SHANKER, AKASH, ISHITA, PRANAV, RANI, RAM_AWADH,
)

_BY_NAME = {m.name.lower(): m for m in MEMBERS}


def member_by_name(name: str) -> FamilyMember:
    """Look up a member by its canonical name, case-insensitively."""
    member = _BY_NAME.get(name.strip().lower())
    if member is None:
        known = ", ".join(m.name for m in MEMBERS)
        raise ValueError(f"unknown family member {name!r}; expected one of: {known}")
    return member


def check_theta(theta: float) -> float:
    """theta as a float if it is a positive finite real; else ValueError."""
    return check_positive(theta, "theta")


def check_n(n: int) -> int:
    """n as an int if it is an integer >= 1; else TypeError or ValueError."""
    return check_count(n, "n", 1)


def _divide_draws(draws: np.ndarray, theta: float, n: int) -> np.ndarray:
    """draws /= theta, the unit-rate draws of n-fold sums scaled in place;
    OverflowError, naming theta and n, where one passes the largest double."""
    try:
        with np.errstate(over="raise"):
            draws /= theta
    except FloatingPointError:
        raise OverflowError(f"draws at theta={theta!r}, n={n} are beyond double range") from None
    return draws


@dataclass(frozen=True)
class DistSpec:
    """A family member frozen at a particular rate theta > 0."""

    member: FamilyMember
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", check_theta(self.theta))

    @property
    def alpha(self) -> float:
        """Constant term of the density polynomial (1 or theta)."""
        return 1.0 if self.member.alpha_kind is AlphaKind.UNIT else self.theta

    @property
    def norm_const(self) -> float:
        """Normalizing constant theta^{k+1} / (alpha*theta^k + k!), finite at every
        finite theta; it underflows with theta^{k+1}, so pdf works in logs instead."""
        k, theta = self.member.degree, self.theta
        if theta <= 1.0:
            return theta ** (k + 1) / (self.alpha * theta**k + math.factorial(k))
        return theta / (self.alpha + math.factorial(k) * theta**-k)

    @cached_property
    def ln_weights(self) -> tuple[float, float]:
        """(ln p, ln(1-p)) from the log-odds x = ln(alpha*theta^k/k!) as
        (-ln(1 + e^-x), -ln(1 + e^x)): finite for every finite theta."""
        k = self.member.degree
        x = math.log(self.alpha) + k * math.log(self.theta) - ln_factorial(k)
        shared = math.log1p(math.exp(-abs(x)))  # ln(1 + e^y) = max(y, 0) + shared, y = +-x
        return -max(-x, 0.0) - shared, -max(x, 0.0) - shared

    @property
    def mixture_weight(self) -> float:
        """Exponential-component weight p = alpha*theta^k / (alpha*theta^k + k!)."""
        return math.exp(self.ln_weights[0])

    def sum_mixture(self, n: int) -> ErlangMixture:
        """Erlang mixture of the sum of n IID draws: weight C(n,r) p^{n-r} (1-p)^r
        on Erlang(n + k*r, theta), built in log space."""
        n, k = check_n(n), self.member.degree
        ln_p, ln_q = self.ln_weights
        log_w = [ln_binomial(n, r) + (n - r) * ln_p + r * ln_q for r in range(n + 1)]
        total = logsumexp(log_w)
        weights = tuple(math.exp(v - total) for v in log_w)
        return ErlangMixture(self.theta, weights, tuple(n + k * r for r in range(n + 1)))

    @cached_property
    def _mixture(self) -> ErlangMixture:
        return self.sum_mixture(1)

    @cached_property
    def _log_pdf_terms(self) -> tuple[float, float, float, float]:
        # f = theta (a + y^k) / (a + k!) e^{-y}, y = theta x, a = alpha theta^k, in logs:
        # ln(a + y^k) and ln(a + k!) are both shifted by s = max(ln a, ln k!), so no
        # term overflows or underflows before the one exp, and the two large logs of
        # a large theta cancel exactly.  Gives ln(theta/(a + k!)) + s, ln a - s, s, f(0)
        k, theta = self.member.degree, self.theta
        ln_a = math.log(self.alpha) + k * math.log(theta)
        ln_kf = math.log(math.factorial(k))
        shift = max(ln_a, ln_kf)
        ln_scale = math.log(theta) - math.log(math.exp(ln_a - shift) + math.exp(ln_kf - shift))
        return ln_scale, ln_a - shift, shift, float(np.exp(ln_scale + (ln_a - shift)))

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Density at x; zero for x < 0, at +inf and where theta*x overflows,
        NaN at NaN.  Taken in log space, so it holds at every finite theta
        where norm_const or e^{-theta x} alone would underflow."""
        at_zero = self._log_pdf_terms[3]
        return _pointwise(x, self.theta, self._pdf_series, (0.0, at_zero, 0.0))

    def _pdf_series(self, points: np.ndarray) -> np.ndarray:
        ln_scale, ln_a, shift, _ = self._log_pdf_terms
        y = self.theta * points
        # theta x can underflow to 0 at x > 0, where y^k is 0
        ln_yk = self.member.degree * np.log(y, out=np.full_like(y, -math.inf), where=y > 0.0)
        return np.exp(ln_scale + np.logaddexp(ln_a, ln_yk - shift) - y)

    def survival(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(X > x), evaluated through the exponential/Erlang mixture."""
        return self._mixture.survival(x)

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(X <= x), the exact complement of survival."""
        return self._mixture.cdf(x)

    def moment(self, m: int) -> float:
        """Raw moment E[X^m] = p * m!/theta^m + (1-p) * (m+k)!/(k! theta^m)."""
        return self._mixture.moment(m)

    def sample(
        self,
        rng: np.random.Generator,
        size: int | tuple[int, ...] | None = None,
    ) -> float | np.ndarray:
        """Exact draws by composition: Exp(theta) with probability p, else the
        sum of k+1 independent Exp(theta) variates.  Identical seeds give
        identical output.  size is a count >= 1 or a tuple of them; OverflowError
        where a draw passes the largest double."""
        if size is None:
            return float(self.sample(rng, size=1)[0])
        if isinstance(size, tuple):
            if not size:
                raise ValueError("size must be a nonempty tuple of counts, got ()")
            size = tuple(check_count(dim, "size", 1) for dim in size)
        else:
            size = check_count(size, "size", 1)
        u = rng.random(size)
        out = rng.standard_exponential(size)
        erlang = u >= self.mixture_weight
        count = int(np.count_nonzero(erlang))
        if count:
            out[erlang] = rng.standard_exponential((count, self.member.degree + 1)).sum(axis=1)
        return _divide_draws(out, self.theta, 1)
