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
numerics.ErlangMixture from them; the member's density, tails and moments are
those of sum_mixture(1).  The closed form c (alpha + x^k) e^{-theta x} is kept
apart, as validation.convolution_oracle_pdf at n = 1, and DistSpec.sample,
the composition oracle of sums.sample_sum, uses none of the mixture code.
check_positive and check_count (from numerics, re-exported here) are the one
check of each kind of parameter (a positive finite real, a count with a lower
bound); check_theta and check_n apply them to theta and n.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property

from .numerics import (
    _LN_DOUBLE_MAX, _LN_DOUBLE_MIN, ErlangMixture, _Record, check_count, check_positive,
    ln_factorial, np,
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


class FamilyMember(_Record):
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


class DistSpec(_Record):
    """A family member frozen at a rate theta > 0; its distribution is SumSpec(dist, 1)."""

    member: FamilyMember
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", check_theta(self.theta))

    @property
    def alpha(self) -> float:
        """Constant term of the density polynomial (1 or theta)."""
        return 1.0 if self.member.alpha_kind is AlphaKind.UNIT else self.theta

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
        on Erlang(n + k*r, theta), walked from 1 at the mode floor((n+1)(1-p)) by
        w_{r+1}/w_r = (n-r)/(r+1) q/p until it underflows, then normalised with
        fsum.  q/p = k!/(alpha theta^k) is taken in double where it and p/q are
        normal (exactly at dyadic theta), else from ln q - ln p."""
        n, k = check_n(n), self.member.degree
        ln_p, ln_q = self.ln_weights
        if abs(ln_q - ln_p) < -_LN_DOUBLE_MIN:
            head, tail = self.alpha * self.theta**k, math.factorial(k)
            odds = (tail / head, head / tail)
        else:
            odds = tuple(math.exp(min(d, _LN_DOUBLE_MAX)) for d in (ln_q - ln_p, ln_p - ln_q))
        mode = min(n, math.floor((n + 1) * math.exp(ln_q)))
        weights = [0.0] * (n + 1)
        weights[mode] = 1.0
        for step, ratio in zip((1, -1), odds):
            w, r = 1.0, mode
            while 0 <= r + step <= n and w > 0.0:
                w *= ((n - r) / (r + 1) if step > 0 else r / (n - r + 1)) * ratio
                r += step
                weights[r] = w
        total = math.fsum(weights)
        return ErlangMixture(
            self.theta, tuple(w / total for w in weights), tuple(n + k * r for r in range(n + 1))
        )

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
