"""Independent cross-checks of every closed form in the package.

Each check pits a closed-form quantity against a route that shares no code
with it: the convolution integral f_n = f_{n-1} * f, folded by nested
quadrature one summand per level, for sum densities; adaptive quadrature for
moments (the normalization is the zeroth) and MTTFs; and sums drawn by the
core sampler's body, sums._draw_sums, into one pooled buffer, unshuffled,
then sorted in place and measured by the exact Kolmogorov-Smirnov distance
_ks_distance, for whole distributions.  The two routes are never collapsed;
a disagreement fails the check rather than being patched over.  The
mttf-reference/* rows hold the paper's MTTF table to the StandbyModel
systems that `lindsum mttf` prints.

verify_all() runs the registry, the one list of checks: rows of (check id,
measure, bound), where each measure returns only the value it measured and
the row states the bound.  It reports one record per check with the
measured value, its bound, and the check's wall time.  A measure that raises
(quadrature that cannot converge, say) gives an "error" record: the row's
bound, a NaN value (null in JSON) and the reason in detail.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from functools import cache, partial

from .family import (
    LINDLEY, MEMBERS, RAM_AWADH, AlphaKind, DistSpec, FamilyMember, check_count, member_by_name,
)
from .numerics import _LN_DOUBLE_MAX, QuadratureError, _Record, integrate, logsumexp, np
from .reliability import StandbyModel, lindley_mttf, lindley_reliability
from .sums import SumSpec, _draw_sums

__all__ = [
    "CheckResult",
    "DEFAULT_SEEDS",
    "MOMENT_BOUND",
    "VerificationReport",
    "VerifyConfig",
    "convolution_oracle_pdf",
    "quadrature_moment",
    "verify_all",
]

# Documented fixed seeds for the reproducible Monte Carlo checks.
DEFAULT_SEEDS = (7, 19, 37)

# The ks/* checks pool the seeds' samples of each (member, n) and hold the
# _KS_CASES cases of the full registry to one family-wise level by a Bonferroni
# band: P(D > c/sqrt(N)) <= 2 exp(-2 c^2) for every N (the DKW inequality), so
# c = sqrt(ln(2m/alpha)/2) puts each of m cases at alpha/m.  The level is the
# one the power study tests/ks_power.py chose: c = 1.779 (1.992 at 1%).
_MC_NS = (2, 5)
_KS_CASES = len(MEMBERS) * len(_MC_NS)
_KS_FAMILY_LEVEL = 0.05
_KS_FAMILY_COEFFICIENT = math.sqrt(math.log(2 * _KS_CASES / _KS_FAMILY_LEVEL) / 2)

# Relative error allowed between a closed-form moment and its quadrature, in
# the moments/* checks and in `lindsum moments --verify`.
MOMENT_BOUND = 1e-6

# Sorted points per run in _ks_distance's pruning, and the slack that covers
# the cdf's rounding when a run is bounded by its endpoints.
_KS_RUN = 128
_KS_SLACK = 1e-12

# Tolerance of the convolution oracle's outer quadrature; each inner level of
# the fold runs at a tenth of the tolerance around it.
_CONVOLUTION_TOL = 1e-9

# Relative tolerance of the tails/* quadratures, and so their bound: the
# closed form's own error, about 1e-15, is far below it.
_TAIL_TOL = 1e-10
# tails/upper/*: (member, n, t) at theta = 1, past theta t = 745, where
# e^{-theta t} underflows; t None for the mean
_UPPER_TAILS = {"ramawadh": (RAM_AWADH, 200, None), "lindley": (LINDLEY, 500, 1000.0)}

_THETAS = (0.5, 1.0, 2.0)
_SUM_NS = (1, 2, 3, 5, 10)
_ORACLE_NS = (2, 3)
_STANDBY_THETAS = (0.1, 0.5, 1.0, 3.0)
_STANDBY_N = 5
_GRID_POINTS = 101
_T_MAX = 100.0

# The system of n units that `lindsum mttf` prints and the paper's two-decimal
# MTTF table at theta = 0.1, 0.5, 1, 3 with n = 5 units.
_MTTF_REFERENCE = {
    "lindley": (lambda theta, n: StandbyModel.of(DistSpec(LINDLEY, theta), n),
                (95.45, 16.67, 7.5, 2.08)),
    "exponential": (StandbyModel.exponential, (50.0, 10.0, 5.0, 1.67)),
}


def _ks_band(count: int, coefficient: float) -> float:
    """The Kolmogorov band coefficient/sqrt(count)."""
    return coefficient / math.sqrt(count)


def _ks_distance(x: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Exact two-sided KS distance of the sorted, nonempty 1-d sample x.

    The cdf is evaluated only where the distance can be attained.  A
    nondecreasing F bounds every deviation in a run of sorted points lo..hi
    by its endpoints: i/N - F(x_i) <= (hi+1)/N - F(x_lo) and
    F(x_i) - (i-1)/N <= F(x_hi) - lo/N.  So F is taken at the ends of every
    run of _KS_RUN points, then, in one step, at the interiors of the runs
    whose bound (plus _KS_SLACK) beats the best deviation at the ends.  The
    distance is attained in one of those runs or at an end, so it is exact,
    and each point is evaluated at most once.

    cdf must be elementwise: it is called twice, on sorted points (the run
    ends, then the opened interiors, possibly none), and must return one value
    per point.  A NaN value, or one below the evaluated value before it by
    more than _KS_SLACK, raises ArithmeticError.
    """
    count = x.size
    lo = np.arange(0, count, _KS_RUN)
    hi = np.minimum(lo + _KS_RUN, count) - 1
    # lo and hi interleaved, less the repeat of a one-point last run
    ends = np.column_stack((lo, hi)).reshape(-1)
    ends = ends[np.r_[True, ends[1:] != ends[:-1]]]
    f_ends = _cdf_at(cdf, x, ends)
    _check_nondecreasing(x, ends, f_ends)
    best = _ks_deviation(ends, f_ends, count)
    f_lo, f_hi = f_ends[np.searchsorted(ends, lo)], f_ends[np.searchsorted(ends, hi)]
    bound = np.maximum((hi + 1.0) / count - f_lo, f_hi - lo / count)
    # the ends, and every point of the runs that could beat their best deviation
    keep = np.repeat(bound + _KS_SLACK > best, hi - lo + 1)
    keep[ends] = True
    index = np.flatnonzero(keep)
    inner = np.ones(index.size, dtype=bool)
    inner[np.searchsorted(index, ends)] = False
    f = np.empty(index.size)
    f[~inner] = f_ends
    f[inner] = _cdf_at(cdf, x, index[inner])
    _check_nondecreasing(x, index, f)
    return float(_ks_deviation(index, f, count))


def _cdf_at(
    cdf: Callable[[np.ndarray], np.ndarray], x: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """cdf at the sorted points x[index] in one call; ArithmeticError at a NaN value."""
    f = np.asarray(cdf(x[index]), dtype=float)
    nan = np.flatnonzero(np.isnan(f))
    if nan.size:
        k = index[nan[0]]
        raise ArithmeticError(f"cdf is NaN at sorted point {k} (x = {float(x[k])!r})")
    return f


def _check_nondecreasing(x: np.ndarray, index: np.ndarray, f: np.ndarray) -> None:
    """ArithmeticError if f falls by more than _KS_SLACK from one point to the next."""
    falls = np.diff(f) < -_KS_SLACK
    if falls.any():
        j = int(np.argmax(falls))
        k = index[j + 1]
        raise ArithmeticError(
            f"cdf decreases from {float(f[j])!r} to {float(f[j + 1])!r} "
            f"at sorted point {k} (x = {float(x[k])!r})"
        )


def _ks_deviation(index: np.ndarray, f: np.ndarray, count: int) -> float:
    """Largest one-sided KS deviation at the sorted points with these 0-based
    indices and cdf values."""
    i = index + 1.0
    return max((i / count - f).max(), (f - (i - 1.0) / count).max())


def convolution_oracle_pdf(spec: SumSpec, x: float) -> float:
    """Density of a member (n = 1) or of a 2- or 3-fold sum, with no Erlang mixture.

    At n = 1 the member's closed form c (a + x^k) e^{-theta x}, written nowhere
    else in the package; at n = 2 and 3 the convolution f_n = f_{n-1} * f,
    folded by the adaptive rule one summand per level, each inner level at a
    tenth of the tolerance around it (n <= 3 bounds the nested cost).  It
    shares no code with the mixture behind DistSpec.pdf and SumSpec.pdf, nor
    with the member's weights or constants, so the two are independent routes
    to the same number.  The integral runs over v = u/x on [0, 1], with each
    factor a + u^k divided by s = a + x^k, and its log is added to
    n ln c - theta x + n ln s + (n-1) ln x: the density holds where c^n,
    e^{-theta x} or x^k alone would leave double range.  c a at x = 0 for
    n = 1, else 0 for x <= 0 and at +inf; NaN at NaN.
    """
    if spec.n not in (1, 2, 3):
        raise ValueError(f"the convolution oracle supports n in {{1, 2, 3}}, got {spec.n}")
    member, theta, n = spec.dist.member, spec.dist.theta, spec.n
    k, ln_theta = member.degree, math.log(theta)
    ln_a = ln_theta if member.alpha_kind is AlphaKind.THETA else 0.0
    # ln c, c = theta^{k+1} / (a theta^k + k!), by a max shift
    ln_c = (k + 1) * ln_theta - logsumexp((ln_a + k * ln_theta, math.log(math.factorial(k))))
    x = float(x)
    if not 0.0 < x < math.inf:
        if x == 0.0 and n == 1:
            return math.exp(ln_c + ln_a)
        return x if math.isnan(x) else 0.0
    ln_x = math.log(x)
    ln_s = logsumexp((ln_a, k * ln_x))
    low, high = math.exp(ln_a - ln_s), math.exp(k * ln_x - ln_s)  # a/s and x^k/s

    def factor(v: float) -> float:
        return low + high * v**k

    def fold(m: int, width: float, tol: float) -> float:  # m-fold convolution at width
        rest = factor if m == 2 else lambda w: fold(m - 1, w, tol * 0.1)
        return integrate(lambda vs: [factor(v) * rest(width - v) for v in vs],
                         0.0, width, tol).value

    folded = 1.0 if n == 1 else fold(n, 1.0, _CONVOLUTION_TOL)
    return math.exp(n * (ln_c + ln_s) - theta * x + (n - 1) * ln_x + math.log(folded))


def quadrature_moment(spec: SumSpec, m: int) -> float:
    """Raw moment E[S^m] by quadrature of x^m pdf(x) over [0, inf).

    The integrand is taken as exp(m ln x + ln pdf(x) - m ln c), with c the
    mean-based scale hint of the quadrature (not the closed-form moment under
    test), and the integral is multiplied back by c^m in two halves.  So the
    rule's sums stay finite wherever the moment is, though x^m alone may
    overflow.  It is evaluated per node in Python floats, log_pdf's scalar
    route, so it loads no numpy; an exponent past double range gives inf.
    Raises QuadratureError when the quadrature cannot meet its tolerance.
    """
    log_pdf = spec.mixture().log_pdf
    c = spec.mean()  # change-of-variable hint only, no bias; unfloored, to reach mass far below 1
    shift = m * math.log(c)

    def integrand(points: list[float]) -> list[float]:
        exponents = [m * math.log(x) + log_pdf(x) - shift for x in points]
        return [math.inf if e > _LN_DOUBLE_MAX else math.exp(e) for e in exponents]

    scaled = integrate(integrand, 0.0, math.inf, scale=c).value
    half = c ** (0.5 * m)
    return scaled * half * half


class VerifyConfig(_Record):
    """Settings for verify_all: which checks run and how hard they push."""

    members: tuple[str, ...] | None = None
    only: tuple[str, ...] | None = None
    sample_count: int = 1_000_000  # Monte Carlo sums per seed; ks/* pools the seeds

    def __post_init__(self) -> None:
        for name in ("members", "only"):
            if isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a sequence of strings, not a bare str")
        object.__setattr__(self, "sample_count", check_count(self.sample_count, "sample_count", 1))


class CheckResult(_Record):
    """One verification record: the measured value against its bound, and the
    wall time the check took (not compared, so reruns compare equal)."""

    check_id: str
    status: str  # "pass", "fail", or "error"
    value: float
    bound: float
    detail: str = ""
    elapsed_s: float = 0.0

    _uncompared = ("elapsed_s",)


class VerificationReport(_Record):
    """All check results from one verify_all run."""

    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            suffix = f"  ({r.detail})" if r.detail else ""
            lines.append(
                f"{r.status.upper():5s} {r.check_id:28s} "
                f"value={r.value:.6g} bound={r.bound:.6g} elapsed={r.elapsed_s:.3g}s{suffix}"
            )
        return lines


def _relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _check_mttf_reference(model: str) -> float:
    system, expected = _MTTF_REFERENCE[model]
    pairs = zip(_STANDBY_THETAS, expected)
    return max(abs(system(theta, _STANDBY_N).mttf() - e) for theta, e in pairs)


def _standby_curves() -> np.ndarray:
    """Exponential, Lindley double-series and Lindley StandbyModel reliability of
    _STANDBY_N cold-standby units on the shared grid, each a row per theta."""
    grid = np.linspace(0.0, _T_MAX, _GRID_POINTS)
    return np.array([
        (StandbyModel.exponential(theta, _STANDBY_N).reliability(grid),
         lindley_reliability(theta, _STANDBY_N, grid),
         StandbyModel.of(DistSpec(LINDLEY, theta), _STANDBY_N).reliability(grid))
        for theta in _STANDBY_THETAS
    ]).swapaxes(0, 1)


def _check_dominance(curves: Callable[[], np.ndarray]) -> float:
    exponential, *lindley = curves()  # worst R_exponential - R_lindley
    return float(np.max(exponential - lindley))


def _check_dual_tail(curves: Callable[[], np.ndarray]) -> float:
    _, series, model = curves()
    return float(np.max(np.abs(series - model)))


def _check_dual_mttf() -> float:
    worst = 0.0
    for theta in _STANDBY_THETAS:
        for n in range(1, 6):
            closed = lindley_mttf(theta, n)
            numeric = integrate(
                partial(lindley_reliability, theta, n), 0.0, math.inf, scale=closed
            ).value
            worst = max(worst, _relative_error(numeric, closed))
    return worst


def _worst_over_specs(
    members: Sequence[FamilyMember],
    ns: Sequence[int],
    measure: Callable[[SumSpec], float],
) -> float:
    """Worst measure(spec) over the sums of every member, theta in _THETAS and n in ns."""
    return max(
        measure(SumSpec(DistSpec(member, theta), n))
        for member in members
        for theta in _THETAS
        for n in ns
    )


def _convolution_error(spec: SumSpec) -> float:
    grid = np.linspace(0.0, 5.0 * spec.mean(), 12)[1:-1]
    return max(
        _relative_error(spec.pdf(float(x)), convolution_oracle_pdf(spec, float(x))) for x in grid
    )


def _mass_error(spec: SumSpec) -> float:
    return abs(quadrature_moment(spec, 0) - 1.0)


def _moment_error(spec: SumSpec) -> float:
    return max(
        _relative_error(quadrature_moment(spec, m), spec.moment(m)) for m in range(1, 5)
    )


def _moment_form_error(spec: SumSpec) -> float:
    return max(_relative_error(spec.moment_series(m), spec.moment(m)) for m in range(4))


def _single_term_error(spec: SumSpec) -> float:
    """n = 1 against the member's closed form, the convolution oracle at n = 1:
    scalar calls on [0, 10/theta], then one vector call on [0, 20/theta]."""
    theta = spec.dist.theta
    points = np.linspace(0.0, 10.0 / theta, 21).tolist()
    grid = np.linspace(0.0, 20.0 / theta, 101)
    values = [spec.pdf(x) for x in points] + spec.pdf(grid).tolist()
    points += grid.tolist()
    return max(map(_relative_error, values, (convolution_oracle_pdf(spec, x) for x in points)))


def _weight_sum_error(spec: SumSpec) -> float:
    return abs(math.fsum(spec.mixture().weights) - 1.0)


# Rate of the Monte Carlo cases.  At theta = 1, Shanker and Ishita (alpha =
# theta) coincide with Lindley and Akash (alpha = 1) and would repeat their draws.
_MC_THETA = 2.0


def _monte_carlo(member: FamilyMember, n: int, count: int) -> tuple[float, float]:
    """The KS distance of (member, n) and its worst first/second-moment |z|.

    Each seed's count-point sample fills its segment of one buffer and gives
    its own moment |z|; the buffer is then sorted in place and the pooled
    sample of every seed gives the one KS distance, judged against the
    family-wise band of the ks/* rows."""
    spec = SumSpec(DistSpec(member, _MC_THETA), n)
    exact = {m: spec.moment(m) for m in range(1, 5)}
    pool = np.empty((len(DEFAULT_SEEDS), count))
    worst_z = 0.0
    for seed, samples in zip(DEFAULT_SEEDS, pool):
        _draw_sums(spec, np.random.default_rng(seed), samples)
        # the second moment without a squared copy of the sample; einsum's sum,
        # unlike a BLAS dot product, does not depend on the BLAS thread count
        square_sum = float(np.einsum("i,i->", samples, samples))
        for m, mean in zip((1, 2), (float(samples.mean()), square_sum / count)):
            se = math.sqrt((exact[2 * m] - exact[m] ** 2) / count)
            worst_z = max(worst_z, abs(mean - exact[m]) / se)
    pool = pool.reshape(-1)
    pool.sort()
    return _ks_distance(pool, spec.cdf), worst_z


def _check_stability() -> float:
    spec = SumSpec(DistSpec(RAM_AWADH, 1.0), 50)
    grid = np.linspace(0.0, 500.0, 1001)[1:]
    densities = np.asarray(spec.pdf(grid), dtype=float)
    tails = np.asarray(spec.survival(grid), dtype=float)
    if not (np.all(np.isfinite(densities)) and np.all(np.isfinite(tails))):
        raise ArithmeticError("non-finite density or survival value in the deep-sum regime")
    if np.any(densities < 0.0):
        raise ArithmeticError("negative density value in the deep-sum regime")
    return _mass_error(spec)


def _check_upper_tail(member: FamilyMember, n: int, t: float | None) -> float:
    """Survival against quadrature of the density over [t, inf)."""
    spec = SumSpec(DistSpec(member, 1.0), n)
    t = spec.mean() if t is None else t
    scale = math.sqrt(spec.variance())
    tail = integrate(spec.pdf, t, math.inf, tol=_TAIL_TOL, scale=scale).value
    return _relative_error(spec.survival(t), tail)


def _build_registry(cfg: VerifyConfig) -> list[tuple[str, Callable[[], float], float]]:
    """Every check as one (check id, measure, bound) row; a check passes when
    measure() <= bound.  Repeated members give their checks once."""
    if cfg.members is None:
        members = MEMBERS
    else:
        members = tuple(dict.fromkeys(member_by_name(name) for name in cfg.members))

    # (id prefix, n values, worst error of one sum, bound) of each per-member check
    per_member = (
        ("convolution", _ORACLE_NS, _convolution_error, 1e-6),
        ("normalization", _SUM_NS, _mass_error, 1e-8),
        ("moments", _SUM_NS, _moment_error, MOMENT_BOUND),
        ("moment-forms", range(1, 6), _moment_form_error, 1e-10),
    )
    # one (member, n) draw per seed serves its ks/* and mc-moments/* checks, one set of
    # standby curves dominance and lindley-dual/tail; each cache lives with this registry
    monte_carlo, curves = cache(_monte_carlo), cache(_standby_curves)
    ks_band = _ks_band(len(DEFAULT_SEEDS) * cfg.sample_count, _KS_FAMILY_COEFFICIENT)
    registry: list[tuple[str, Callable[[], float], float]] = [
        (f"mttf-reference/{model}", partial(_check_mttf_reference, model), 0.005)
        for model in _MTTF_REFERENCE
    ]
    registry.append(("dominance", partial(_check_dominance, curves), 0.0))
    registry.append(("lindley-dual/tail", partial(_check_dual_tail, curves), 1e-10))
    registry.append(("lindley-dual/mttf", _check_dual_mttf, 1e-6))
    for member in members:
        lower = member.name.lower()
        for prefix, ns, measure, bound in per_member:
            registry.append(
                (f"{prefix}/{lower}", partial(_worst_over_specs, (member,), ns, measure), bound)
            )
        for units in _MC_NS:
            pair = partial(monte_carlo, member, units, cfg.sample_count)
            registry.append((f"ks/{lower}/n{units}", lambda pair=pair: pair()[0], ks_band))
            registry.append((f"mc-moments/{lower}/n{units}", lambda pair=pair: pair()[1], 4.0))
    registry.append(("stability", _check_stability, 1e-6))
    for name, case in _UPPER_TAILS.items():
        registry.append((f"tails/upper/{name}", partial(_check_upper_tail, *case), _TAIL_TOL))
    registry.append(
        ("reductions/pdf", partial(_worst_over_specs, MEMBERS, (1,), _single_term_error), 1e-12)
    )
    registry.append(
        ("reductions/weights",
         partial(_worst_over_specs, MEMBERS, range(1, 21), _weight_sum_error), 1e-10)
    )

    if cfg.only is not None:
        registry = [row for row in registry if row[0].startswith(tuple(cfg.only))]
    return registry


def verify_all(config: VerifyConfig | None = None) -> VerificationReport:
    """Run every registered cross-check and collect one record per check.

    A check passes when its measured value is within its bound, fails when it
    is not, and reports status "error", with value NaN and the reason in
    detail, when its oracle could not converge or evaluation broke down.
    """
    cfg = config or VerifyConfig()
    np.ndarray  # completes numpy's load on first use before the first check's timer
    results = []
    for check_id, measure, bound in _build_registry(cfg):
        start = time.perf_counter()
        try:
            value, detail = measure(), ""
            status = "pass" if value <= bound else "fail"
        except (QuadratureError, ArithmeticError) as exc:
            status, value, detail = "error", math.nan, str(exc)
        elapsed = time.perf_counter() - start
        results.append(CheckResult(check_id, status, value, bound, detail, elapsed))
    return VerificationReport(tuple(results))
