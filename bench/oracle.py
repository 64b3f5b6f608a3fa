"""Independent oracle for the benchmark.  Shares no code with src/lindsum.

The n-fold sum of a family member with degree k and rate theta is the
binomial Erlang mixture

    S_n ~ sum_r w_r Erlang(n + k r, theta),   w_r = C(n, r) p^(n-r) (1-p)^r,
    p = alpha theta^k / (alpha theta^k + k!),  alpha = 1 or theta,

so the oracle builds w_r in log space from gammaln, takes survival as
sum w_r * gammaincc and the density as a log-sum-exp over gamma.logpdf.
The member table below restates the paper's definitions; it is not
imported from the package under test.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import special, stats

# (degree k, whether the constant term alpha is theta rather than 1)
MEMBERS = {
    "lindley": (1, False),
    "shanker": (1, True),
    "akash": (2, False),
    "ishita": (2, True),
    "pranav": (3, True),
    "rani": (4, True),
    "ramawadh": (5, True),
}

# An evaluation agrees when |got - want| <= RTOL*|want| + ATOL*scale, with
# scale the largest oracle value of its batch (1 for probabilities).
RTOL = 1e-8
ATOL = 1e-12
# The oracle itself must match mpmath to this relative error.
SELF_CHECK_RTOL = 1e-10


class SumOracle:
    """Weights, density, survival and moments of one n-fold sum."""

    def __init__(self, member: str, theta: float, n: int):
        k, alpha_is_theta = MEMBERS[member]
        ln_theta = math.log(theta)
        ln_head = (ln_theta if alpha_is_theta else 0.0) + k * ln_theta
        ln_kfact = float(special.gammaln(k + 1))
        ln_total = float(np.logaddexp(ln_head, ln_kfact))
        ln_p, ln_q = ln_head - ln_total, ln_kfact - ln_total
        r = np.arange(n + 1, dtype=float)
        self.log_weights = (
            special.gammaln(n + 1) - special.gammaln(r + 1) - special.gammaln(n - r + 1)
            + (n - r) * ln_p + r * ln_q
        )
        self.weights = np.exp(self.log_weights)
        self.shapes = n + k * r
        self.theta = float(theta)

    def moment(self, m: int) -> float:
        ln_terms = (
            self.log_weights
            + special.gammaln(self.shapes + m) - special.gammaln(self.shapes)
        )
        return float(np.exp(special.logsumexp(ln_terms) - m * math.log(self.theta)))

    def mean(self) -> float:
        return self.moment(1)

    def survival(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = self.theta * np.clip(t, 0.0, None)
        return special.gammaincc(self.shapes[:, None], x[None, :]).T @ self.weights

    def pdf(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        logs = stats.gamma.logpdf(
            t[None, :], a=self.shapes[:, None], scale=1.0 / self.theta
        )
        return np.exp(special.logsumexp(logs + self.log_weights[:, None], axis=0))


def disagreements(got, want, scale: float | None = None) -> int:
    """Count entries of got that miss want by more than the tolerance."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if scale is None:
        scale = float(np.max(np.abs(want))) if want.size else 1.0
    ok = np.abs(got - want) <= RTOL * np.abs(want) + ATOL * scale
    return int(np.count_nonzero(~ok))


def self_check() -> list[str]:
    """Compare the oracle's special functions with mpmath, including points
    past rate*t = 745 where exp(-rate*t) underflows.  Returns the failures."""
    import mpmath

    mpmath.mp.dps = 40
    problems = []
    for a, x in ((1, 0.5), (5, 3.0), (51, 40.0), (300, 250.0),
                 (1000, 900.0), (2600, 2500.0), (3001, 2800.0)):
        want = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        got = float(special.gammaincc(a, x))
        if abs(got - want) > SELF_CHECK_RTOL * abs(want):
            problems.append(f"gammaincc({a}, {x}) = {got!r}, mpmath {want!r}")
        want_pdf = float(mpmath.exp((a - 1) * mpmath.log(x) - x - mpmath.loggamma(a)))
        got_pdf = float(np.exp(stats.gamma.logpdf(x, a)))
        if abs(got_pdf - want_pdf) > SELF_CHECK_RTOL * abs(want_pdf):
            problems.append(f"gamma.pdf({x}; {a}) = {got_pdf!r}, mpmath {want_pdf!r}")

    # one whole mixture, at its mean, where rate*t is about 1000
    oracle = SumOracle("lindley", 1.0, 500)
    t = oracle.mean()
    want = float(mpmath.fsum(
        mpmath.binomial(500, r) * mpmath.mpf(2) ** -500
        * mpmath.gammainc(500 + r, t, mpmath.inf, regularized=True)
        for r in range(501)
    ))
    got = float(oracle.survival(t)[0])
    if abs(got - want) > SELF_CHECK_RTOL * abs(want):
        problems.append(f"lindley n=500 survival at the mean = {got!r}, mpmath {want!r}")
    return problems


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_cli_output(command: dict, stdout: str) -> list[str]:
    """Check one CLI call's stdout against the oracle.  Returns the problems."""
    kind = command["kind"]
    try:
        if kind == "mttf":
            return _check_mttf(command, _csv_rows(stdout))
        if kind == "pdf":
            return _check_pdf(command, _csv_rows(stdout))
        if kind == "reliability":
            return _check_reliability(command, _csv_rows(stdout))
        if kind == "sample":
            return _check_sample(command, stdout)
        if kind in ("moments", "moments_verify"):
            return _check_moments(command, _csv_rows(stdout))
    except (KeyError, ValueError) as exc:
        return [f"{kind}: unreadable output ({exc!r})"]
    raise ValueError(f"unknown command kind {kind!r}")


def _check_mttf(command, rows):
    n = command["n"]
    thetas = np.array(command["thetas"])
    if len(rows) != len(thetas):
        return [f"mttf: {len(rows)} rows for {len(thetas)} rates"]
    lindley = np.array([float(r["mttf_lindley"]) for r in rows])
    expo = np.array([float(r["mttf_exponential"]) for r in rows])
    bad = disagreements(lindley, n * (2 + thetas) / (thetas * (1 + thetas)), 0.0)
    bad += disagreements(expo, n / thetas, 0.0)
    return [f"mttf: {bad} values disagree"] if bad else []


def _check_pdf(command, rows):
    oracle = SumOracle(command["member"], command["theta"], command["n"])
    if len(rows) != command["points"]:
        return [f"pdf: {len(rows)} rows, expected {command['points']}"]
    x = np.array([float(r["x"]) for r in rows])
    survival = oracle.survival(x)
    bad = disagreements([float(r["pdf"]) for r in rows], oracle.pdf(x))
    bad += disagreements([float(r["survival"]) for r in rows], survival, 1.0)
    bad += disagreements([float(r["cdf"]) for r in rows], 1.0 - survival, 1.0)
    return [f"pdf: {bad} values disagree"] if bad else []


def _check_reliability(command, rows):
    oracle = SumOracle("lindley", command["theta"], command["n"])
    if len(rows) != command["points"]:
        return [f"reliability: {len(rows)} rows, expected {command['points']}"]
    t = np.array([float(r["t"]) for r in rows])
    bad = disagreements([float(r["R_lindley"]) for r in rows], oracle.survival(t), 1.0)
    bad += disagreements(
        [float(r["R_exponential"]) for r in rows],
        special.gammaincc(command["n"], command["theta"] * t),
        1.0,
    )
    return [f"reliability: {bad} values disagree"] if bad else []


def _check_sample(command, stdout):
    draws = np.array([float(v) for v in stdout.split()])
    if draws.size != command["count"]:
        return [f"sample: {draws.size} lines, expected {command['count']}"]
    if not np.all(np.isfinite(draws) & (draws > 0)):
        return ["sample: a draw is not a positive finite number"]
    oracle = SumOracle(command["member"], command["theta"], command["n"])
    mean, second = oracle.moment(1), oracle.moment(2)
    z = abs(draws.mean() - mean) / math.sqrt((second - mean * mean) / draws.size)
    # six standard errors: a correct sampler misses this about once in 5e8 runs
    return [f"sample: mean is {z:.1f} standard errors off"] if z > 6.0 else []


def _check_moments(command, rows):
    oracle = SumOracle(command["member"], command["theta"], command["n"])
    values = {r["statistic"]: float(r["value"]) for r in rows}
    want = {f"moment[{m}]": oracle.moment(m) for m in range(1, 5)}
    if command["kind"] == "moments":
        mean = want["moment[1]"]
        want["mean"] = mean
        want["variance"] = want["moment[2]"] - mean * mean
    else:
        quadrature = {r["statistic"]: float(r["quadrature"]) for r in rows}
        off = [s for s, v in want.items() if abs(quadrature[s] - v) > 1e-6 * v]
        if off:
            return [f"moments --verify: quadrature column off at {off}"]
    bad = sum(disagreements(values[s], v, 0.0) for s, v in want.items())
    return [f"{command['kind']}: {bad} values disagree"] if bad else []
