"""Size and power of the ks/* gate of `lindsum verify`, by simulation.

    PYTHONPATH=src python tests/ks_power.py [--replications 100]

prints one Markdown table.  Each replication draws, for each (member, n)
Monte Carlo case of the verify registry at theta = 2, three samples of
VerifyConfig().sample_count sums, which stand in for the three
DEFAULT_SEEDS samples.  They are drawn here, exactly, by a sampler that
shares no code with the package's: the counts of R, the number of Erlang
summands, from one multinomial over scipy's Binomial(n, 1 - p) pmf, then
Gamma(n + k R) by shape.  Three rules judge each case against the package's
cdf at the member's true p:

  worst of three   any of the three KS distances above the 99% band
                   1.63/sqrt(N), the ks/* rule before the pooled band;
  pooled, alpha    the KS distance of the pooled 3N points above the
                   Bonferroni band c/sqrt(3N) over the 14 cases,
                   c = sqrt(ln(2 * 14 / alpha) / 2), at alpha = 1% and 5%.

The first row counts the replications in which at least one of the 14
cases is rejected though every sample is exact: the family-wise false-alarm
rate.  The other rows count the rejections of one case, exact (delta = 0)
or drawn with its member weight planted at p + delta: the power.  Every
stream is seeded from (ENTROPY, replication, case, shift, seed), so a run
repeats exactly.  Not collected by pytest: 100 replications take minutes.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np
from scipy import stats

from lindsum.family import AKASH, LINDLEY, MEMBERS, RAM_AWADH, DistSpec
from lindsum.sums import SumSpec
from lindsum.validation import (
    _KS_CASES, _MC_NS, _MC_THETA, DEFAULT_SEEDS, VerifyConfig, _ks_band, _ks_distance,
)

ENTROPY = 31
CASES = [(member, n) for member in MEMBERS for n in _MC_NS]
# the cases least and most sensitive to a shift of p, and one between
POWER_CASES = ((LINDLEY, 2), (AKASH, 5), (RAM_AWADH, 5))
SHIFTS = (0.0005, 0.001, 0.002, 0.003, 0.004)
LEVELS = (0.01, 0.05)
# the coefficient of the asymptotic two-sided Kolmogorov band at the 99% level
KS_99 = 1.63
RULES = (f"worst of three, {KS_99}/sqrt(N)", *(f"pooled, {a:.0%} family-wise" for a in LEVELS))


def draw(spec: SumSpec, p: float, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill out with exact draws of the sum with member weight p, grouped by shape."""
    n, k = spec.n, spec.dist.member.degree
    pmf = stats.binom.pmf(np.arange(n + 1), n, 1.0 - p)
    start = 0
    for r, count in enumerate(rng.multinomial(out.size, pmf / pmf.sum())):
        rng.standard_gamma(n + k * r, out=out[start:start + count])
        start += count
    out /= spec.dist.theta


def rejections(spec: SumSpec, p: float, seeds: list, pool: np.ndarray) -> list[bool]:
    """Whether each rule rejects the case, from three samples drawn with weight p."""
    count = pool.shape[1]
    for seed, segment in zip(seeds, pool):
        draw(spec, p, np.random.default_rng(seed), segment)
        segment.sort()
    worst = max(_ks_distance(segment, spec.cdf) for segment in pool)
    pooled = pool.reshape(-1)
    pooled.sort(kind="stable")  # merges the three sorted runs
    distance = _ks_distance(pooled, spec.cdf)
    bands = [_ks_band(pooled.size, math.sqrt(math.log(2 * _KS_CASES / a) / 2)) for a in LEVELS]
    return [worst > _ks_band(count, KS_99), *(distance > band for band in bands)]


def study(replications: int, count: int) -> list[tuple[str, str, list[int]]]:
    """(case, delta, rejections per rule) rows, the family-wise row first."""
    pool = np.empty((len(DEFAULT_SEEDS), count))
    family = [0] * len(RULES)
    single = {(case, d): [0] * len(RULES) for case in POWER_CASES for d in (0.0, *SHIFTS)}
    for rep in range(replications):
        print(f"replication {rep + 1} of {replications}", file=sys.stderr, flush=True)
        any_case = [False] * len(RULES)
        for c, (member, n) in enumerate(CASES):
            spec = SumSpec(DistSpec(member, _MC_THETA), n)
            p = spec.dist.mixture_weight
            for s, delta in enumerate((0.0, *SHIFTS) if (member, n) in POWER_CASES else (0.0,)):
                seeds = [[ENTROPY, rep, c, s, i] for i in range(len(DEFAULT_SEEDS))]
                rejected = rejections(spec, p + delta, seeds, pool)
                if delta == 0.0:
                    any_case = [a or r for a, r in zip(any_case, rejected)]
                if ((member, n), delta) in single:
                    hits = single[(member, n), delta]
                    single[(member, n), delta] = [h + r for h, r in zip(hits, rejected)]
        family = [f + a for f, a in zip(family, any_case)]
    return [(f"all {len(CASES)} cases", "0", family)] + [
        (f"{member.name} n={n}", f"{delta:g}", hits) for ((member, n), delta), hits in single.items()
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replications", type=int, default=100)
    args = parser.parse_args()
    count = VerifyConfig().sample_count
    rows = study(args.replications, count)
    print(f"KS gate at N = {count} sums per seed, {args.replications} replications "
          f"(rejections / replications)\n")
    print("| case | delta | " + " | ".join(RULES) + " |")
    print("|---|---|" + "---|" * len(RULES))
    for case, delta, hits in rows:
        print(f"| {case} | {delta} | " + " | ".join(f"{h}/{args.replications}" for h in hits) + " |")


if __name__ == "__main__":
    main()
