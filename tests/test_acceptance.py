"""Acceptance gate: a view over one verify_all run at the default settings
(1e6 samples per Monte Carlo case, DEFAULT_SEEDS).

validation._build_registry is the one list of checks.  The gate pins its ids,
so a check dropped from the registry fails here, requires every record to
pass within its bound, and caps the summed elapsed_s of each group of checks.
Each group prints one PASS/FAIL line.
"""

from __future__ import annotations

import pytest

from lindsum.family import MEMBERS
from lindsum.validation import verify_all

PER_MEMBER_IDS = (
    "convolution/{}",
    "normalization/{}",
    "moments/{}",
    "moment-forms/{}",
    "ks/{}/n2",
    "mc-moments/{}/n2",
    "ks/{}/n5",
    "mc-moments/{}/n5",
)
CHECK_IDS = [
    "mttf-reference/lindley",
    "mttf-reference/exponential",
    "dominance",
    "lindley-dual/tail",
    "lindley-dual/mttf",
    *(check.format(m.name.lower()) for m in MEMBERS for check in PER_MEMBER_IDS),
    "stability",
    "reductions/pdf",
    "reductions/weights",
]

# check-id prefix -> the bound the package promises
BOUNDS = {
    "mttf-reference/": 0.005,
    "dominance": 0.0,
    "lindley-dual/tail": 1e-10,
    "lindley-dual/mttf": 1e-6,
    "convolution/": 1e-6,
    "normalization/": 1e-8,
    "moments/": 1e-6,
    "moment-forms/": 1e-10,
    "ks/": 1.63e-3,
    "mc-moments/": 4.0,
    "stability": 1e-6,
    "reductions/pdf": 1e-12,
    "reductions/weights": 1e-10,
}

# gate line -> (check-id prefixes, wall-clock cap in seconds or None)
GROUPS = {
    "mttf-reference-table": (("mttf-reference/",), 1.0),
    "reliability-dominance": (("dominance",), 1.0),
    "lindley-dual-routes": (("lindley-dual/",), 10.0),
    "convolution-oracle": (("convolution/",), 300.0),
    "normalization-and-moments": (("normalization/", "moments/", "moment-forms/"), 120.0),
    "monte-carlo": (("ks/", "mc-moments/"), 120.0),
    "large-sum-stability": (("stability",), 30.0),
    "reductions": (("reductions/",), None),
}


@pytest.fixture(scope="module")
def report():
    return verify_all()


def _gate(report, capsys, group: str) -> None:
    prefixes, cap = GROUPS[group]
    records = [r for r in report.results if r.check_id.startswith(prefixes)]
    elapsed = sum(r.elapsed_s for r in records)
    failed = [
        f"{r.check_id} {r.status} value={r.value:.3g} bound={r.bound:.3g} {r.detail}".rstrip()
        for r in records
        if not (r.status == "pass" and r.value <= r.bound)
    ]
    within_cap = cap is None or elapsed < cap
    passed = bool(records) and not failed and within_cap
    detail = f"{len(records)} checks, {elapsed:.2f}s" + ("" if cap is None else f" (cap {cap:g}s)")
    if failed:
        detail += "; " + "; ".join(failed)
    # bypass pytest's capture so the gate line lands in the real output
    with capsys.disabled():
        print(f"\n{'PASS' if passed else 'FAIL'} {group}: {detail}", flush=True)
    assert passed, f"{group}: {detail}"


class TestAcceptance:
    def test_registry_ids(self, report):
        """The registry runs exactly the pinned checks, in order."""
        assert [r.check_id for r in report.results] == CHECK_IDS
        assert all(
            sum(r.check_id.startswith(prefixes) for prefixes, _ in GROUPS.values()) == 1
            for r in report.results
        )

    def test_registry_bounds(self, report):
        """No bound of the registry is looser, or tighter, than promised."""
        for r in report.results:
            (bound,) = [b for prefix, b in BOUNDS.items() if r.check_id.startswith(prefix)]
            assert r.bound == bound, r.check_id

    def test_mttf_reference_table(self, report, capsys):
        _gate(report, capsys, "mttf-reference-table")

    def test_reliability_dominance(self, report, capsys):
        _gate(report, capsys, "reliability-dominance")

    def test_lindley_dual_routes(self, report, capsys):
        _gate(report, capsys, "lindley-dual-routes")

    def test_convolution_oracle_agreement(self, report, capsys):
        _gate(report, capsys, "convolution-oracle")

    def test_normalization_and_moment_quadrature(self, report, capsys):
        _gate(report, capsys, "normalization-and-moments")

    def test_monte_carlo_distribution(self, report, capsys):
        _gate(report, capsys, "monte-carlo")

    def test_large_sum_stability(self, report, capsys):
        _gate(report, capsys, "large-sum-stability")

    def test_single_term_and_weight_reductions(self, report, capsys):
        _gate(report, capsys, "reductions")
