"""Tests for the verification layer: the KS distance, the numerical
convolution oracle, the Monte Carlo sampler, and the verify_all runner."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
import test_family
from mpmath_oracle import SumOracle
from scipy.stats import binom, ks_2samp
from test_acceptance import BOUNDS, CHECK_IDS

import lindsum.validation
from lindsum.cli import main
from lindsum.family import LINDLEY, MEMBERS, RAM_AWADH, SHANKER, DistSpec
from lindsum.reliability import StandbyModel
from lindsum.sums import SumSpec, sample_sum
from lindsum.validation import (
    DEFAULT_SEEDS,
    VerifyConfig,
    _ks_band,
    _ks_distance,
    convolution_oracle_pdf,
    verify_all,
)


_KS_RUN = lindsum.validation._KS_RUN
# the asymptotic two-sided Kolmogorov band at the 99% level is 1.63/sqrt(N)
_KS_99 = 1.63

# every registry row whose measure runs adaptive quadrature
QUADRATURE_IDS = [
    check_id for check_id in CHECK_IDS
    if check_id.startswith(("convolution/", "normalization/", "moments/", "tails/upper/",
                            "lindley-dual/mttf", "stability"))
]


def _one_pass_ks_distance(samples, cdf):
    # reference: the whole sorted sample through the cdf in one call
    x = np.sort(np.asarray(samples, dtype=float))
    count = x.size
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, count + 1, dtype=float)
    return float(max((i / count - f).max(), (f - (i - 1.0) / count).max()))


def _grouped_reference(spec, rng, size):
    # reference: the sampler's stream as one expression, from scipy's binomial
    # pmf of R: one multinomial draw of R's counts, one gamma call per count
    # in increasing R, divided by theta, then shuffled
    d, n = spec.dist, spec.n
    return rng.permutation(np.concatenate([
        rng.standard_gamma(n + d.member.degree * r, count)
        for r, count in enumerate(
            rng.multinomial(size, binom.pmf(np.arange(n + 1), n, 1.0 - d.mixture_weight)))
        if count
    ]) / d.theta)


def _sorted_distance(samples, cdf):
    # the ks/* route: _ks_distance on the sorted sample (here a sorted copy)
    return _ks_distance(np.sort(np.asarray(samples, dtype=float)), cdf)


def _uniform_cdf(x):
    return np.clip(x, 0.0, 1.0)


def _grid_sample(count=10 * _KS_RUN):
    # sorted midpoints of [0, 1]: every run's bound beats the best deviation,
    # so the cdf is evaluated at every point
    return (np.arange(count) + 0.5) / count


class TestKsStatistic:
    def test_uniform_sample_passes(self):
        rng = np.random.default_rng(11)
        assert _sorted_distance(rng.random(100_000), _uniform_cdf) <= _ks_band(100_000, _KS_99)

    def test_degenerate_sample_fails(self):
        # all draws at zero against a continuous cdf: distance is exactly 1
        distance = _sorted_distance(np.zeros(50), lambda x: 1.0 - np.exp(-x))
        assert distance == 1.0
        assert distance > _ks_band(50, _KS_99)

    def test_single_point_at_median(self):
        distance = _sorted_distance([math.log(2.0)], lambda x: 1.0 - np.exp(-x))
        np.testing.assert_allclose(distance, 0.5, rtol=1e-12)

    @pytest.mark.parametrize("presorted", [False, True], ids=["unsorted", "sorted"])
    # B = 16384 = 2**14: sizes around a power of two and three times it
    @pytest.mark.parametrize(
        "count",
        [1, 2, _KS_RUN - 1, _KS_RUN, _KS_RUN + 1, 16383, 16384, 16385, 49159],
        ids=["1", "2", "R-1", "R", "R+1", "B-1", "B", "B+1", "3B+7"],
    )
    def test_blocked_distance_equals_one_pass(self, count, presorted):
        spec = SumSpec(DistSpec(RAM_AWADH, 2.0), 5)
        samples = sample_sum(spec, np.random.default_rng(count), count)
        if presorted:
            samples.sort()  # in place, as the ks/* pool is
        sizes = []

        def cdf(x):
            sizes.append(x.size)
            return spec.cdf(x)

        assert _sorted_distance(samples, cdf) == _one_pass_ks_distance(samples, spec.cdf)
        assert len(sizes) <= 2
        assert sum(sizes) <= count

    def test_each_point_evaluated_at_most_once(self):
        spec = SumSpec(DistSpec(LINDLEY, 2.0), 2)
        samples = sample_sum(spec, np.random.default_rng(3), 49159)
        seen = []
        _sorted_distance(samples, lambda x: seen.append(x.copy()) or spec.cdf(x))
        seen = np.concatenate(seen)
        assert np.unique(seen).size == seen.size

    @pytest.mark.parametrize(
        "samples",
        [np.zeros(50), np.ones(300), np.repeat([0.25, 0.5, 0.75], 200),
         np.random.default_rng(2).integers(0, 10, 5000) / 10.0],
        ids=["zeros", "ones", "three-values", "tenths"],
    )
    def test_ties_match_one_pass(self, samples):
        distance = _sorted_distance(samples, _uniform_cdf)
        assert distance == _one_pass_ks_distance(samples, _uniform_cdf)

    @pytest.mark.parametrize("seed", DEFAULT_SEEDS)
    def test_verify_sample_needs_few_cdf_points(self, seed):
        # one seed's share of the ks/ramawadh/n5 pool, shuffled: the exact
        # distance from under 15% of the points
        spec = SumSpec(DistSpec(RAM_AWADH, 2.0), 5)
        samples = sample_sum(spec, np.random.default_rng(seed), 1_000_000)
        sizes = []

        def cdf(x):
            sizes.append(x.size)
            return spec.cdf(x)

        assert _sorted_distance(samples, cdf) == _one_pass_ks_distance(samples, spec.cdf)
        assert len(sizes) <= 2
        assert sum(sizes) < 0.15 * samples.size

    def test_decreasing_cdf_raises(self):
        # run ends are evaluated first: 0, then 127
        with pytest.raises(ArithmeticError, match="decreases .* sorted point 127 "):
            _ks_distance(_grid_sample(), lambda x: 1.0 - x)

    def test_decrease_inside_a_run_raises(self):
        x = _grid_sample()
        with pytest.raises(ArithmeticError, match="decreases .* sorted point 200 "):
            _ks_distance(x, lambda t: np.where(t == x[200], t - 0.01, t))

    def test_rounding_size_decrease_allowed(self):
        x = _grid_sample()

        def cdf(t):
            return np.where(t == x[200], x[199] - 1e-13, t)

        assert _ks_distance(x, cdf) == _one_pass_ks_distance(x, cdf)

    @pytest.mark.parametrize("where", [0, 200, 10 * _KS_RUN - 1])
    def test_nan_cdf_raises(self, where):
        x = _grid_sample()
        with pytest.raises(ArithmeticError, match=f"NaN at sorted point {where} "):
            _ks_distance(x, lambda t: np.where(t == x[where], math.nan, t))

    def test_nan_sample_raises(self):
        # a NaN sorts last
        with pytest.raises(ArithmeticError, match="NaN at sorted point 1 "):
            _sorted_distance([math.nan, 0.5], _uniform_cdf)


class TestConvolutionOracle:
    def test_frozen_lindley_pair_value(self):
        # direct convolution at x=1, theta=1: (1/4) e^{-1} (1 + 1 + 1/6)
        value = convolution_oracle_pdf(SumSpec(DistSpec(LINDLEY, 1.0), 2), 1.0)
        np.testing.assert_allclose(value, 0.25 * math.exp(-1.0) * (13.0 / 6.0), rtol=1e-9)

    def test_matches_closed_form_across_members(self):
        for member in MEMBERS:
            for n in (2, 3):
                spec = SumSpec(DistSpec(member, 1.0), n)
                for x in (0.8, spec.mean(), 2.5 * spec.mean()):
                    oracle = convolution_oracle_pdf(spec, float(x))
                    np.testing.assert_allclose(
                        spec.pdf(float(x)), oracle, rtol=1e-6
                    ), (member.name, n, x)

    @pytest.mark.parametrize("member", [LINDLEY, SHANKER], ids=lambda m: m.name)
    @pytest.mark.parametrize("theta", [1e-100, 1e-200])
    @pytest.mark.parametrize("n", [2, 3])
    def test_small_theta_against_mpmath(self, member, theta, n):
        # c^n and e^{-theta x} (a + x^k)^n leave double range apart, not together
        dist = DistSpec(member, theta)
        oracle = SumOracle(theta, dist.alpha, member.degree, n)
        for x in (1.0 / theta, 2.0 / theta, 5.0 / theta):
            truth = oracle.pdf(x)
            assert truth > 0.0
            np.testing.assert_allclose(convolution_oracle_pdf(SumSpec(dist, n), x), truth, rtol=1e-10)

    def test_nonpositive_argument(self):
        spec = SumSpec(DistSpec(SHANKER, 1.0), 2)
        assert convolution_oracle_pdf(spec, 0.0) == 0.0
        assert convolution_oracle_pdf(spec, -2.0) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_edge_arguments(self, n):
        # 0 below zero and at +inf, NaN at NaN, as every density route gives
        spec = SumSpec(DistSpec(RAM_AWADH, 1.3), n)
        assert convolution_oracle_pdf(spec, -2.0) == 0.0
        assert convolution_oracle_pdf(spec, math.inf) == 0.0
        assert math.isnan(convolution_oracle_pdf(spec, math.nan))

    @pytest.mark.parametrize("member", MEMBERS, ids=lambda m: m.name)
    def test_single_term_against_mpmath(self, member):
        # the grid of test_family.TestDensityAcrossTheta, x = 0 (c alpha) included
        grid = test_family.TestDensityAcrossTheta
        checked = 0
        for theta in grid.THETAS:
            dist = DistSpec(member, theta)
            spec, oracle = SumSpec(dist, 1), SumOracle(theta, dist.alpha, member.degree, 1)
            for x in (y / theta for y in grid.SCALED_X):
                truth = oracle.pdf(x)
                if truth < 1e-300:
                    continue
                got = convolution_oracle_pdf(spec, x)
                assert abs(got - truth) <= 1e-12 * truth, (theta, x, got, truth)
                checked += 1
        assert checked == grid.CHECKED[member.name]

    def test_four_terms_rejected(self):
        with pytest.raises(ValueError, match="n in {1, 2, 3}, got 4"):
            convolution_oracle_pdf(SumSpec(DistSpec(LINDLEY, 1.0), 4), 1.0)


class TestSampleSum:
    def test_deterministic_for_equal_seeds(self):
        spec = SumSpec(DistSpec(RAM_AWADH, 1.0), 3)
        a = sample_sum(spec, np.random.default_rng(7), 500)
        b = sample_sum(spec, np.random.default_rng(7), 500)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (500,)

    def test_mean_within_four_standard_errors(self):
        spec = SumSpec(DistSpec(LINDLEY, 1.0), 5)
        count = 200_000
        draws = sample_sum(spec, np.random.default_rng(19), count)
        se = math.sqrt(spec.variance() / count)
        assert abs(float(draws.mean()) - spec.mean()) <= 4.0 * se

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises(self):
        spec = SumSpec(DistSpec(LINDLEY, 1e-308), 5)
        with pytest.raises(OverflowError, match=r"theta=1e-308, n=5 .*beyond double range"):
            sample_sum(spec, np.random.default_rng(7), 2)

    def test_without_size_one_float(self):
        spec = SumSpec(DistSpec(RAM_AWADH, 1.0), 3)
        draw = sample_sum(spec, np.random.default_rng(7))
        assert type(draw) is float
        assert draw == sample_sum(spec, np.random.default_rng(7), 1)[0]

    def test_nonnegative(self):
        draws = sample_sum(SumSpec(DistSpec(SHANKER, 2.0), 2), np.random.default_rng(3), 1000)
        assert np.all(draws >= 0.0)

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 50])
    @pytest.mark.parametrize("member", MEMBERS, ids=lambda m: m.name)
    def test_stream_matches_reference(self, member, n, theta):
        spec = SumSpec(DistSpec(member, theta), n)
        draws = sample_sum(spec, np.random.default_rng(n), 1000)
        reference = _grouped_reference(spec, np.random.default_rng(n), 1000)
        np.testing.assert_array_equal(draws, reference)

    def test_draws_are_exchangeable(self):
        # _draw_sums leaves the draws grouped by R, in increasing R; after the
        # shuffle the first half and the second half are one law
        spec = SumSpec(DistSpec(RAM_AWADH, 2.0), 5)
        draws = sample_sum(spec, np.random.default_rng(5), 100_000)
        assert ks_2samp(draws[:50_000], draws[50_000:]).pvalue > 1e-4

    @pytest.mark.parametrize("n", [10**6, 10**9])
    def test_sums_at_huge_n(self, n):
        # R's pmf is kept only near its mean, so n = 1e9 costs O(sqrt(n)); the
        # mean and the spread of the sums, n E[X] and n Var[X], stay exact
        dist = DistSpec(LINDLEY, 1.0)
        mean, variance = dist.moment(1), dist.moment(2) - dist.moment(1) ** 2
        draws = sample_sum(SumSpec(dist, n), np.random.default_rng(n), 2000)
        assert abs(draws.mean() - n * mean) <= 4.0 * math.sqrt(n * variance / 2000)
        assert 0.9 < draws.std() / math.sqrt(n * variance) < 1.1

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("member", MEMBERS, ids=lambda m: m.name)
    def test_matches_composition_oracle(self, member, n, theta):
        # the per-summand composition sampler, summed row by row, is an
        # independent route to the same distribution.  Each case gets its own
        # streams, so the 28 cases are independent tests; at p > 1e-4 a correct
        # sampler fails one of them with probability about 0.3%.
        count = 50_000
        spec = SumSpec(DistSpec(member, theta), n)
        case = np.random.SeedSequence([MEMBERS.index(member), n, round(10 * theta)])
        oracle_rng, sum_rng = (np.random.default_rng(s) for s in case.spawn(2))
        oracle = spec.dist.sample(oracle_rng, (count, n)).sum(axis=1)
        draws = sample_sum(spec, sum_rng, count)
        assert ks_2samp(draws, oracle).pvalue > 1e-4


class TestVerifyAll:
    def test_fast_slice_passes(self):
        report = verify_all(
            VerifyConfig(only=("mttf-reference", "dominance", "lindley-dual", "reductions"))
        )
        ids = [r.check_id for r in report.results]
        assert ids == [
            "mttf-reference/lindley",
            "mttf-reference/exponential",
            "dominance",
            "lindley-dual/tail",
            "lindley-dual/mttf",
            "reductions/pdf",
            "reductions/weights",
        ]
        assert report.all_passed
        for r in report.results:
            assert r.status == "pass" and r.value <= r.bound

    @pytest.mark.parametrize("model", ["lindley", "exponential"])
    def test_mttf_reference_measures_the_printed_systems(self, model):
        # the paper's two-decimal table against the StandbyModel means that
        # `lindsum mttf` prints, not against the closed forms
        table = {"lindley": (95.45, 16.67, 7.5, 2.08), "exponential": (50.0, 10.0, 5.0, 1.67)}
        systems = {
            "lindley": lambda theta: StandbyModel.of(DistSpec(LINDLEY, theta), 5),
            "exponential": lambda theta: StandbyModel.exponential(theta, 5),
        }
        (result,) = verify_all(VerifyConfig(only=(f"mttf-reference/{model}",))).results
        assert result.value == max(
            abs(systems[model](theta).mttf() - e)
            for theta, e in zip((0.1, 0.5, 1.0, 3.0), table[model])
        )

    def test_member_filter_limits_ids(self):
        report = verify_all(
            VerifyConfig(members=("shanker",), only=("moment-forms", "convolution"))
        )
        assert [r.check_id for r in report.results] == [
            "convolution/shanker",
            "moment-forms/shanker",
        ]
        assert report.all_passed

    def test_monte_carlo_checks_at_reduced_size(self):
        report = verify_all(
            VerifyConfig(
                members=("lindley",),
                only=("ks/lindley/n2", "mc-moments/lindley/n2"),
                sample_count=20_000,
            )
        )
        assert len(report.results) == 2
        assert report.all_passed

    def test_ks_band_follows_the_sample_count(self):
        # the registry states the ks/* bound: the family-wise band of the three
        # seeds' pooled samples, over the 14 cases of the full registry, so the
        # member filter and --only leave it as it is
        count = 20_000
        report = verify_all(
            VerifyConfig(members=("lindley", "ramawadh"), only=("ks",), sample_count=count)
        )
        band = math.sqrt(math.log(2 * 14 / 0.05) / 2) / math.sqrt(3 * count)
        assert [r.bound for r in report.results] == [band] * 4
        assert report.all_passed
        (alone,) = verify_all(
            VerifyConfig(members=("akash",), only=("ks/akash/n5",), sample_count=count)
        ).results
        assert alone.bound == band

    def test_repeated_members_give_each_check_once(self):
        report = verify_all(
            VerifyConfig(members=("lindley", "LINDLEY", " Lindley"), only=("moment-forms",))
        )
        assert [r.check_id for r in report.results] == ["moment-forms/lindley"]

    def test_nan_cdf_reports_error(self, monkeypatch):
        # a cdf breakdown in the KS pass is an error record, not a NaN "fail"
        monkeypatch.setattr(SumSpec, "cdf", lambda self, x: np.full(np.shape(x), math.nan))
        report = verify_all(
            VerifyConfig(members=("lindley",), only=("ks/lindley/n2",), sample_count=20_000)
        )
        (result,) = report.results
        assert result.status == "error"
        assert "cdf is NaN at sorted point 0" in result.detail

    @pytest.mark.parametrize(
        "method, value, reason",
        [("pdf", math.nan, "non-finite density or survival value"),
         ("survival", math.inf, "non-finite density or survival value"),
         ("pdf", -1e-300, "negative density value")],
        ids=["nan-density", "infinite-survival", "negative-density"],
    )
    def test_stability_breakdown_reports_error(self, monkeypatch, method, value, reason):
        monkeypatch.setattr(SumSpec, method, lambda self, x: np.full(np.shape(x), value))
        (result,) = verify_all(VerifyConfig(only=("stability",))).results
        assert (result.status, result.bound) == ("error", 1e-6)
        assert math.isnan(result.value)
        assert result.detail == f"{reason} in the deep-sum regime"

    def test_unconverged_quadrature_reports_error(self, unconverged_quadrature):
        # quadrature that cannot meet its tolerance must surface as an
        # explicit error record, never as a silent pass
        report = verify_all(VerifyConfig(only=("normalization/lindley",)))
        (result,) = report.results
        assert result.status == "error"
        assert not report.all_passed
        assert result.detail != ""

    @pytest.mark.parametrize("check_id", QUADRATURE_IDS)
    def test_error_record_keeps_its_rows_bound(self, unconverged_quadrature, check_id):
        # an error record is an ordinary record whose measure raised: the row's
        # bound, no value, and the quadrature failure in detail
        (result,) = verify_all(VerifyConfig(only=(check_id,))).results
        assert result.check_id == check_id
        assert result.status == "error"
        assert math.isnan(result.value)
        (bound,) = [b for prefix, b in BOUNDS.items() if check_id.startswith(prefix)]
        assert result.bound == bound
        assert result.detail.startswith("quadrature did not converge")

    def test_monte_carlo_sample_drawn_once_per_call(self, monkeypatch):
        calls = []
        real = lindsum.validation._draw_sums

        def counting(spec, rng, out):
            calls.append((spec.dist.member.name, spec.n))
            return real(spec, rng, out)

        monkeypatch.setattr(lindsum.validation, "_draw_sums", counting)
        config = VerifyConfig(
            members=("lindley",), only=("ks", "mc-moments"), sample_count=20_000
        )
        first = verify_all(config)
        # one draw per n in {2, 5} and seed, shared by the ks and mc-moments checks
        assert len(calls) == 2 * len(DEFAULT_SEEDS)
        assert sorted(set(calls)) == [("Lindley", 2), ("Lindley", 5)]
        assert [r.check_id for r in first.results] == [
            "ks/lindley/n2",
            "mc-moments/lindley/n2",
            "ks/lindley/n5",
            "mc-moments/lindley/n5",
        ]
        assert first.all_passed
        # nothing carries over between calls: the second one draws again
        second = verify_all(config)
        assert len(calls) == 4 * len(DEFAULT_SEEDS)
        assert second == first

    def test_monte_carlo_cases_are_distinct_distributions(self):
        # at theta = 1 Shanker equals Lindley and Ishita equals Akash, and
        # their Monte Carlo checks would repeat each other digit for digit
        report = verify_all(
            VerifyConfig(
                members=("lindley", "shanker", "akash", "ishita"),
                only=("ks",),
                sample_count=20_000,
            )
        )
        values = [r.value for r in report.results]
        assert len(values) == 8 and len(set(values)) == 8
        assert report.all_passed

    @pytest.mark.parametrize("only", ["ks/lindley/n2", "mc-moments/lindley/n2"])
    def test_monte_carlo_checks_run_alone(self, only):
        report = verify_all(
            VerifyConfig(members=("lindley",), only=(only,), sample_count=20_000)
        )
        (result,) = report.results
        assert result.check_id == only
        assert result.status == "pass" and 0.0 < result.value <= result.bound

    def test_standby_curves_built_once_per_call(self, monkeypatch):
        calls = []
        real = lindsum.validation._standby_curves

        def counting():
            calls.append(None)
            return real()

        monkeypatch.setattr(lindsum.validation, "_standby_curves", counting)
        both = verify_all(VerifyConfig(only=("dominance", "lindley-dual/tail")))
        assert len(calls) == 1 and both.all_passed
        # each check still runs alone, on curves of its own, to the same value
        alone = [verify_all(VerifyConfig(only=(only,))).results[0]
                 for only in ("dominance", "lindley-dual")]
        assert len(calls) == 3
        assert [(r.check_id, r.value) for r in alone] == [
            (r.check_id, r.value) for r in both.results
        ]

    def test_default_seeds_are_fixed(self):
        assert DEFAULT_SEEDS == (7, 19, 37)

    def test_to_lines_format(self):
        report = verify_all(VerifyConfig(only=("mttf-reference",)))
        lines = report.to_lines()
        assert len(lines) == 2
        assert lines[0].startswith("PASS ") and "mttf-reference/lindley" in lines[0]
        assert "value=" in lines[0] and "bound=" in lines[0]

    def test_json_round_trip(self, capsys):
        assert main(["verify", "--only", "reductions", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["check_id"] for r in records] == ["reductions/pdf", "reductions/weights"]
        for record in records:
            assert set(record) == {"check_id", "status", "value", "bound", "detail", "elapsed_s"}
            assert record["status"] == "pass"
            assert record["elapsed_s"] >= 0.0

    def test_json_error_record_carries_detail(self, capsys, unconverged_quadrature):
        report = verify_all(VerifyConfig(only=("normalization/lindley",)))
        assert main(["verify", "--only", "normalization/lindley", "--format", "json"]) == 1
        (record,) = json.loads(capsys.readouterr().out)
        assert record["status"] == "error"
        assert record["detail"] != ""
        assert record["detail"] == report.results[0].detail

    def test_json_uses_null_for_non_finite(self, capsys, unconverged_quadrature):
        assert main(["verify", "--only", "normalization/lindley", "--format", "json"]) == 1
        (record,) = json.loads(capsys.readouterr().out)
        assert record["status"] == "error"
        assert record["value"] is None

    def test_unknown_member_rejected(self):
        with pytest.raises(ValueError):
            verify_all(VerifyConfig(members=("weibull",)))
