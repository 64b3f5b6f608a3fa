"""Tests for cold-standby reliability: the Lindley double series, exponential
baselines, the Lindley MTTF closed form, and the systems' reliability curves."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath_oracle import SumOracle

from lindsum.family import LINDLEY, MEMBERS, SHANKER, DistSpec
from lindsum.numerics import ErlangMixture, integrate
from lindsum.reliability import (
    StandbyModel,
    _lindley_log_coefficients,
    lindley_mttf,
    lindley_reliability,
)
from lindsum.sums import SumSpec

THETAS = (0.1, 0.5, 1.0, 3.0)


class TestLindleyReliability:
    def test_certain_at_time_zero(self):
        for theta in THETAS:
            for n in (1, 3, 5):
                assert lindley_reliability(theta, n, 0.0) == 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            lindley_reliability(1.0, 2, -0.1)

    @pytest.mark.parametrize("theta,n", [(0.0, 1), (-1.0, 1), (math.inf, 1), (1.0, 0)])
    def test_bad_parameters_rejected(self, theta, n):
        with pytest.raises(ValueError):
            lindley_reliability(theta, n, 1.0)

    def test_single_unit_closed_form(self):
        # one unit: R(t) = e^{-theta t} (1 + theta t/(1+theta))
        for theta in THETAS:
            for t in (0.2, 1.0, 4.0, 20.0):
                expected = math.exp(-theta * t) * (1.0 + theta * t / (1.0 + theta))
                np.testing.assert_allclose(
                    lindley_reliability(theta, 1, t), expected, rtol=1e-13
                )

    def test_frozen_value(self):
        np.testing.assert_allclose(
            lindley_reliability(1.0, 1, 1.0), 1.5 * math.exp(-1.0), rtol=1e-14
        )

    def test_double_series_matches_sum_survival(self):
        # same quantity by two unrelated routes: the explicit double series
        # versus the Erlang-mixture tail of the n-fold sum
        for theta in THETAS:
            for n in (1, 2, 3, 4, 5):
                spec = SumSpec(DistSpec(LINDLEY, theta), n)
                for t in np.linspace(0.0, 100.0, 101):
                    series = lindley_reliability(theta, n, float(t))
                    mixture = float(spec.survival(float(t)))
                    assert abs(series - mixture) <= 1e-10, (theta, n, t)

    def test_array_matches_pointwise(self):
        t = np.array([[0.0, 0.5, 3.0], [20.0, math.inf, math.nan]])
        values = lindley_reliability(0.5, 4, t)
        assert values.shape == t.shape
        pointwise = [lindley_reliability(0.5, 4, float(v)) for v in t.ravel()]
        assert all(type(v) is float for v in pointwise)
        np.testing.assert_allclose(values.ravel(), pointwise, rtol=1e-14)
        assert values[0, 0] == 1.0 and values[1, 1] == 0.0

    def test_zero_where_theta_t_overflows(self):
        # theta * 1e308 overflows at theta = 2; the series must give 0, not warn
        assert lindley_reliability(2.0, 3, 1e308) == 0.0
        np.testing.assert_array_equal(
            lindley_reliability(2.0, 3, np.array([1e308, 1.0])),
            [0.0, lindley_reliability(2.0, 3, 1.0)],
        )

    def test_negative_time_in_array_rejected(self):
        with pytest.raises(ValueError, match="-0.1"):
            lindley_reliability(1.0, 2, np.array([1.0, -0.1]))

    def test_bounded_and_monotone(self):
        values = [lindley_reliability(0.5, 4, t) for t in np.linspace(0.0, 60.0, 200)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "theta,n,t,expected",
        [
            (1.0, 5, 5.0, 0.7948786942920119),
            (0.5, 3, 2.5, 0.9820243446488617),
            (2.0, 50, 30.0, 0.77003358934004),
            (0.1, 12, 150.0, 0.9617869671333654),
            (3.0, 1, 0.7, 0.18674605308579748),
            (1e-3, 7, 4000.0, 0.9999222819088481),
            (1.0, 200, 220.0, 0.9999984888446298),
        ],
    )
    def test_values_pinned(self, theta, n, t, expected):
        # the values the series gave when it rebuilt its coefficients on every
        # call; the cached table must reproduce them bit for bit, cold and warm
        _lindley_log_coefficients.cache_clear()
        assert lindley_reliability(theta, n, t) == expected
        assert lindley_reliability(theta, n, t) == expected

    def test_array_values_pinned(self):
        t = np.array([0.25, 1.0, 3.0, 9.0])
        expected = [0.9999556602126877, 0.9913674951566329, 0.7412037665162569, 0.02586116199888076]
        assert lindley_reliability(1.3, 4, t).tolist() == expected
        grid = np.array([[1.0, 10.0], [30.0, 60.0]])
        expected = [[1.0, 0.9999999990694866], [0.974213068688668, 0.05415871353689056]]
        assert lindley_reliability(0.7, 20, grid).tolist() == expected

    def test_coefficients_built_once_per_theta_and_n(self):
        lindley_reliability(0.37, 9, 2.0)
        before = _lindley_log_coefficients.cache_info()
        lindley_reliability(0.37, 9, np.array([1.0, 4.0]))
        lindley_reliability(0.37, 9, 7.5)
        after = _lindley_log_coefficients.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)

    def test_cached_coefficients_read_only(self):
        lindley_reliability(0.37, 9, 2.0)
        with pytest.raises(ValueError, match="read-only"):
            _lindley_log_coefficients(0.37, 9)[0] = 0.0


@pytest.mark.parametrize(
    "reliability",
    [
        lambda t: lindley_reliability(1.0, 3, t),
        lambda t: StandbyModel.exponential(1.0, 3).reliability(t),
        lambda t: StandbyModel.of(DistSpec(LINDLEY, 1.0), 3).reliability(t),
    ],
    ids=["lindley_reliability", "exponential_reliability", "StandbyModel"],
)
def test_nan_and_infinite_times(reliability):
    # every route: NaN at NaN (min(1.0, nan) would say 1.0) and 0 at +inf
    assert math.isnan(reliability(math.nan))
    assert reliability(math.inf) == 0.0


class TestLindleyMttf:
    def test_exact_rationals(self):
        np.testing.assert_allclose(lindley_mttf(1.0, 1), 1.5, rtol=0)
        np.testing.assert_allclose(lindley_mttf(0.1, 5), 10.5 / 0.11, rtol=1e-15)
        np.testing.assert_allclose(lindley_mttf(0.5, 5), 12.5 / 0.75, rtol=1e-15)
        np.testing.assert_allclose(lindley_mttf(1.0, 5), 7.5, rtol=0)
        np.testing.assert_allclose(lindley_mttf(3.0, 5), 25.0 / 12.0, rtol=1e-15)

    def test_equals_integral_of_reliability(self):
        for theta in THETAS:
            for n in (1, 3, 5):
                mttf = lindley_mttf(theta, n)
                numeric = integrate(
                    lambda t: lindley_reliability(theta, n, t),
                    0.0,
                    math.inf,
                    1e-8,
                    scale=mttf,
                ).value
                np.testing.assert_allclose(mttf, numeric, rtol=1e-6)

    def test_equals_sum_mean(self):
        for theta in THETAS:
            for n in (2, 5):
                np.testing.assert_allclose(
                    lindley_mttf(theta, n),
                    SumSpec(DistSpec(LINDLEY, theta), n).mean(),
                    rtol=1e-12,
                )

    @pytest.mark.parametrize("theta,n", [(1e308, 5), (4e307, 5), (1e300, 10**9)])
    def test_numerator_past_double_range(self, theta, n):
        # n (2 + theta) overflows, but the MTTF is a normal double: the
        # correctly rounded exact rational
        exact = Fraction(n) * (2 + Fraction(theta)) / (Fraction(theta) * (1 + Fraction(theta)))
        assert lindley_mttf(theta, n) == float(exact)


# theta from 1e-200 to 1e300, across the 1.3e154 where theta^2 overflows
EXTREME_THETAS = (1e-200, 1.0, 1e154, 1e200, 1e300)


class TestLindleyClosedFormsAcrossTheta:
    """The double series and the MTTF closed form stay finite and accurate for
    theta anywhere in double range."""

    @pytest.mark.parametrize("theta", EXTREME_THETAS)
    @pytest.mark.parametrize("n", [1, 5, 20])
    @pytest.mark.parametrize("scaled_t", [0.1, 1.0, 5.0, 20.0])
    def test_reliability_matches_mpmath(self, theta, n, scaled_t):
        t = scaled_t / theta
        expected = SumOracle(theta, 1.0, 1, n).survival(t)
        np.testing.assert_allclose(lindley_reliability(theta, n, t), expected, rtol=1e-12)

    @pytest.mark.parametrize("theta", EXTREME_THETAS)
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_mttf_matches_mpmath(self, theta, n):
        expected = SumOracle(theta, 1.0, 1, n).mean()
        np.testing.assert_allclose(lindley_mttf(theta, n), expected, rtol=1e-14)

    def test_large_theta_values(self):
        np.testing.assert_allclose(lindley_reliability(1e200, 5, 1e-200), 0.99634, rtol=1e-5)
        np.testing.assert_allclose(lindley_mttf(1e200, 5), 5e-200, rtol=1e-14)

    def test_mttf_routes_agree_near_the_top_of_double_range(self):
        # about 1e301 at theta = 1e-300; as theta -> 0 the Lindley MTTF tends to
        # twice the exponential one
        theta = 1e-300
        routes = (
            lindley_mttf(theta, 5),
            StandbyModel.of(DistSpec(LINDLEY, theta), 5).mttf(),
            2.0 * StandbyModel.exponential(theta, 5).mttf(),
        )
        assert all(math.isfinite(mttf) for mttf in routes)
        np.testing.assert_allclose(routes[1:], routes[0], rtol=1e-13)

    @pytest.mark.parametrize(
        "mttf",
        [
            lambda theta: lindley_mttf(theta, 5),
            lambda theta: StandbyModel.exponential(theta, 5).mttf(),
            lambda theta: StandbyModel.of(DistSpec(LINDLEY, theta), 5).mttf(),
        ],
        # the exponential system under the id of the closed form n/theta it replaced
        ids=["lindley_mttf", "exponential_mttf", "StandbyModel"],
    )
    def test_mttf_beyond_double_range_raises(self, mttf):
        with pytest.raises(OverflowError, match="beyond double range"):
            mttf(1e-308)


class TestExponentialStandbyFunctions:
    def test_single_unit_is_pure_exponential(self):
        np.testing.assert_allclose(
            StandbyModel.exponential(1.0, 1).reliability(2.0), math.exp(-2.0), rtol=1e-14
        )

    def test_erlang_tail_value(self):
        # n=5, theta=1, t=5: e^{-5} * sum_{i<5} 5^i/i!
        expected = math.exp(-5.0) * (1.0 + 5.0 + 12.5 + 125.0 / 6.0 + 625.0 / 24.0)
        np.testing.assert_allclose(
            StandbyModel.exponential(1.0, 5).reliability(5.0), expected, rtol=1e-13
        )

    def test_mttf_formula(self):
        assert StandbyModel.exponential(0.1, 5).mttf() == 50.0
        assert StandbyModel.exponential(1.0, 1).mttf() == 1.0
        np.testing.assert_allclose(StandbyModel.exponential(3.0, 5).mttf(), 5.0 / 3.0, rtol=1e-15)

    def test_mttf_equals_integral_of_reliability(self):
        for theta, n in [(0.5, 3), (2.0, 5)]:
            numeric = integrate(
                StandbyModel.exponential(theta, n).reliability,
                0.0,
                math.inf,
                1e-8,
                scale=n / theta,
            ).value
            np.testing.assert_allclose(n / theta, numeric, rtol=1e-6)


class TestMttfTable:
    """The paper's MTTF table, from the Lindley closed form and the exponential system."""

    def test_reference_rows(self):
        np.testing.assert_allclose(
            [lindley_mttf(theta, 5) for theta in THETAS],
            [10.5 / 0.11, 12.5 / 0.75, 7.5, 25.0 / 12.0],
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            [StandbyModel.exponential(theta, 5).mttf() for theta in THETAS],
            [50.0, 10.0, 5.0, 5.0 / 3.0],
            rtol=1e-14,
        )

    def test_lindley_always_ahead(self):
        # ratio (2+theta)/(1+theta) > 1 for every positive rate
        for theta in (0.01, 0.1, 1.0, 10.0, 100.0):
            assert lindley_mttf(theta, 4) > StandbyModel.exponential(theta, 4).mttf()


class TestStandbyModels:
    def test_label(self):
        model = StandbyModel.of(DistSpec(LINDLEY, 1.0), 5)
        assert model.label == "lindley theta=1 n=5"
        assert StandbyModel.exponential(0.5, 3).label == "exponential theta=0.5 n=3"

    def test_reliability_delegates_to_sum_survival(self):
        dist = DistSpec(SHANKER, 0.7)
        model = StandbyModel.of(dist, 4)
        spec = SumSpec(dist, 4)
        ts = np.linspace(0.0, 40.0, 50)
        np.testing.assert_array_equal(model.reliability(ts), spec.survival(ts))
        np.testing.assert_allclose(model.mttf(), spec.mean(), rtol=0)

    def test_exponential_model_values(self):
        model = StandbyModel.exponential(1.0, 5)
        # e^{-5} * sum_{i<5} 5^i/i!
        expected = math.exp(-5.0) * (1.0 + 5.0 + 12.5 + 125.0 / 6.0 + 625.0 / 24.0)
        np.testing.assert_allclose(model.reliability(5.0), expected, rtol=1e-14)
        assert model.reliability(-1.0) == 1.0
        assert model.mttf() == 5.0

    def test_fields_checked_at_construction(self):
        # the removed StandbyModel(dist, n) form fails at once, naming the constructors
        for label, mixture in [(DistSpec(LINDLEY, 1.0), 5), ("x", 5),
                               (5, ErlangMixture(1.0, (1.0,), (3,)))]:
            with pytest.raises(TypeError, match=r"StandbyModel\.of\(dist, n\) or "
                                                r"StandbyModel\.exponential\(theta, n\)"):
                StandbyModel(label, mixture)
        system = StandbyModel("three units", ErlangMixture(1.0, (1.0,), (3,)))
        assert system.mttf() == 3.0

    def test_exponential_mixture_is_the_one_field(self):
        # the constructor builds the mixture once; repeated calls read that field
        system = StandbyModel.exponential(0.7, 5)
        mixture = system.mixture
        assert mixture == ErlangMixture(0.7, (1.0,), (5,))
        first = system.reliability(3.0)
        assert system.reliability(3.0) == first and system.mttf() == system.mttf()
        assert system.mixture is mixture
        assert vars(system).keys() == {"label", "mixture"}
        assert system == StandbyModel.exponential(0.7, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            StandbyModel.of(DistSpec(LINDLEY, 1.0), 0)
        with pytest.raises(ValueError):
            StandbyModel.exponential(-1.0, 2)


class TestMttfOverTheDomain:
    """Every MTTF route against the 50-digit mean of the n-fold sum, for any
    member, theta log-uniform on [1e-200, 1e200] and n up to 1000."""

    domain = given(
        member=st.sampled_from(MEMBERS),
        theta=st.floats(-200.0, 200.0).map(lambda e: 10.0**e),
        n=st.integers(1, 1000),
    )

    @domain
    @settings(max_examples=40, deadline=None)
    def test_routes_match_mpmath(self, member, theta, n):
        dist = DistSpec(member, theta)
        expected = SumOracle(theta, dist.alpha, member.degree, n).mean()
        routes = [StandbyModel.of(dist, n).mttf(), SumSpec(dist, n).mean()]
        if member is LINDLEY:
            routes.append(lindley_mttf(theta, n))
        np.testing.assert_allclose(routes, expected, rtol=1e-12, atol=0.0)

    @domain
    @settings(max_examples=40, deadline=None)
    def test_mixture_mean_is_exact(self, member, theta, n):
        # the mean is the fsum of w_r s_r over the rate, not e^(its log): within
        # an ulp of the 50-digit mean, and exactly n / theta for exponential units
        dist = DistSpec(member, theta)
        expected = SumOracle(theta, dist.alpha, member.degree, n).mean()
        np.testing.assert_allclose(SumSpec(dist, n).mean(), expected, rtol=1e-15, atol=0.0)
        assert StandbyModel.exponential(theta, n).mttf() == n / theta

    @domain
    @settings(max_examples=40, deadline=None)
    def test_first_moment_is_the_mean(self, member, theta, n):
        # moment(1) is the exact mean bit for bit, not e^(its log)
        spec = SumSpec(DistSpec(member, theta), n)
        assert spec.moment(1) == spec.mean()
        for mixture in (spec.mixture(), StandbyModel.exponential(theta, n).mixture):
            assert mixture.moment(1) == mixture.mean()


class TestReliabilityCurve:
    """The systems' reliability on the grid `lindsum reliability` uses by default."""

    grid = np.linspace(0.0, 100.0, 101)

    def test_grid_and_endpoints(self):
        for model in (StandbyModel.of(DistSpec(LINDLEY, 0.5), 5), StandbyModel.exponential(0.5, 5)):
            values = model.reliability(self.grid)
            assert values.shape == (101,) and values[0] == 1.0
            assert np.all((values >= 0.0) & (values <= 1.0))
            assert np.all(np.diff(values) <= 1e-12)

    def test_lindley_curve_dominates_exponential(self):
        for theta in THETAS:
            lindley_vals = StandbyModel.of(DistSpec(LINDLEY, theta), 5).reliability(self.grid)
            exponential_vals = StandbyModel.exponential(theta, 5).reliability(self.grid)
            assert np.all(lindley_vals >= exponential_vals - 1e-12), theta
