"""Tests for n-fold sum distributions: the series density, the Erlang mixture
representation, tails, and moments.

The n = 2 and n = 3 densities are re-derived here by expanding the convolution
by hand for each family member, giving polynomial-bracket oracles that share no
code with the implementation.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest

from lindsum.family import (
    AKASH,
    ISHITA,
    LINDLEY,
    MEMBERS,
    PRANAV,
    RAM_AWADH,
    RANI,
    SHANKER,
    DistSpec,
)
from lindsum.numerics import integrate
from lindsum.reliability import ExponentialStandby, exponential_reliability
from lindsum.sums import ErlangMixture, SumSpec

# Hand-expanded convolution brackets: pdf = c^n * exp(-theta x) * bracket(theta, x).
BRACKETS = {
    (LINDLEY.name, 2): lambda th, x: x + x**2 + x**3 / 6,
    (LINDLEY.name, 3): lambda th, x: x**2 / 2 + x**3 / 2 + x**4 / 8 + x**5 / 120,
    (SHANKER.name, 2): lambda th, x: th**2 * x + th * x**2 + x**3 / 6,
    (SHANKER.name, 3): lambda th, x: th**3 * x**2 / 2 + th**2 * x**3 / 2 + th * x**4 / 8 + x**5 / 120,
    (AKASH.name, 2): lambda th, x: x + 2 * x**3 / 3 + x**5 / 30,
    (AKASH.name, 3): lambda th, x: x**2 / 2 + x**4 / 4 + x**6 / 60 + x**8 / 5040,
    (ISHITA.name, 2): lambda th, x: th**2 * x + 2 * th * x**3 / 3 + x**5 / 30,
    (ISHITA.name, 3): lambda th, x: th**3 * x**2 / 2 + th**2 * x**4 / 4 + th * x**6 / 60 + x**8 / 5040,
    (PRANAV.name, 2): lambda th, x: th**2 * x + th * x**4 / 2 + x**7 / 140,
    (PRANAV.name, 3): lambda th, x: th**3 * x**2 / 2 + 3 * th**2 * x**5 / 20 + 3 * th * x**8 / 1120 + x**11 / 184800,
    (RANI.name, 2): lambda th, x: th**2 * x + 2 * th * x**5 / 5 + x**9 / 630,
    (RANI.name, 3): lambda th, x: th**3 * x**2 / 2 + th**2 * x**6 / 10 + th * x**10 / 2100 + x**14 / 6306300,
    (RAM_AWADH.name, 2): lambda th, x: th**2 * x + th * x**6 / 3 + x**11 / 2772,
    (RAM_AWADH.name, 3): lambda th, x: th**3 * x**2 / 2 + th**2 * x**7 / 14 + th * x**12 / 11088 + x**17 / 205837632,
}


class TestErlangMixtureValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ErlangMixture(1.0, (0.5, 0.5), (1, 2, 3))

    def test_rejects_unsorted_shapes(self):
        with pytest.raises(ValueError):
            ErlangMixture(1.0, (0.5, 0.5), (2, 1))

    def test_rejects_weights_off_unity(self):
        with pytest.raises(ValueError):
            ErlangMixture(1.0, (0.6, 0.5), (1, 2))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ErlangMixture(0.0, (1.0,), (1,))

    def test_rejects_negative_and_nan_weights(self):
        with pytest.raises(ValueError):
            ErlangMixture(1.0, (-0.5, 1.5), (1, 2))
        with pytest.raises(ValueError):
            ErlangMixture(1.0, (math.nan, 1.0), (1, 2))

    def test_components_pairs(self):
        mixture = ErlangMixture(2.0, (0.25, 0.75), (1, 3))
        assert mixture.components == ((0.25, 1), (0.75, 3))


class TestSumSpecValidation:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            SumSpec(DistSpec(LINDLEY, 1.0), 0)

    def test_rejects_non_integer_n(self):
        with pytest.raises(TypeError):
            SumSpec(DistSpec(LINDLEY, 1.0), 2.5)


class TestSingleTermReduction:
    def test_density_matches_base_distribution(self):
        xs = np.linspace(0.0, 25.0, 101)
        for member in MEMBERS:
            for theta in (0.5, 1.0, 2.0):
                dist = DistSpec(member, theta)
                summed = SumSpec(dist, 1)
                base = dist.pdf(xs)
                series = summed.pdf(xs)
                np.testing.assert_allclose(series, base, rtol=1e-12, atol=1e-300)

    def test_tail_matches_base_distribution(self):
        for member in MEMBERS:
            dist = DistSpec(member, 1.0)
            summed = SumSpec(dist, 1)
            for x in (0.0, 0.3, 2.0, 9.0):
                np.testing.assert_allclose(summed.survival(x), dist.survival(x), rtol=1e-12)

    def test_moments_match_base_distribution(self):
        for member in MEMBERS:
            dist = DistSpec(member, 1.3)
            summed = SumSpec(dist, 1)
            for m in range(5):
                np.testing.assert_allclose(summed.moment(m), dist.moment(m), rtol=1e-12)


class TestDensityAgainstHandExpansion:
    def test_all_members_n2_n3(self):
        for member in MEMBERS:
            for n in (2, 3):
                bracket = BRACKETS[(member.name, n)]
                for theta in (0.5, 1.0, 2.0):
                    dist = DistSpec(member, theta)
                    spec = SumSpec(dist, n)
                    c = dist.norm_const
                    for x in np.linspace(0.1, 8.0 / theta, 13):
                        expected = c**n * math.exp(-theta * x) * bracket(theta, float(x))
                        np.testing.assert_allclose(spec.pdf(float(x)), expected, rtol=1e-11)

    def test_frozen_value_shanker_pair(self):
        # theta=1: c=1/2, bracket(1,1) = 1 + 1 + 1/6 = 13/6
        value = SumSpec(DistSpec(SHANKER, 1.0), 2).pdf(1.0)
        np.testing.assert_allclose(value, 0.25 * math.exp(-1.0) * (13.0 / 6.0), rtol=1e-13)

    def test_frozen_value_ram_awadh_triple(self):
        # theta=1: c=1/121, bracket(1,2) = 2 + 2^7/14 + 2^12/11088 + 2^17/205837632
        bracket = 2.0 + 128.0 / 14.0 + 4096.0 / 11088.0 + 131072.0 / 205837632.0
        value = SumSpec(DistSpec(RAM_AWADH, 1.0), 3).pdf(2.0)
        np.testing.assert_allclose(value, (1.0 / 121.0) ** 3 * math.exp(-2.0) * bracket, rtol=1e-13)

    def test_zero_and_negative_arguments(self):
        spec = SumSpec(DistSpec(AKASH, 1.0), 3)
        assert spec.pdf(-1.0) == 0.0
        assert spec.pdf(0.0) == 0.0
        single = SumSpec(DistSpec(LINDLEY, 2.0), 1)
        np.testing.assert_allclose(single.pdf(0.0), DistSpec(LINDLEY, 2.0).pdf(0.0), rtol=1e-15)


class TestScalarDensityPath:
    """Python int/float and np.float64 arguments in (0, inf) take a math-module
    path; it must agree with the array path, which handles everything else."""

    def test_matches_array_path(self):
        for member in MEMBERS:
            for theta in (0.1, 0.5, 1.0, 2.0, 3.0):
                for n in (1, 2, 3, 5, 10, 50):
                    spec = SumSpec(DistSpec(member, theta), n)
                    for x in np.linspace(0.0, 6.0 * spec.mean(), 60)[1:].tolist():
                        scalar = spec.pdf(x)
                        assert type(scalar) is float
                        np.testing.assert_allclose(
                            scalar, spec.pdf(np.array([x]))[0], rtol=1e-12, atol=0.0
                        ), (member.name, theta, n, x)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_edge_arguments_take_array_path(self, n, x):
        spec = SumSpec(DistSpec(RANI, 1.5), n)
        expected = spec.pdf(np.array([x]))[0]
        for arg in (x, np.float64(x), np.array(x)):
            got = spec.pdf(arg)
            assert type(got) is float
            assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_positive_argument_types(self):
        spec = SumSpec(DistSpec(PRANAV, 0.5), 3)
        assert spec.pdf(np.float64(2.0)) == spec.pdf(2.0)
        assert spec.pdf(2) == spec.pdf(2.0)
        # a 0-d array is an array: it takes the array path, bit for bit
        assert spec.pdf(np.array(2.0)) == spec.pdf(np.array([2.0]))[0]


class TestMixtureRepresentation:
    def test_frozen_weights_single_lindley(self):
        mixture = SumSpec(DistSpec(LINDLEY, 1.0), 1).mixture()
        np.testing.assert_allclose(mixture.weights, (0.5, 0.5), rtol=1e-14)
        assert mixture.shapes == (1, 2)
        assert mixture.rate == 1.0

    def test_frozen_weights_lindley_pair(self):
        mixture = SumSpec(DistSpec(LINDLEY, 1.0), 2).mixture()
        np.testing.assert_allclose(mixture.weights, (0.25, 0.5, 0.25), rtol=1e-14)
        assert mixture.shapes == (2, 3, 4)

    def test_shapes_step_by_degree(self):
        mixture = SumSpec(DistSpec(RAM_AWADH, 1.0), 4).mixture()
        assert mixture.shapes == (4, 9, 14, 19, 24)

    def test_weights_sum_to_one_up_to_twenty_terms(self):
        for member in MEMBERS:
            for theta in (0.5, 1.0, 2.0):
                for n in range(1, 21):
                    weights = SumSpec(DistSpec(member, theta), n).mixture().weights
                    assert abs(math.fsum(weights) - 1.0) <= 1e-10, (member.name, theta, n)

    def test_mixture_density_equals_series_density(self):
        for member in MEMBERS:
            for n in (1, 2, 5, 10):
                dist = DistSpec(member, 1.0)
                spec = SumSpec(dist, n)
                mixture = spec.mixture()
                xs = np.linspace(0.05, 6.0 * spec.mean(), 40)
                np.testing.assert_allclose(mixture.pdf(xs), spec.pdf(xs), rtol=1e-10, atol=1e-280)


class TestTailFunctions:
    def test_boundaries(self):
        spec = SumSpec(DistSpec(ISHITA, 1.0), 3)
        assert spec.survival(0.0) == 1.0
        assert spec.survival(-4.0) == 1.0
        assert spec.cdf(0.0) == 0.0

    def test_against_density_quadrature(self):
        for member, n in [(LINDLEY, 2), (AKASH, 3), (RAM_AWADH, 2)]:
            spec = SumSpec(DistSpec(member, 1.0), n)
            for x in (1.0, spec.mean(), 3.0 * spec.mean()):
                mass = integrate(lambda u: float(spec.pdf(u)), 0.0, float(x), 1e-12).value
                np.testing.assert_allclose(spec.survival(x), 1.0 - mass, atol=1e-10)

    def test_complementarity_and_monotonicity(self):
        spec = SumSpec(DistSpec(PRANAV, 0.5), 4)
        xs = np.linspace(0.0, 12.0 * spec.mean(), 300)
        tail = spec.survival(xs)
        assert np.all(np.abs(tail + spec.cdf(xs) - 1.0) <= 1e-12)
        assert np.all(np.diff(tail) <= 1e-12)
        assert np.all((tail >= 0.0) & (tail <= 1.0))


class TestMoments:
    def test_zeroth_is_one(self):
        for member in MEMBERS:
            np.testing.assert_allclose(SumSpec(DistSpec(member, 0.8), 6).moment(0), 1.0, rtol=1e-12)

    def test_mean_is_n_times_base_mean(self):
        for member in MEMBERS:
            for theta in (0.5, 1.0, 2.0):
                dist = DistSpec(member, theta)
                for n in (1, 2, 5, 10):
                    np.testing.assert_allclose(
                        SumSpec(dist, n).mean(), n * dist.moment(1), rtol=1e-12
                    )

    def test_frozen_mean_lindley_five(self):
        np.testing.assert_allclose(SumSpec(DistSpec(LINDLEY, 1.0), 5).mean(), 7.5, rtol=1e-13)

    def test_variance_is_n_times_base_variance(self):
        for member in (SHANKER, RANI):
            dist = DistSpec(member, 1.0)
            base_var = dist.moment(2) - dist.moment(1) ** 2
            for n in (2, 7):
                np.testing.assert_allclose(
                    SumSpec(dist, n).variance(), n * base_var, rtol=1e-10
                )

    def test_series_form_matches_mixture_form(self):
        for member in MEMBERS:
            for theta in (0.5, 1.0, 2.0):
                for n in (1, 2, 3, 5, 10):
                    spec = SumSpec(DistSpec(member, theta), n)
                    for m in range(5):
                        np.testing.assert_allclose(
                            spec.moment_series(m), spec.moment(m), rtol=1e-10
                        )

    def test_against_quadrature(self):
        spec = SumSpec(DistSpec(ISHITA, 1.0), 4)
        for m in range(1, 5):
            numeric = integrate(
                lambda x: x**m * float(spec.pdf(x)),
                0.0,
                math.inf,
                1e-11,
                scale=spec.mean() * (m + 1),
            ).value
            np.testing.assert_allclose(spec.moment(m), numeric, rtol=1e-8)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            SumSpec(DistSpec(LINDLEY, 1.0), 2).moment(-1)


class TestMomentSeriesSmallP:
    def test_matches_mean_where_p_underflows(self):
        # p = theta^6/(theta^6 + 120) underflows to 0 at theta = 1e-60
        spec = SumSpec(DistSpec(RAM_AWADH, 1e-60), 3)
        assert spec.dist.mixture_weight == 0.0
        np.testing.assert_allclose(spec.moment_series(1), spec.mean(), rtol=1e-12)
        np.testing.assert_allclose(spec.mean(), 18e60, rtol=1e-12)


class TestLargeN:
    def test_ram_awadh_fifty_terms_stable(self):
        spec = SumSpec(DistSpec(RAM_AWADH, 1.0), 50)
        xs = np.linspace(1.0, 500.0, 250)
        density = spec.pdf(xs)
        tail = spec.survival(xs)
        assert np.all(np.isfinite(density)) and np.all(density >= 0.0)
        assert np.all(np.isfinite(tail))
        mass = integrate(
            lambda x: float(spec.pdf(x)), 0.0, math.inf, 1e-9, scale=spec.mean()
        ).value
        np.testing.assert_allclose(mass, 1.0, atol=1e-6)

    def test_peak_location_near_mean(self):
        spec = SumSpec(DistSpec(RAM_AWADH, 1.0), 50)
        xs = np.linspace(200.0, 400.0, 2001)
        peak = float(xs[int(np.argmax(spec.pdf(xs)))])
        assert abs(peak - spec.mean()) <= 10.0


class TestZeroWeightComponents:
    """A component whose weight is 0 contributes nothing: the mixture must
    agree with the one built without it, and not fail to build."""

    def test_matches_mixture_without_the_component(self):
        padded = ErlangMixture(1.5, (0.0, 1.0), (2, 5))
        single = ErlangMixture(1.5, (1.0,), (5,))
        xs = np.array([-1.0, 0.0, 0.3, 2.0, 7.5, 40.0])
        np.testing.assert_array_equal(padded.pdf(xs), single.pdf(xs))
        np.testing.assert_array_equal(padded.survival(xs), single.survival(xs))
        assert padded.pdf(2.0) == single.pdf(2.0)
        for m in range(5):
            assert padded.moment(m) == single.moment(m)

    @pytest.mark.parametrize("theta", [1e-200, 0.1, 1.0, 1e17, 1e200])
    def test_member_and_single_sum_share_weights(self, theta):
        for member in MEMBERS:
            dist = DistSpec(member, theta)
            # _mixture is the mixture that DistSpec.survival and moment read
            assert dist._mixture.weights == SumSpec(dist, 1).mixture().weights

    def test_lindley_keeps_its_small_erlang_branch(self):
        # at theta = 1e17 the Erlang weight 1 - p = 1/(theta + 1) is about 1e-17,
        # below the rounding of p itself; it must still be there
        theta = 1e17
        dist = DistSpec(LINDLEY, theta)
        q = 1.0 / (theta + 1.0)
        p = theta * q
        np.testing.assert_allclose(SumSpec(dist, 1).mixture().weights[1], q, rtol=1e-14)
        for x in (1e-18, 1e-17, 3e-17, 2e-16):
            expected = (p + q * (1.0 + theta * x)) * math.exp(-theta * x)
            np.testing.assert_allclose(dist.survival(x), expected, rtol=1e-15)
        np.testing.assert_allclose(dist.moment(1), (p + 2.0 * q) / theta, rtol=1e-13)


def _series_oracle(dist: DistSpec, n: int, x: float) -> tuple[float, float, float]:
    """Mean, survival at x and density at x of the n-fold sum, from the paper's
    series evaluated term by term in mpmath at 50 digits:

        f_n(x) = c^n sum_r C(n,r) alpha^{n-r} (k!)^r x^{n+kr-1}/(n+kr-1)! e^{-theta x}.

    Each term integrates in closed form: its tail beyond x is theta^{-s} Q(s,
    theta x) and its first moment s/theta^{s+1}, with s = n + kr and Q the
    regularized upper incomplete gamma function."""
    k = dist.member.degree
    with mpmath.workdps(50):
        theta, alpha, xm = mpmath.mpf(dist.theta), mpmath.mpf(dist.alpha), mpmath.mpf(x)
        c = theta ** (k + 1) / (alpha * theta**k + mpmath.factorial(k))
        mean = tail = density = mpmath.mpf(0)
        for r in range(n + 1):
            s = n + k * r
            coef = c**n * mpmath.binomial(n, r) * alpha ** (n - r) * mpmath.factorial(k) ** r
            mean += coef * s / theta ** (s + 1)
            tail += coef / theta**s * mpmath.gammainc(s, theta * xm, regularized=True)
            density += coef * xm ** (s - 1) / mpmath.factorial(s - 1) * mpmath.exp(-theta * xm)
        return float(mean), float(tail), float(density)


class TestUnderflowedWeightSum:
    """RamAwadh at theta = 0.1 with n = 50: the r = 0 mixture weight p^50
    (p ~ 8.3e-9) underflows to 0, which once made the mixture fail to build."""

    def test_against_mpmath_series(self):
        dist = DistSpec(RAM_AWADH, 0.1)
        spec = SumSpec(dist, 50)
        assert spec.mixture().weights[0] == 0.0
        mean = _series_oracle(dist, 50, 1.0)[0]
        np.testing.assert_allclose(spec.mean(), mean, rtol=1e-12)
        sd = math.sqrt(spec.variance())
        for x in (mean - 2.0 * sd, mean, mean + 2.0 * sd):
            _, tail, density = _series_oracle(dist, 50, x)
            np.testing.assert_allclose(spec.survival(x), tail, rtol=1e-12)
            np.testing.assert_allclose(spec.cdf(x), 1.0 - tail, rtol=1e-12)
            # the log density is a sum of terms near theta * x = 300 in size,
            # so a few hundred ulp of relative error is inherent
            np.testing.assert_allclose(spec.pdf(x), density, rtol=2e-12)
            np.testing.assert_allclose(spec.pdf(np.array([x]))[0], density, rtol=2e-12)


class TestNonFiniteArguments:
    """Density and tails are 0 at +inf and NaN at NaN, on every route, with no
    floating-point warning."""

    def test_infinity_and_nan(self):
        dist = DistSpec(RANI, 1.5)
        spec = SumSpec(dist, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (math.inf, np.float64(math.inf), np.array(math.inf)):
                assert spec.pdf(arg) == 0.0
                assert spec.survival(arg) == 0.0
                assert spec.cdf(arg) == 1.0
                assert dist.pdf(arg) == 0.0
                assert dist.survival(arg) == 0.0
                assert exponential_reliability(1.0, 3, arg) == 0.0
                assert ExponentialStandby(1.0, 3).reliability(arg) == 0.0
            for route in (spec.pdf, spec.survival, spec.cdf, dist.pdf, dist.survival):
                assert math.isnan(route(math.nan))
            values = spec.survival(np.array([-math.inf, 0.0, 1.0, math.inf, math.nan]))
        assert values[0] == 1.0 and values[1] == 1.0 and values[3] == 0.0
        assert 0.0 < values[2] < 1.0 and math.isnan(values[4])
