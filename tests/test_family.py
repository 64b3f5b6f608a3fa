"""Tests for the seven lifetime distributions: densities, mixture structure,
moments, tails, and the exact sampler.  A member's density, tails and moments
are those of SumSpec(dist, 1), the sum of one draw."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath_oracle import SumOracle

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
    member_by_name,
)
from lindsum.numerics import integrate
from lindsum.sums import SumSpec
from lindsum.validation import _ks_band, _ks_distance

# Independent density formulas, one per member, written out longhand.
DENSITY_FORMULAS = {
    "Lindley": lambda th, x: th**2 / (th + 1) * (1 + x) * math.exp(-th * x),
    "Shanker": lambda th, x: th**2 / (th**2 + 1) * (th + x) * math.exp(-th * x),
    "Akash": lambda th, x: th**3 / (th**2 + 2) * (1 + x**2) * math.exp(-th * x),
    "Ishita": lambda th, x: th**3 / (th**3 + 2) * (th + x**2) * math.exp(-th * x),
    "Pranav": lambda th, x: th**4 / (th**4 + 6) * (th + x**3) * math.exp(-th * x),
    "Rani": lambda th, x: th**5 / (th**5 + 24) * (th + x**4) * math.exp(-th * x),
    "RamAwadh": lambda th, x: th**6 / (th**6 + 120) * (th + x**5) * math.exp(-th * x),
}

THETAS = (0.1, 0.5, 1.0, 2.0, 5.0)


def single(member, theta: float) -> SumSpec:
    """The member at theta as the sum of one draw: its distribution."""
    return SumSpec(DistSpec(member, theta), 1)


class TestMemberLookup:
    def test_case_insensitive(self):
        assert member_by_name("lindley") is LINDLEY
        assert member_by_name("RAMAWADH") is RAM_AWADH
        assert member_by_name(" Shanker ") is SHANKER

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            member_by_name("weibull")

    def test_roster(self):
        assert len(MEMBERS) == 7
        assert {m.degree for m in MEMBERS} == {1, 2, 3, 4, 5}


class TestDistSpecValidation:
    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
    def test_bad_theta_rejected(self, theta):
        with pytest.raises(ValueError):
            DistSpec(LINDLEY, theta)

    def test_theta_coerced_to_float(self):
        assert DistSpec(AKASH, 2).theta == 2.0


class TestDensity:
    def test_matches_longhand_formulas(self):
        for member in MEMBERS:
            formula = DENSITY_FORMULAS[member.name]
            for theta in THETAS:
                spec = single(member, theta)
                for x in np.linspace(0.0, 12.0 / theta, 17):
                    np.testing.assert_allclose(
                        spec.pdf(float(x)), formula(theta, float(x)), rtol=1e-13
                    )

    def test_known_point_values(self):
        np.testing.assert_allclose(single(SHANKER, 1.0).pdf(0.0), 0.5, rtol=1e-15)
        np.testing.assert_allclose(
            single(AKASH, 1.0).pdf(1.0), (1.0 / 3.0) * 2.0 * math.exp(-1.0), rtol=1e-14
        )

    def test_zero_for_negative_arguments(self):
        for member in MEMBERS:
            assert single(member, 1.0).pdf(-0.5) == 0.0

    def test_array_input(self):
        spec = single(PRANAV, 1.0)
        xs = np.array([-1.0, 0.0, 1.0, 2.0])
        values = spec.pdf(xs)
        assert values.shape == xs.shape
        assert values[0] == 0.0
        assert values[2] == spec.pdf(1.0)

    def test_normalization(self):
        for member in MEMBERS:
            for theta in THETAS:
                spec = single(member, theta)
                mass = integrate(
                    spec.pdf, 0.0, math.inf, 1e-10,
                    scale=spec.moment(1),
                ).value
                np.testing.assert_allclose(mass, 1.0, atol=1e-8)


class TestNormConstAndAlpha:
    def test_alpha_kinds(self):
        assert DistSpec(AKASH, 3.0).alpha == 1.0
        assert DistSpec(ISHITA, 3.0).alpha == 3.0
        assert DistSpec(LINDLEY, 0.5).alpha == 1.0

    def test_known_constants(self):
        # c = theta^{k+1} / (alpha theta^k + k!), read as the density at 0 over alpha
        for member, theta, c in ((SHANKER, 1.0, 0.5), (RAM_AWADH, 1.0, 1.0 / 121.0),
                                 (AKASH, 2.0, 8.0 / 6.0)):
            at_zero = single(member, theta).pdf(0.0)
            np.testing.assert_allclose(at_zero / DistSpec(member, theta).alpha, c, rtol=1e-15)

    def test_retired_attributes_are_gone(self):
        # the member's distribution is SumSpec(dist, 1); no second route remains
        dist = DistSpec(LINDLEY, 1.0)
        for name in ("pdf", "survival", "cdf", "moment", "_mixture", "norm_const"):
            assert not hasattr(dist, name), name


class TestMixtureDecomposition:
    def test_known_weights(self):
        np.testing.assert_allclose(DistSpec(SHANKER, 2.0).mixture_weight, 0.8, rtol=1e-15)
        np.testing.assert_allclose(DistSpec(ISHITA, 1.0).mixture_weight, 1.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(DistSpec(AKASH, 1.0).mixture_weight, 1.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(DistSpec(LINDLEY, 1.0).mixture_weight, 0.5, rtol=1e-15)

    def test_density_equals_weighted_components(self):
        # p * Exp(theta) + (1-p) * Erlang(k+1, theta), written out independently
        for member in MEMBERS:
            for theta in (0.5, 1.0, 2.0):
                p = DistSpec(member, theta).mixture_weight
                spec = single(member, theta)
                k1 = member.degree + 1
                for x in np.linspace(0.01, 15.0 / theta, 23):
                    exp_part = theta * math.exp(-theta * x)
                    erlang_part = (
                        theta**k1 * x ** (k1 - 1) * math.exp(-theta * x) / math.factorial(k1 - 1)
                    )
                    np.testing.assert_allclose(
                        spec.pdf(float(x)),
                        p * exp_part + (1.0 - p) * erlang_part,
                        rtol=1e-12,
                    )


class TestTails:
    def test_at_zero_and_negative(self):
        for member in MEMBERS:
            spec = single(member, 1.0)
            assert spec.survival(0.0) == 1.0
            assert spec.cdf(0.0) == 0.0
            assert spec.survival(-2.0) == 1.0
            assert spec.cdf(-2.0) == 0.0

    def test_complementarity(self):
        spec = single(RANI, 0.7)
        for x in (0.0, 0.5, 3.0, 20.0):
            assert spec.survival(x) + spec.cdf(x) == 1.0

    def test_against_density_quadrature(self):
        for member, theta, x in [
            (SHANKER, 1.0, 2.0),
            (PRANAV, 1.0, 5.0),
            (RAM_AWADH, 0.5, 10.0),
        ]:
            spec = single(member, theta)
            mass = integrate(spec.pdf, 0.0, x, 1e-12).value
            np.testing.assert_allclose(spec.survival(x), 1.0 - mass, atol=1e-10)

    def test_array_monotone(self):
        spec = single(AKASH, 1.0)
        xs = np.linspace(0.0, 30.0, 200)
        tail = spec.survival(xs)
        assert np.all(np.diff(tail) <= 1e-12)
        assert np.all((tail >= 0.0) & (tail <= 1.0))

    @given(
        index=st.integers(min_value=0, max_value=6),
        theta=st.floats(min_value=0.05, max_value=20.0),
        x=st.floats(min_value=0.0, max_value=100.0),
        dx=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_survival_bounded_and_decreasing(self, index, theta, x, dx):
        spec = single(MEMBERS[index], theta)
        here = spec.survival(x)
        assert 0.0 <= here <= 1.0
        assert spec.survival(x + dx) <= here + 1e-12


class TestMoments:
    def test_zeroth_is_one(self):
        for member in MEMBERS:
            np.testing.assert_allclose(single(member, 0.7).moment(0), 1.0, rtol=1e-14)

    def test_known_means(self):
        np.testing.assert_allclose(single(LINDLEY, 1.0).moment(1), 1.5, rtol=1e-14)
        np.testing.assert_allclose(single(SHANKER, 1.0).moment(1), 1.5, rtol=1e-14)

    def test_mean_rationals(self):
        # Lindley mean (theta+2)/(theta(theta+1)); Shanker mean (theta^2+2)/(theta(theta^2+1))
        for theta in (0.5, 1.0, 2.0):
            np.testing.assert_allclose(
                single(LINDLEY, theta).moment(1),
                (theta + 2.0) / (theta * (theta + 1.0)),
                rtol=1e-14,
            )
            np.testing.assert_allclose(
                single(SHANKER, theta).moment(1),
                (theta**2 + 2.0) / (theta * (theta**2 + 1.0)),
                rtol=1e-14,
            )

    def test_against_quadrature(self):
        for member in MEMBERS:
            spec = single(member, 1.0)
            for m in range(1, 7):
                numeric = integrate(
                    lambda x: np.asarray(x) ** m * spec.pdf(x),
                    0.0,
                    math.inf,
                    1e-11,
                    scale=spec.moment(1) * (m + 1),
                ).value
                np.testing.assert_allclose(spec.moment(m), numeric, rtol=1e-8)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            single(LINDLEY, 1.0).moment(-1)


class TestSampler:
    def test_deterministic_for_equal_seeds(self):
        spec = DistSpec(ISHITA, 2.0)
        a = spec.sample(np.random.default_rng(7), 1000)
        b = spec.sample(np.random.default_rng(7), 1000)
        np.testing.assert_array_equal(a, b)

    def test_scalar_draw(self):
        value = DistSpec(LINDLEY, 1.0).sample(np.random.default_rng(7))
        assert isinstance(value, float) and value >= 0.0

    def test_mean_within_four_standard_errors(self):
        count = 1_000_000
        for member in (LINDLEY, RANI):
            draws = DistSpec(member, 1.0).sample(np.random.default_rng(19), count)
            spec = single(member, 1.0)
            se = math.sqrt((spec.moment(2) - spec.moment(1) ** 2) / count)
            assert abs(float(draws.mean()) - spec.moment(1)) <= 4.0 * se

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size", [None, 3])
    def test_overflow_raises(self, size):
        # every draw above about 1e-15 / theta passes the largest double
        with pytest.raises(OverflowError, match=r"theta=5e-324, n=1 .*beyond double range"):
            DistSpec(LINDLEY, 5e-324).sample(np.random.default_rng(7), size)

    def test_ks_within_99_percent_band(self):
        # the 99% Kolmogorov band 1.63/sqrt(N), on the ks/* route: the draws
        # sorted in place, then their exact KS distance
        count = 1_000_000
        band = _ks_band(count, 1.63)
        for member in MEMBERS:
            draws = DistSpec(member, 1.0).sample(np.random.default_rng(7), count)
            draws.sort()
            distance = _ks_distance(draws, single(member, 1.0).cdf)
            assert distance <= band, (member.name, distance, band)


def _mp_reference(dist: DistSpec) -> float:
    """The exponential weight p = alpha theta^k / (alpha theta^k + k!) of one
    member in mpmath at 50 digits: the one quantity of TestExtremeTheta that
    tests/mpmath_oracle.SumOracle does not give."""
    k = dist.member.degree
    with mpmath.workdps(50):
        head = mpmath.mpf(dist.alpha) * mpmath.mpf(dist.theta) ** k
        return float(head / (head + mpmath.factorial(k)))


class TestExtremeTheta:
    """The weights come from log-odds, so they stay finite and right where
    alpha*theta^k overflows, and so do the sum of one draw's tail and mean."""

    @pytest.mark.parametrize(
        "member,theta",
        [(RAM_AWADH, 2.6e51), (RAM_AWADH, 1e60), (RAM_AWADH, 1e200), (LINDLEY, 1e300)],
    )
    def test_against_mpmath(self, member, theta):
        dist = DistSpec(member, theta)
        oracle = SumOracle(theta, dist.alpha, member.degree, 1)
        ref = {
            "p": _mp_reference(dist),
            "survival": oracle.survival(1.0 / theta),
            "mean": oracle.mean(),
        }
        got = {
            "p": dist.mixture_weight,
            "survival": SumSpec(dist, 1).survival(1.0 / theta),
            "mean": SumSpec(dist, 1).mean(),
        }
        for name, value in got.items():
            assert math.isfinite(value), name
            # the mean is exp(-ln theta), whose log carries |ln theta| * eps
            np.testing.assert_allclose(value, ref[name], rtol=1e-12, err_msg=name)


class TestDensityAcrossTheta:
    """The member's density, SumSpec(dist, 1).pdf, against the mpmath mixture
    at n = 1, for theta from 1e-300 to 1e300 and theta * x from 0 to 790,
    wherever the density is at least 1e-300.  It once read 0 or lost digits
    where the normalizing constant underflowed (small theta) and where
    e^{-theta x} underflowed but the density did not (large theta times
    theta * x >= 745)."""

    THETAS = tuple(10.0**e for e in range(-300, 301, 10))
    SCALED_X = (0.0, 0.01, 1.0, 5.0, 50.0, 300.0, 700.0, 750.0, 790.0)
    CHECKED = {"Lindley": 416, "Shanker": 411, "Akash": 412, "Ishita": 410, "Pranav": 408,
               "Rani": 407, "RamAwadh": 407}

    @pytest.mark.parametrize("member", MEMBERS, ids=lambda m: m.name)
    def test_against_mpmath(self, member):
        checked = 0
        for theta in self.THETAS:
            dist = DistSpec(member, theta)
            spec = SumSpec(dist, 1)
            oracle = SumOracle(theta, dist.alpha, member.degree, 1)
            xs = [y / theta for y in self.SCALED_X]
            for x, from_array in zip(xs, spec.pdf(np.array(xs))):
                truth = oracle.pdf(x)
                if truth < 1e-300:
                    continue
                for got in (spec.pdf(x), from_array):
                    assert abs(got - truth) <= 1e-12 * truth, (theta, x, got, truth)
                checked += 1
        # about 410 of the 549 points per member; at theta = 1e-300 none
        assert checked == self.CHECKED[member.name]
